package main

// The -json mode measures the layer rows with testing.Benchmark and
// writes them to BENCH_hotpath.json as one flat name → value object; the
// -compare mode re-measures them and gates on regressions against such a
// file. The benchmark bodies live in internal/bench, shared with the
// repo-root `go test -bench` suite that CI smoke-tests. End-to-end
// numbers (campaign throughput, time to the first reliable attack) are
// not rows here: benchmark/ owns them.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"autocat/internal/bench"
)

const hotpathFile = "BENCH_hotpath.json"

// direction says which way a row regresses.
type direction int

const (
	lower  direction = iota // a cost (ns): a rise beyond the tolerance regresses
	higher                  // a throughput: a drop beyond the tolerance regresses
	allocs                  // allocs/op: any rise regresses, at any tolerance
)

// row is one gated metric and how to read it from its body's result.
type row struct {
	name string
	get  func(testing.BenchmarkResult) float64
	dir  direction
}

// table is the one list of layer rows, in measuring and reporting
// order: each entry runs one internal/bench body once and reads its rows
// from the result. Adding a row is one line here.
var table = []struct {
	body func(*testing.B)
	rows []row
}{
	{bench.CacheAccessSkew, []row{{"cache_access_ns", nsPer(bench.CacheAccessSkewStream), lower}, {"cache_access_allocs_per_op", allocsPerOp, allocs}}},
	{bench.StepHot, []row{{"step_ns_per_op", nsPerOp, lower}, {"step_allocs_per_op", allocsPerOp, allocs}}},
	{bench.StepHotInstrumented, []row{{"instrumented_step_ns", nsPerOp, lower}, {"instrumented_step_allocs_per_op", allocsPerOp, allocs}}},
	{bench.StepHotDefended, []row{{"defended_step_ns", nsPerOp, lower}, {"defended_step_allocs_per_op", allocsPerOp, allocs}}},
	{bench.StepHotShaped, []row{{"shaped_step_ns", nsPerOp, lower}, {"shaped_step_allocs_per_op", allocsPerOp, allocs}}},
	{bench.RolloutSteps, []row{{"rollout_steps_per_sec", extra("steps/s"), higher}}},
	{bench.SearchIncremental, []row{{"search_candidates_per_sec", extra("cands/s"), higher}}},
	{bench.SearchScan, []row{{"search_scan_candidates_per_sec", extra("cands/s"), higher}}},
	{bench.SearchExplore, []row{{"search_explore_ns", nsPerOp, lower}}},
	{bench.SearchExploreWarm, []row{{"search_explore_warm_ns", nsPerOp, lower}}},
	{bench.RNGSeed, []row{{"rng_seed_ns", nsPerOp, lower}, {"rng_seed_allocs_per_op", allocsPerOp, allocs}}},
	{bench.ReplayState, []row{{"replay_state_ns", nsPerOp, lower}, {"replay_state_allocs_per_op", allocsPerOp, allocs}}},
	{bench.PPOEpoch, []row{{"ppo_epoch_steps_per_sec", extra("steps/s"), higher}}},
	{bench.MLPApplyBatch, []row{{"apply_batch_ns_per_sample", nsPer(bench.ApplyBatchRows), lower}}},
	{bench.MLPGradBatch, []row{{"grad_batch_ns_per_sample", nsPer(bench.ApplyBatchRows), lower}}},
	{bench.DenseForward, []row{{"dense_forward_ns_per_sample", nsPer(bench.DenseForwardRows), lower}}},
	{bench.TanhInto, []row{{"tanh_ns_per_elem", nsPer(bench.TanhElems), lower}, {"tanh_allocs_per_op", allocsPerOp, allocs}}},
	{bench.ArtifactReplay, []row{{"artifact_replay_ns", nsPerOp, lower}}},
}

func nsPerOp(r testing.BenchmarkResult) float64     { return float64(r.NsPerOp()) }
func allocsPerOp(r testing.BenchmarkResult) float64 { return float64(r.AllocsPerOp()) }

// nsPer reads ns/op divided over the n units one op processes.
func nsPer(n int) func(testing.BenchmarkResult) float64 {
	return func(r testing.BenchmarkResult) float64 { return float64(r.NsPerOp()) / float64(n) }
}

// extra reads a metric the body reports with b.ReportMetric.
func extra(unit string) func(testing.BenchmarkResult) float64 {
	return func(r testing.BenchmarkResult) float64 { return r.Extra[unit] }
}

// measure runs every body in the table once and returns its rows.
func measure() map[string]float64 {
	m := make(map[string]float64)
	for _, e := range table {
		res := testing.Benchmark(e.body)
		for _, r := range e.rows {
			m[r.name] = r.get(res)
			fmt.Printf("  %-32s %12.4g\n", r.name, m[r.name])
		}
	}
	return m
}

// runHotpath measures the layer rows and writes them to path.
func runHotpath(path string) error {
	data, err := json.MarshalIndent(measure(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runCompare re-measures the layer rows and gates them against the
// report at path.
func runCompare(path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var ref map[string]float64
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("compare: %s: %w", path, err)
	}
	cur := measure()
	fmt.Printf("\ncomparing against %s (tolerance %.0f%%):\n", path, tolerance*100)
	lines, err := compare(ref, cur, tolerance)
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		return err
	}
	fmt.Println("no regressions")
	return nil
}

// compare gates cur against ref over the row table and returns one
// report line per row, in table order. A lower or higher row regresses
// when it gets worse by more than the factor 1+tol; an allocs row
// regresses on any rise. A row ref lacks is reported as "(no reference)"
// and passes. The error names every regressed row, and every ref key no
// row produces: a stale reference must not leave a row silently ungated.
func compare(ref, cur map[string]float64, tol float64) ([]string, error) {
	var lines, failures []string
	known := make(map[string]bool)
	for _, e := range table {
		for _, r := range e.rows {
			known[r.name] = true
			was, ok := ref[r.name]
			now := cur[r.name]
			if !ok {
				lines = append(lines, fmt.Sprintf("  %-32s %12.4g  (no reference)", r.name, now))
				continue
			}
			if r.dir == allocs {
				status := "ok"
				if now > was {
					status = "REGRESSION"
					failures = append(failures, r.name)
				}
				lines = append(lines, fmt.Sprintf("  %-32s %12g -> %12g  %s (strict)", r.name, was, now, status))
				continue
			}
			// Gate on the worsening ratio, not the fractional delta: a
			// fractional drop saturates at -100%, so large tolerances (CI's
			// cross-machine 3.0) would never fire on throughput rows.
			worse := now / was
			if r.dir == higher {
				worse = was / now
			}
			status := "ok"
			if worse > 1+tol {
				status = "REGRESSION"
				failures = append(failures, r.name)
			}
			lines = append(lines, fmt.Sprintf("  %-32s %12.4g -> %12.4g  (%+.1f%%)  %s",
				r.name, was, now, (now-was)/was*100, status))
		}
	}
	var unknown []string
	for k := range ref {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	slices.Sort(unknown)
	var errs []error
	if len(unknown) > 0 {
		errs = append(errs, fmt.Errorf("reference keys no row produces: %v", unknown))
	}
	if len(failures) > 0 {
		errs = append(errs, fmt.Errorf("hot-path regression in: %v", failures))
	}
	return lines, errors.Join(errs...)
}
