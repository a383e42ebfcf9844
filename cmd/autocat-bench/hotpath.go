package main

// The -json mode: measure the training hot path with testing.Benchmark
// and emit BENCH_hotpath.json — steps/sec and allocs/step for the
// env+cache step loop, steps/sec for the vectorized lockstep rollout
// and for a full PPO epoch, per-sample cost of the batched nn forward
// and backward, and campaign jobs/sec — alongside the committed
// pre-refactor baseline so the speedup trajectory is tracked in-repo.
// The -compare mode re-measures the same metrics and gates on
// regressions against a previously written report. The benchmark bodies
// live in internal/bench, shared with the repo-root `go test -bench`
// suite that CI smoke-tests.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"autocat/internal/bench"
	"autocat/internal/exp"
)

const hotpathFile = "BENCH_hotpath.json"

// hotpathBaseline is the pre-batching measurement (PR 1 state) the
// current numbers are compared against; see BENCH_hotpath.json history.
// Metrics introduced later are zero and skipped in speedup reporting.
// (ApplyNsPerSample is not comparable across PR 3: the batch benchmark
// previously ran on all-zero observations, which the zero-skipping
// kernels fast-path past; it now runs on real rollout observations.)
var hotpathBaseline = hotpathStats{
	Description:      "pre-refactor per-sample hot path (PR 1 state)",
	StepNsPerOp:      508.8,
	StepAllocsPerOp:  1,
	StepsPerSec:      1.965e6,
	PPOEpochStepsSec: 3046,
	CampaignJobsSec:  1.111,
	ApplyNsPerSample: 880.4,
}

type hotpathStats struct {
	Description     string  `json:"description"`
	StepNsPerOp     float64 `json:"step_ns_per_op"`
	StepAllocsPerOp float64 `json:"step_allocs_per_op"`
	StepsPerSec     float64 `json:"steps_per_sec"`
	// InstrumentedStepNs is the same loop with the telemetry counter
	// flush enabled (the production default; StepNsPerOp disables it).
	// The observability contract: 0 allocs/op and within a few percent
	// of the uninstrumented loop. InstrumentedStepAllocs is gated
	// strictly like the other alloc counts.
	InstrumentedStepNs     float64 `json:"instrumented_step_ns,omitempty"`
	InstrumentedStepAllocs float64 `json:"instrumented_step_allocs_per_op,omitempty"`
	// DefendedStepNs is the StepHot loop with the CEASER keyed remap and
	// rekeying enabled (internal/bench.DefendedEnvConfig): the defense
	// suite sits on the set-lookup hot path, so -compare gates its cost
	// separately from the undefended loop. DefendedStepAllocs is gated
	// strictly like the undefended alloc count.
	DefendedStepNs     float64 `json:"defended_step_ns,omitempty"`
	DefendedStepAllocs float64 `json:"defended_step_allocs_per_op,omitempty"`
	// ShapedStepNs is the StepHot loop with useless-action reward
	// shaping enabled (internal/bench.ShapedEnvConfig): classification
	// plus the active penalty path. ShapedStepAllocs is gated strictly
	// like the other alloc counts.
	ShapedStepNs     float64 `json:"shaped_step_ns,omitempty"`
	ShapedStepAllocs float64 `json:"shaped_step_allocs_per_op,omitempty"`
	RolloutStepsSec  float64 `json:"rollout_steps_per_sec,omitempty"`
	// SearchCandsSec is the incremental exhaustive DFS's candidate
	// throughput on the full length-8 sweep (internal/bench.SearchIncremental);
	// SearchScanCandsSec is the seed re-simulating scan on the identical
	// sweep, kept as the reference the incremental speedup is measured
	// against. ReplayStateNs is one mid-episode env
	// AppendReplayState+LoadReplayState pair; its allocs are gated
	// strictly (0 in steady state).
	SearchCandsSec     float64 `json:"search_candidates_per_sec,omitempty"`
	SearchScanCandsSec float64 `json:"search_scan_candidates_per_sec,omitempty"`
	ReplayStateNs      float64 `json:"replay_state_ns,omitempty"`
	ReplayStateAllocs  float64 `json:"replay_state_allocs_per_op,omitempty"`
	PPOEpochStepsSec   float64 `json:"ppo_epoch_steps_per_sec"`
	CampaignJobsSec    float64 `json:"campaign_jobs_per_sec_4workers"`
	ApplyNsPerSample   float64 `json:"apply_batch_ns_per_sample"`
	GradNsPerSample    float64 `json:"grad_batch_ns_per_sample,omitempty"`
	// TanhNsPerElem is the batched trunk activation (nn.TanhInto) per
	// element; TanhAllocs is gated strictly (0 in steady state).
	TanhNsPerElem float64 `json:"tanh_ns_per_elem,omitempty"`
	TanhAllocs    float64 `json:"tanh_allocs_per_op,omitempty"`
	// ArtifactReplayNs is one stored artifact replayed through a fresh
	// environment (env construction + 64-episode deterministic eval +
	// attack extraction) — the `autocat replay` verification path.
	ArtifactReplayNs float64 `json:"artifact_replay_ns,omitempty"`
	// StepsToFirstReliable / TimeToFirstReliableMS sum environment
	// steps and wall-clock to the first reliable attack with plain PPO
	// over the exp.ShapingScenarios suite rows both variants solve
	// within budget (each row already aggregates three training seeds);
	// the Shaped* twins are the same rows trained with useless-action
	// shaping. Step counts use a pinned worker count and are
	// machine-independent; the ms metrics ride the ordinary -compare
	// tolerance. FirstReliable keeps the per-scenario detail behind the
	// sums.
	StepsToFirstReliable        float64            `json:"steps_to_first_reliable,omitempty"`
	TimeToFirstReliableMS       float64            `json:"time_to_first_reliable_ms,omitempty"`
	ShapedStepsToFirstReliable  float64            `json:"shaped_steps_to_first_reliable,omitempty"`
	ShapedTimeToFirstReliableMS float64            `json:"shaped_time_to_first_reliable_ms,omitempty"`
	FirstReliable               []firstReliableRow `json:"first_reliable,omitempty"`
}

// firstReliableRow is one shaping-suite scenario's shaped-vs-plain cost
// to the first reliable attack (summed over its seed replicates).
type firstReliableRow struct {
	Scenario       string  `json:"scenario"`
	PlainSteps     int     `json:"plain_steps"`
	PlainMS        float64 `json:"plain_ms"`
	PlainReliable  bool    `json:"plain_reliable"`
	ShapedSteps    int     `json:"shaped_steps"`
	ShapedMS       float64 `json:"shaped_ms"`
	ShapedReliable bool    `json:"shaped_reliable"`
}

type hotpathReport struct {
	Baseline hotpathStats       `json:"baseline"`
	Current  hotpathStats       `json:"current"`
	Speedup  map[string]float64 `json:"speedup"`
}

// measureHotpath runs every hot-path benchmark once and collects the
// metrics.
func measureHotpath() hotpathStats {
	fmt.Println("measuring env.StepInto + cache.Access loop ...")
	step := testing.Benchmark(bench.StepHot)
	fmt.Println("measuring instrumented (telemetry-enabled) step loop ...")
	instrumented := testing.Benchmark(bench.StepHotInstrumented)
	fmt.Println("measuring defended (ceaser-rekeyed) step loop ...")
	defended := testing.Benchmark(bench.StepHotDefended)
	fmt.Println("measuring shaped (useless-action penalties) step loop ...")
	shaped := testing.Benchmark(bench.StepHotShaped)
	fmt.Println("measuring vectorized lockstep rollout ...")
	roll := testing.Benchmark(bench.RolloutSteps)
	fmt.Println("measuring incremental exhaustive search ...")
	searchInc := testing.Benchmark(bench.SearchIncremental)
	fmt.Println("measuring seed re-simulating search scan ...")
	searchScan := testing.Benchmark(bench.SearchSeedScan)
	fmt.Println("measuring env replay-key append+load ...")
	replayKey := testing.Benchmark(bench.ReplayState)
	fmt.Println("measuring full PPO epochs ...")
	ppo := testing.Benchmark(bench.PPOEpoch)
	fmt.Println("measuring batched MLP forward ...")
	apply := testing.Benchmark(bench.MLPApplyBatch)
	fmt.Println("measuring batched MLP backward ...")
	grad := testing.Benchmark(bench.MLPGradBatch)
	fmt.Println("measuring batched tanh ...")
	tanh := testing.Benchmark(bench.TanhInto)
	fmt.Println("measuring campaign throughput (4 workers) ...")
	camp := testing.Benchmark(func(b *testing.B) { bench.CampaignJobs(b, 4) })
	fmt.Println("measuring artifact replay ...")
	replay := testing.Benchmark(bench.ArtifactReplay)
	fmt.Println("measuring steps/wall-clock to first reliable attack (shaped vs plain PPO) ...")
	rows, err := exp.ShapingRows(context.Background(), exp.Options{})
	if err != nil {
		// Leave the first-reliable metrics zero; -compare skips them as
		// "no reference" rather than failing the whole measurement.
		fmt.Fprintf(os.Stderr, "first-reliable measurement failed: %v\n", err)
	}

	stepNs := float64(step.NsPerOp())
	st := hotpathStats{
		Description:            "measured by cmd/autocat-bench",
		StepNsPerOp:            stepNs,
		StepAllocsPerOp:        float64(step.AllocsPerOp()),
		StepsPerSec:            1e9 / stepNs,
		InstrumentedStepNs:     float64(instrumented.NsPerOp()),
		InstrumentedStepAllocs: float64(instrumented.AllocsPerOp()),
		DefendedStepNs:         float64(defended.NsPerOp()),
		DefendedStepAllocs:     float64(defended.AllocsPerOp()),
		ShapedStepNs:           float64(shaped.NsPerOp()),
		ShapedStepAllocs:       float64(shaped.AllocsPerOp()),
		RolloutStepsSec:        roll.Extra["steps/s"],
		SearchCandsSec:         searchInc.Extra["cands/s"],
		SearchScanCandsSec:     searchScan.Extra["cands/s"],
		ReplayStateNs:          float64(replayKey.NsPerOp()),
		ReplayStateAllocs:      float64(replayKey.AllocsPerOp()),
		PPOEpochStepsSec:       ppo.Extra["steps/s"],
		CampaignJobsSec:        camp.Extra["jobs/s"],
		ApplyNsPerSample:       float64(apply.NsPerOp()) / bench.ApplyBatchRows,
		GradNsPerSample:        float64(grad.NsPerOp()) / bench.ApplyBatchRows,
		TanhNsPerElem:          float64(tanh.NsPerOp()) / bench.TanhElems,
		TanhAllocs:             float64(tanh.AllocsPerOp()),
		ArtifactReplayNs:       float64(replay.NsPerOp()),
	}
	for _, r := range rows {
		st.FirstReliable = append(st.FirstReliable, firstReliableRow{
			Scenario:       r.Name,
			PlainSteps:     r.Plain.Steps,
			PlainMS:        round2(r.Plain.MS),
			PlainReliable:  r.Plain.Reliable,
			ShapedSteps:    r.Shaped.Steps,
			ShapedMS:       round2(r.Shaped.MS),
			ShapedReliable: r.Shaped.Reliable,
		})
		// The summed metrics cover only rows both variants solve, so a
		// budget-exhausted run can't masquerade as a fast one.
		if r.Plain.Reliable && r.Shaped.Reliable {
			st.StepsToFirstReliable += float64(r.Plain.Steps)
			st.TimeToFirstReliableMS += r.Plain.MS
			st.ShapedStepsToFirstReliable += float64(r.Shaped.Steps)
			st.ShapedTimeToFirstReliableMS += r.Shaped.MS
		}
	}
	st.TimeToFirstReliableMS = round2(st.TimeToFirstReliableMS)
	st.ShapedTimeToFirstReliableMS = round2(st.ShapedTimeToFirstReliableMS)
	return st
}

// runHotpath measures the hot-path benchmarks and writes the JSON
// report to path.
func runHotpath(path string) error {
	cur := measureHotpath()
	report := hotpathReport{
		Baseline: hotpathBaseline,
		Current:  cur,
		Speedup: map[string]float64{
			"steps_per_sec":           round2(cur.StepsPerSec / hotpathBaseline.StepsPerSec),
			"ppo_epoch_steps_per_sec": round2(cur.PPOEpochStepsSec / hotpathBaseline.PPOEpochStepsSec),
			"campaign_jobs_per_sec":   round2(cur.CampaignJobsSec / hotpathBaseline.CampaignJobsSec),
			"incremental_search_vs_seed_scan": round2(func() float64 {
				if cur.SearchScanCandsSec == 0 {
					return 0
				}
				return cur.SearchCandsSec / cur.SearchScanCandsSec
			}()),
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("step hot path: %.1f ns/op, %.0f allocs/op (%.2fM steps/s, %.2fx baseline)\n",
		cur.StepNsPerOp, cur.StepAllocsPerOp, cur.StepsPerSec/1e6, cur.StepsPerSec/hotpathBaseline.StepsPerSec)
	fmt.Printf("instrumented step: %.1f ns/op, %.0f allocs/op (%+.1f%% vs uninstrumented)\n",
		cur.InstrumentedStepNs, cur.InstrumentedStepAllocs,
		(cur.InstrumentedStepNs/cur.StepNsPerOp-1)*100)
	fmt.Printf("defended step: %.1f ns/op, %.0f allocs/op (ceaser keyed remap + rekeying)\n",
		cur.DefendedStepNs, cur.DefendedStepAllocs)
	fmt.Printf("shaped step:   %.1f ns/op, %.0f allocs/op (%+.1f%% vs unshaped)\n",
		cur.ShapedStepNs, cur.ShapedStepAllocs, (cur.ShapedStepNs/cur.StepNsPerOp-1)*100)
	fmt.Printf("rollout:       %.0f steps/s\n", cur.RolloutStepsSec)
	fmt.Printf("search (incremental DFS): %.0f cands/s (%.1fx the seed scan's %.0f)\n",
		cur.SearchCandsSec, cur.SearchCandsSec/cur.SearchScanCandsSec, cur.SearchScanCandsSec)
	fmt.Printf("replay key append+load: %.0f ns/op, %.0f allocs/op\n",
		cur.ReplayStateNs, cur.ReplayStateAllocs)
	fmt.Printf("ppo epoch:     %.0f steps/s (%.2fx baseline)\n",
		cur.PPOEpochStepsSec, cur.PPOEpochStepsSec/hotpathBaseline.PPOEpochStepsSec)
	fmt.Printf("apply batch:   %.0f ns/sample\n", cur.ApplyNsPerSample)
	fmt.Printf("grad batch:    %.0f ns/sample\n", cur.GradNsPerSample)
	fmt.Printf("tanh:          %.2f ns/elem, %.0f allocs/op\n", cur.TanhNsPerElem, cur.TanhAllocs)
	fmt.Printf("artifact replay: %.0f ns/op\n", cur.ArtifactReplayNs)
	fmt.Printf("campaign:      %.2f jobs/s (%.2fx baseline)\n",
		cur.CampaignJobsSec, cur.CampaignJobsSec/hotpathBaseline.CampaignJobsSec)
	if cur.StepsToFirstReliable > 0 && cur.ShapedStepsToFirstReliable > 0 {
		fmt.Printf("first reliable attack (plain PPO):  %.0f steps, %.0f ms (shaping suite, 3 seeds each)\n",
			cur.StepsToFirstReliable, cur.TimeToFirstReliableMS)
		fmt.Printf("first reliable attack (shaped PPO): %.0f steps, %.0f ms (%.2fx fewer steps)\n",
			cur.ShapedStepsToFirstReliable, cur.ShapedTimeToFirstReliableMS,
			cur.StepsToFirstReliable/cur.ShapedStepsToFirstReliable)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// hotpathMetric describes one gated metric for -compare.
type hotpathMetric struct {
	name         string
	get          func(*hotpathStats) float64
	higherBetter bool
}

var hotpathMetrics = []hotpathMetric{
	{"steps_per_sec", func(s *hotpathStats) float64 { return s.StepsPerSec }, true},
	{"instrumented_step_ns", func(s *hotpathStats) float64 { return s.InstrumentedStepNs }, false},
	{"defended_step_ns", func(s *hotpathStats) float64 { return s.DefendedStepNs }, false},
	{"shaped_step_ns", func(s *hotpathStats) float64 { return s.ShapedStepNs }, false},
	{"rollout_steps_per_sec", func(s *hotpathStats) float64 { return s.RolloutStepsSec }, true},
	{"search_candidates_per_sec", func(s *hotpathStats) float64 { return s.SearchCandsSec }, true},
	{"search_scan_candidates_per_sec", func(s *hotpathStats) float64 { return s.SearchScanCandsSec }, true},
	{"replay_state_ns", func(s *hotpathStats) float64 { return s.ReplayStateNs }, false},
	{"ppo_epoch_steps_per_sec", func(s *hotpathStats) float64 { return s.PPOEpochStepsSec }, true},
	{"campaign_jobs_per_sec_4workers", func(s *hotpathStats) float64 { return s.CampaignJobsSec }, true},
	{"apply_batch_ns_per_sample", func(s *hotpathStats) float64 { return s.ApplyNsPerSample }, false},
	{"grad_batch_ns_per_sample", func(s *hotpathStats) float64 { return s.GradNsPerSample }, false},
	{"tanh_ns_per_elem", func(s *hotpathStats) float64 { return s.TanhNsPerElem }, false},
	{"artifact_replay_ns", func(s *hotpathStats) float64 { return s.ArtifactReplayNs }, false},
	{"steps_to_first_reliable", func(s *hotpathStats) float64 { return s.StepsToFirstReliable }, false},
	{"shaped_steps_to_first_reliable", func(s *hotpathStats) float64 { return s.ShapedStepsToFirstReliable }, false},
	{"time_to_first_reliable_ms", func(s *hotpathStats) float64 { return s.TimeToFirstReliableMS }, false},
	{"shaped_time_to_first_reliable_ms", func(s *hotpathStats) float64 { return s.ShapedTimeToFirstReliableMS }, false},
}

// runCompare re-measures the hot path and compares against the
// "current" block of a previously written report, printing per-metric
// deltas. It returns an error (non-zero exit) when any throughput
// metric degrades by more than tolerance (fraction, e.g. 0.15), any
// ns-metric inflates by more than tolerance, or the step loop's
// allocs/op grows at all (allocation regressions are machine-independent
// and gated strictly).
func runCompare(path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var ref hotpathReport
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("compare: %s: %w", path, err)
	}
	cur := measureHotpath()
	fmt.Printf("\ncomparing against %s (tolerance %.0f%%):\n", path, tolerance*100)
	var failures []string
	for _, m := range hotpathMetrics {
		was, now := m.get(&ref.Current), m.get(&cur)
		if was == 0 {
			fmt.Printf("  %-32s %12.4g  (no reference)\n", m.name, now)
			continue
		}
		delta := (now - was) / was
		// Gate on the worsening ratio, not the fractional delta: a
		// fractional drop saturates at -100%, so large tolerances (CI's
		// cross-machine 3.0) would never fire on throughput metrics.
		worse := was / now // throughput: >1 means slower
		if !m.higherBetter {
			worse = now / was // latency: >1 means slower
		}
		status := "ok"
		if worse > 1+tolerance {
			status = "REGRESSION"
			failures = append(failures, m.name)
		}
		fmt.Printf("  %-32s %12.4g -> %12.4g  (%+.1f%%)  %s\n", m.name, was, now, delta*100, status)
	}
	allocGates := []struct {
		name     string
		was, now float64
	}{
		{"step_allocs_per_op", ref.Current.StepAllocsPerOp, cur.StepAllocsPerOp},
		{"instrumented_step_allocs_per_op", ref.Current.InstrumentedStepAllocs, cur.InstrumentedStepAllocs},
		{"defended_step_allocs_per_op", ref.Current.DefendedStepAllocs, cur.DefendedStepAllocs},
		{"shaped_step_allocs_per_op", ref.Current.ShapedStepAllocs, cur.ShapedStepAllocs},
		{"replay_state_allocs_per_op", ref.Current.ReplayStateAllocs, cur.ReplayStateAllocs},
		{"tanh_allocs_per_op", ref.Current.TanhAllocs, cur.TanhAllocs},
	}
	for _, g := range allocGates {
		if g.now > g.was {
			fmt.Printf("  %-32s %12g -> %12g  REGRESSION (strict)\n", g.name, g.was, g.now)
			failures = append(failures, g.name)
		} else {
			fmt.Printf("  %-32s %12g -> %12g  ok (strict)\n", g.name, g.was, g.now)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("hot-path regression in: %v", failures)
	}
	fmt.Println("no regressions")
	return nil
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
