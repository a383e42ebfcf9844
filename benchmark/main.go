// Command benchmark runs one named workload of the repository benchmark:
// it generates the workload's inputs from a seed, sets up several times,
// measures for a fixed time through the public entry points of each
// layer, checks the outputs, and prints every metric with its unit. The
// last line of output is a JSON result object. See README.md.
//
//	bash benchmark/run.sh --workload screen --seed 1 --seconds 15 --trace 0
//
// Results vary by machine; compare runs only on the same one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"autocat/internal/nn"
	"autocat/internal/obs"
)

// workload is one named input set.
type workload interface {
	// setup builds everything a run of length d needs — generated
	// inputs, stores, listeners — under dir.
	setup(seed int64, d time.Duration, dir string) (instance, error)
}

// instance is one set-up workload, run once.
type instance interface {
	// measure runs the workload until d has passed, recording spans into
	// tr when tr is non-nil. It is the only timed part.
	measure(ctx context.Context, d time.Duration, tr *tracer) (measurement, error)
	// verify checks the outputs of the run.
	verify(tr *tracer) (verdict, error)
	// layer adds the per-layer metrics the workload measures itself. It
	// runs after the registry deltas are in m.
	layer(m map[string]float64, notes map[string]string)
	close() error
}

// measurement is the timed part's throughput and cost.
type measurement struct {
	ops      float64 // ops completed
	rate     float64 // ops per second
	cpuPerOp float64 // process CPU milliseconds per op
	note     string  // how rate and cpuPerOp were formed, with their sample counts
}

// verdict counts the operations checked and the ones that failed.
type verdict struct {
	attempted, failed int
	problems          []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < 10 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// workloads are the benchmark's named input sets; README.md says why
// each was chosen.
var workloads = map[string]workload{
	"screen":     screenWorkload{grid: screenGrid()},
	"screen-rng": screenWorkload{grid: screenRNGGrid()},
	"train":      trainWorkload{scenarios: trainScenarios()},
	"serve":      defaultServeWorkload(),
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

func main() {
	start := time.Now()
	os.Exit(run(os.Args[1:], start, os.Stdout, os.Stderr))
}

func run(args []string, start time.Time, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long the timed part runs")
	trace := fs.Int("trace", 0, "1: rerun the workload with spans and print the per-layer metrics instead")
	workdir := fs.String("workdir", "", "directory for the run's files and the trace (default: the system temp directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{name: *name, seed: *seed, d: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, workdir: *workdir, start: start}
	res, err := runBenchmark(cfg, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type config struct {
	name    string
	seed    int64
	d       time.Duration
	trace   bool
	workdir string
	start   time.Time // process start: the first set-up is timed from here
}

// pass is one run of the timed part and its checks.
type pass struct {
	m     measurement
	wall  time.Duration
	v     verdict
	delta obsDelta
}

// runBenchmark sets up, runs the workload untraced for the end-to-end
// metrics and, with cfg.trace, once more traced for the per-layer ones.
func runBenchmark(cfg config, w workload, out io.Writer) (result, error) {
	if cfg.workdir == "" {
		cfg.workdir = os.TempDir()
	}
	printFingerprint(out)
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%v\n", cfg.name, cfg.seed, cfg.d.Seconds(), cfg.trace)
	dir, err := os.MkdirTemp(cfg.workdir, "autocat-bench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	var times []float64
	var inst instance
	for i := range setups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		if inst, err = setUp(w, cfg, filepath.Join(dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return result{}, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	plain, err := runPass(inst, cfg.d, nil)
	if err != nil {
		return result{}, err
	}

	e2e := map[string]float64{}
	notes := map[string]string{}
	e2e["setup_s"] = quantile(times, 0.5)
	notes["setup_s"] = fmt.Sprintf("(median of %d set-ups)", len(times))
	e2e["ops_per_s"] = plain.m.rate
	notes["ops_per_s"] = plain.m.note
	e2e["cpu_ms_per_op"] = plain.m.cpuPerOp
	notes["cpu_ms_per_op"] = plain.m.note
	fmt.Fprintln(out, "end-to-end (untraced):")
	printMetrics(out, endToEnd, e2e, notes)
	res := result{Attempted: plain.v.attempted, Failed: plain.v.failed}
	printVerdict(out, plain.v)
	if !cfg.trace {
		res.Correct = res.Failed == 0
		res.Metrics = metricValues(endToEnd, e2e)
		return res, nil
	}

	// The traced pass runs on a fresh set-up, so the service's result
	// memo and the catalog start empty again.
	inst, err = setUp(w, cfg, filepath.Join(dir, "traced"))
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := runPass(inst, cfg.d, tr)
	if err != nil {
		return result{}, err
	}
	layer := map[string]float64{}
	notes = map[string]string{}
	layerFromObs(traced.delta, layer)
	inst.layer(layer, notes)
	spans := tr.finish()
	layerFromSpans(tr, traced.wall, layer, notes)
	if layer["process.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return result{}, err
	}
	layer["trace.overhead_ratio"] = ratio(plain.m.rate, traced.m.rate)
	layer["trace.spans"] = float64(len(spans))
	fmt.Fprintln(out, "per-layer (traced):")
	printMetrics(out, perLayer, layer, notes)
	printSpanSummary(out, spans)
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.name, cfg.seed))
	if err := writeTrace(path, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", len(spans), path)
	printVerdict(out, traced.v)
	res.Attempted += traced.v.attempted
	res.Failed += traced.v.failed
	res.Correct = res.Failed == 0
	res.Metrics = metricValues(perLayer, layer)
	return res, nil
}

// setUp warms the process up against a throwaway service and sets the
// workload up under dir.
func setUp(w workload, cfg config, dir string) (instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := warmUp(); err != nil {
		return nil, err
	}
	return w.setup(cfg.seed, cfg.d, dir)
}

// runPass runs the timed part once, checks its outputs and closes the
// instance. The registry delta covers only the timed part.
func runPass(inst instance, d time.Duration, tr *tracer) (p pass, err error) {
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()
	before := obs.TakeSnapshot()
	t0 := time.Now()
	p.m, err = inst.measure(context.Background(), d, tr)
	p.wall = time.Since(t0)
	p.delta = diffSnapshots(before, obs.TakeSnapshot())
	if err != nil {
		return p, err
	}
	p.v, err = inst.verify(tr)
	return p, err
}

// layerFromSpans derives the campaign layer's timings from the spans
// around each runner call and each runner-return-to-delivery gap.
func layerFromSpans(tr *tracer, wall time.Duration, m map[string]float64, notes map[string]string) {
	jobs := tr.durations("campaign.job")
	deliver := tr.durations("campaign.deliver")
	m["campaign.job_ms_p50"] = quantile(jobs, 0.5)
	m["campaign.job_ms_p95"] = quantile(jobs, 0.95)
	m["campaign.job_ms_sum"] = sum(jobs)
	m["campaign.busy_ratio"] = ratio(sum(jobs), float64(nn.KernelWorkers())*float64(wall.Nanoseconds())/1e6)
	m["campaign.deliver_ms_p50"] = quantile(deliver, 0.5)
	m["campaign.deliver_ms_p95"] = quantile(deliver, 0.95)
	for _, name := range []string{"campaign.job_ms_p50", "campaign.job_ms_p95"} {
		notes[name] = fmt.Sprintf("(n=%d)", len(jobs))
	}
	for _, name := range []string{"campaign.deliver_ms_p50", "campaign.deliver_ms_p95"} {
		notes[name] = fmt.Sprintf("(n=%d)", len(deliver))
	}
}

func metricValues(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// printVerdict prints the pass's error rate and its first failures.
func printVerdict(w io.Writer, v verdict) {
	fmt.Fprintf(w, "checked %d operations, %d failed\n", v.attempted, v.failed)
	for _, p := range v.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	if v.failed > len(v.problems) {
		fmt.Fprintf(w, "FAILED: … and %d more\n", v.failed-len(v.problems))
	}
}
