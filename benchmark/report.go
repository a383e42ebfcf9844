package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autocat/internal/obs"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; benchmark_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. An "op" is a campaign job on screen, screen-rng and
// serve, and an environment step on train.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer are the single-layer metrics, printed by every traced run
// (zero where a workload does not reach the layer).
var perLayer = []metricDef{
	{"campaign.jobs", "count"},
	{"campaign.jobs_failed", "count"},
	{"campaign.retries", "count"},
	{"campaign.job_ms_p50", "ms"},
	{"campaign.job_ms_p95", "ms"},
	{"campaign.job_ms_sum", "ms"},
	{"campaign.busy_ratio", "ratio"},
	{"campaign.deliver_ms_p50", "ms"},
	{"campaign.deliver_ms_p95", "ms"},
	{"campaign.checkpoint_bytes", "bytes"},
	{"catalog.attacks_found", "count"},
	{"catalog.novel", "count"},
	{"catalog.rediscoveries", "count"},
	{"catalog.evictions", "count"},
	{"artifact.count", "count"},
	{"artifact.replay_ms_mean", "ms"},
	{"core.explorations", "count"},
	{"core.replays", "count"},
	{"env.steps", "count"},
	{"env.episodes", "count"},
	{"env.useless_ratio", "ratio"},
	{"cache.accesses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.rekeys", "count"},
	{"rl.trainings", "count"},
	{"rl.first_reliable_s", "s"},
	{"rl.first_reliable_steps", "steps"},
	{"rl.epochs", "count"},
	{"rl.steps", "steps"},
	{"rl.epoch_ms_sum", "ms"},
	{"rl.epoch_ms_mean", "ms"},
	{"rl.eval_ms_sum", "ms"},
	{"rl.epoch_share", "ratio"},
	{"sched.token_waits", "count"},
	{"sched.token_wait_ms_sum", "ms"},
	{"sched.extra_grants", "count"},
	{"sched.extra_denials", "count"},
	{"serve.campaigns", "count"},
	{"serve.jobs_submitted", "count"},
	{"serve.jobs_executed", "count"},
	{"serve.dedup_ratio", "ratio"},
	{"serve.singleflight_hits", "count"},
	{"serve.result_cache_hits", "count"},
	{"serve.rejected", "count"},
	{"serve.stream_lines", "count"},
	{"serve.first_result_ms_p50", "ms"},
	{"serve.first_result_ms_p95", "ms"},
	{"serve.campaign_ms_p50", "ms"},
	{"serve.campaign_ms_p95", "ms"},
	{"process.peak_rss_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// obsDelta is the change of the program's own metrics registry over one
// run: counters and histogram sums and counts.
type obsDelta struct {
	counters  map[string]float64
	histSum   map[string]float64
	histCount map[string]float64
}

func diffSnapshots(before, after obs.Snapshot) obsDelta {
	d := obsDelta{counters: map[string]float64{}, histSum: map[string]float64{}, histCount: map[string]float64{}}
	for name, v := range after.Counters {
		d.counters[name] = float64(v - before.Counters[name])
	}
	for name, h := range after.Histograms {
		d.histSum[name] = float64(h.Sum - before.Histograms[name].Sum)
		d.histCount[name] = float64(h.Count - before.Histograms[name].Count)
	}
	return d
}

// layerFromObs maps the registry deltas onto per-layer metrics.
func layerFromObs(d obsDelta, m map[string]float64) {
	c := d.counters
	m["campaign.jobs"] = c["campaign.jobs_done_total"]
	m["campaign.jobs_failed"] = c["campaign.jobs_failed_total"]
	m["campaign.retries"] = c["campaign.job_retries_total"]
	m["catalog.novel"] = c["catalog.novel_total"]
	m["catalog.rediscoveries"] = c["catalog.rediscoveries_total"]
	m["catalog.evictions"] = c["catalog.evictions_total"]
	m["core.explorations"] = c["core.explorations_total"]
	m["core.replays"] = c["core.replays_total"]
	m["env.steps"] = c["env.steps_total"]
	m["env.episodes"] = c["env.episodes_total"]
	m["env.useless_ratio"] = ratio(c["env.noop_accesses_total"]+c["env.redundant_flushes_total"]+c["env.wasted_triggers_total"], c["env.steps_total"])
	m["cache.accesses"] = c["cache.accesses_total"]
	m["cache.hit_ratio"] = ratio(c["cache.hits_total"], c["cache.accesses_total"])
	m["cache.rekeys"] = c["cache.rekeys_total"]
	m["rl.epochs"] = c["ppo.epochs_total"]
	m["rl.steps"] = c["ppo.steps_total"]
	m["rl.epoch_ms_sum"] = d.histSum["ppo.epoch_ns"] / 1e6
	m["rl.epoch_ms_mean"] = ratio(d.histSum["ppo.epoch_ns"]/1e6, d.histCount["ppo.epoch_ns"])
	m["sched.token_waits"] = c["sched.token_waits_total"]
	m["sched.token_wait_ms_sum"] = d.histSum["sched.token_wait_ns"] / 1e6
	m["sched.extra_grants"] = c["sched.extra_token_grants_total"]
	m["sched.extra_denials"] = c["sched.extra_token_denials_total"]
	m["serve.singleflight_hits"] = c["serve.singleflight_hits_total"]
	m["serve.result_cache_hits"] = c["serve.result_cache_hits_total"]
	m["serve.rejected"] = c["serve.campaigns_rejected_total"]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// printFingerprint prints what a reader needs to judge whether two runs
// are comparable: the CPU, its count, the Go runtime and the source
// revision. Results vary by machine.
func printFingerprint(w io.Writer) {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += " (modified)"
			}
		}
	}
	fmt.Fprintf(w, "fingerprint: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// printMetrics prints one line per metric, in table order, with its unit
// and, where the workload gave one, the sample count behind it.
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64, notes map[string]string) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %16.6g %-6s %s\n", d.name, values[d.name], d.unit, notes[d.name])
	}
}

// printResult prints the result object as the last line of output.
func printResult(w io.Writer, r result) error {
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
