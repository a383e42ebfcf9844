// Command autocat-campaign runs scenario-sweep campaigns: it expands a
// declarative grid spec into exploration jobs, executes them on a
// bounded worker pool, deduplicates the discovered attacks in the
// sharded catalog, and checkpoints results so an interrupted campaign
// resumes with -resume.
//
// The grid comes either from a JSON spec file (-spec) or from the grid
// flags; -dump-spec prints the assembled spec as JSON for editing.
//
// Examples:
//
//	autocat-campaign -policies lru,plru -prefetchers none,nextline \
//	    -blocks 4 -ways 4 -attackers 0-3 -victims 0-0 -flush -no-access \
//	    -seeds 1,2 -epochs 30 -workers 4
//	autocat-campaign -spec sweep.json -workers 8 -resume
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autocat"
)

func main() {
	fs := flag.NewFlagSet("autocat-campaign", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file (overrides the grid flags)")
	dumpSpec := fs.Bool("dump-spec", false, "print the assembled spec as JSON and exit")
	workers := fs.Int("workers", runtime.NumCPU(), "worker pool size")
	checkpoint := fs.String("checkpoint", "campaign.jsonl", "JSONL results file (empty disables persistence)")
	resume := fs.Bool("resume", false, "skip jobs already recorded in the checkpoint")
	scale := fs.Float64("scale", 1, "epoch budget multiplier")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines")
	explorers := fs.String("explorers", "", "comma-separated exploration backends (ppo,search,probe): a grid axis, or the stage order with -stages (which also accepts the shaped-ppo stage kind)")
	stages := fs.Bool("stages", false, "staged escalation: run -explorers in order, each later stage only on jobs the previous stage left at chance")
	artifacts := fs.String("artifacts", "", "artifact-store directory: persist every reliable attack as a content-addressed, replayable artifact (empty disables)")
	searchBudget := fs.Int("search-budget", 0, "search explorer: candidate sequences per prefix length (0 = default 4096)")
	searchMaxLen := fs.Int("search-max-len", 0, "search explorer: longest prefix tried (0 = auto)")
	debugAddr := fs.String("debug-addr", "", "serve a live JSON metrics snapshot at /metrics and pprof at /debug/pprof on this address (empty disables)")
	journalPath := fs.String("journal", "auto", "telemetry journal path; 'auto' writes telemetry.jsonl next to the checkpoint, 'off' disables")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job deadline; a timed-out job records a retryable error (0 disables)")
	retries := fs.Int("retries", 1, "max attempts per job; transient failures (panic, timeout, I/O) retry with backoff")
	retryBackoff := fs.Duration("retry-backoff", 0, "base delay before the first retry, doubled per attempt (0 = 100ms)")
	retryFailed := fs.Bool("retry-failed", false, "with -resume: re-dispatch every checkpointed failure, retryable or not")

	// Grid flags, used when -spec is absent.
	name := fs.String("name", "cli", "campaign name")
	blocks := fs.Int("blocks", 4, "cache blocks per geometry")
	ways := fs.Int("ways", 4, "cache ways per geometry")
	policies := fs.String("policies", "lru", "comma-separated replacement policies (lru,plru,rrip,random)")
	prefetchers := fs.String("prefetchers", "none", "comma-separated prefetchers (none,nextline,stream)")
	attackers := fs.String("attackers", "0-3", "comma-separated attacker address ranges (lo-hi)")
	victims := fs.String("victims", "0-0", "comma-separated victim address ranges (lo-hi)")
	detectors := fs.String("detectors", "", "comma-separated detectors (none,missbased,cchunter)")
	defenses := fs.String("defenses", "", "comma-separated defenses (none,plcache,ceaser,skew,partition)")
	rekeyPeriods := fs.String("rekey-periods", "", "comma-separated CEASER rekey periods in accesses (e.g. 0,64; parameterizes the ceaser defense only)")
	stepRewards := fs.String("step-rewards", "", "comma-separated step-reward axis (e.g. -0.02,-0.01)")
	shapings := fs.String("shapings", "", "comma-separated useless-action shaping axis (off,on); on applies the default penalties")
	seeds := fs.String("seeds", "1", "comma-separated seed axis")
	flush := fs.Bool("flush", true, "enable the flush instruction")
	noAccess := fs.Bool("no-access", true, "victim may make no access (0/E secrets)")
	window := fs.Int("window", 0, "observation window (0 = auto)")
	warmup := fs.Int("warmup", 0, "random warm-up accesses per episode (0 = auto, negative disables)")
	epochs := fs.Int("epochs", 60, "full-scale training epochs per job")
	steps := fs.Int("steps-per-epoch", 3000, "PPO steps per epoch")
	fs.Parse(os.Args[1:])

	spec, err := buildSpec(*specPath, gridFlags{
		name: *name, blocks: *blocks, ways: *ways,
		policies: *policies, prefetchers: *prefetchers,
		attackers: *attackers, victims: *victims,
		detectors: *detectors, defenses: *defenses,
		rekeyPeriods: *rekeyPeriods,
		stepRewards:  *stepRewards, shapings: *shapings, seeds: *seeds,
		flush: *flush, noAccess: *noAccess,
		window: *window, warmup: *warmup, epochs: *epochs, steps: *steps,
	})
	if err != nil {
		fatal(err)
	}
	if *dumpSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(spec); err != nil {
			fatal(err)
		}
		return
	}

	expList := splitCSV(*explorers)
	if !*stages && len(expList) > 0 {
		// Without -stages the explorer list is a plain grid axis.
		spec.Explorers = append(spec.Explorers, expList...)
	}

	jobs, skipped, err := spec.Expand()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("campaign %q: %d jobs (%d invalid grid points skipped), %d workers\n",
		spec.Name, len(jobs), skipped, *workers)

	// Ctrl-C stops dispatch; in-flight jobs finish and checkpoint, so a
	// later -resume run picks up cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Deterministic chaos: an AUTOCAT_FAULTS plan injects failures at
	// named sites so the fault-tolerance path can be exercised end to
	// end (CI does exactly this). Loud on purpose — an armed plan in a
	// real campaign is almost certainly a leftover environment variable.
	if plan, err := autocat.ArmFaultsFromEnv(); err != nil {
		fatal(err)
	} else if plan != "" {
		fmt.Printf("WARNING: fault injection armed via %s=%q\n", autocat.FaultsEnvVar, plan)
	}

	ro := autocat.CampaignRunnerOptions{
		Scale:  *scale,
		Search: autocat.SearchBackendOptions{Budget: *searchBudget, MaxLen: *searchMaxLen},
	}
	if *artifacts != "" {
		store, err := autocat.OpenArtifactStore(*artifacts)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		ro.Artifacts = store
	}
	rc := autocat.CampaignRunConfig{
		Workers:     *workers,
		Checkpoint:  *checkpoint,
		Resume:      *resume,
		Runner:      autocat.NewCampaignRunner(ro),
		JobTimeout:  *jobTimeout,
		Retry:       autocat.CampaignRetryPolicy{MaxAttempts: *retries, BaseBackoff: *retryBackoff},
		RetryFailed: *retryFailed,
	}
	if !*quiet {
		rc.Progress = autocat.CampaignWriterProgress(os.Stdout)
	}

	if *debugAddr != "" {
		ds, err := autocat.StartDebugServer(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Printf("debug endpoint: http://%s/metrics (pprof under /debug/pprof/)\n", ds.Addr())
	}
	switch *journalPath {
	case "off", "none", "":
	default:
		path := *journalPath
		if path == "auto" {
			if *checkpoint == "" {
				break // no run directory to anchor the journal in
			}
			path = filepath.Join(filepath.Dir(*checkpoint), "telemetry.jsonl")
		}
		j, err := autocat.OpenJournal(path)
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		rc.Journal = j
	}

	if *stages {
		if len(expList) == 0 {
			// Default escalation: cheap search first, then shaped PPO
			// (fewer env steps to a first reliable attack), plain PPO
			// last as the unshaped safety net.
			expList = []string{
				autocat.CampaignExplorerSearch,
				autocat.CampaignExplorerShapedPPO,
				autocat.CampaignExplorerPPO,
			}
		}
		staged, err := autocat.RunStagedCampaign(ctx, spec, rc, expList)
		if staged != nil {
			printStagedSummary(staged)
		}
		if err != nil {
			// Only a cancellation is resumable; configuration errors
			// (unknown explorer kinds, bad specs) would fail identically.
			if ctx.Err() != nil {
				fmt.Printf("interrupted (%v); rerun with -resume to continue\n", err)
				os.Exit(1)
			}
			fatal(err)
		}
		return
	}

	res, err := autocat.RunCampaign(ctx, spec, rc)
	if err != nil && res == nil {
		fatal(err)
	}
	printSummary(res)
	if err != nil {
		fmt.Printf("interrupted (%v): %d/%d jobs done; rerun with -resume to continue\n",
			err, res.Resumed+res.Completed, len(res.Jobs))
		os.Exit(1)
	}
}

// printStagedSummary renders per-stage job tables plus the merged
// catalog of a staged escalation run.
func printStagedSummary(staged *autocat.CampaignStagedResult) {
	for i, stage := range staged.Stages {
		label := stage.Explorer
		if label == "" {
			label = autocat.CampaignExplorerPPO
		}
		fmt.Printf("\n=== stage %d (%s): %d jobs ===\n", i+1, label, len(stage.Result.Jobs))
		printSummary(stage.Result)
	}
	for i, n := range staged.Escalated {
		fmt.Printf("escalated to stage %d: %d of %d jobs\n", i+2, n, staged.Jobs)
	}
	fmt.Printf("merged catalog: %d distinct attacks\n", staged.Catalog.Len())
}

type gridFlags struct {
	name                          string
	blocks, ways                  int
	policies, prefetchers         string
	attackers, victims            string
	detectors, defenses           string
	rekeyPeriods                  string
	stepRewards, shapings, seeds  string
	flush, noAccess               bool
	window, warmup, epochs, steps int
}

func buildSpec(path string, g gridFlags) (autocat.CampaignSpec, error) {
	if path != "" {
		blob, err := os.ReadFile(path)
		if err != nil {
			return autocat.CampaignSpec{}, err
		}
		var spec autocat.CampaignSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			return autocat.CampaignSpec{}, fmt.Errorf("parsing %s: %w", path, err)
		}
		return spec, nil
	}

	spec := autocat.CampaignSpec{
		Name:           g.name,
		Caches:         []autocat.CacheConfig{{NumBlocks: g.blocks, NumWays: g.ways}},
		FlushEnable:    g.flush,
		VictimNoAccess: g.noAccess,
		WindowSize:     g.window,
		Warmup:         g.warmup,
		Epochs:         g.epochs,
		StepsPerEpoch:  g.steps,
	}
	for _, p := range splitCSV(g.policies) {
		spec.Policies = append(spec.Policies, autocat.PolicyKind(p))
	}
	for _, p := range splitCSV(g.prefetchers) {
		spec.Prefetchers = append(spec.Prefetchers, autocat.PrefetcherKind(p))
	}
	var err error
	if spec.Attackers, err = parseRanges(g.attackers); err != nil {
		return spec, fmt.Errorf("-attackers: %w", err)
	}
	if spec.Victims, err = parseRanges(g.victims); err != nil {
		return spec, fmt.Errorf("-victims: %w", err)
	}
	for _, d := range splitCSV(g.detectors) {
		if d == "none" {
			d = ""
		}
		spec.Detectors = append(spec.Detectors, d)
	}
	for _, d := range splitCSV(g.defenses) {
		if d == "none" {
			d = ""
		}
		spec.Defenses = append(spec.Defenses, d)
	}
	for _, s := range splitCSV(g.rekeyPeriods) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return spec, fmt.Errorf("-rekey-periods: %w", err)
		}
		spec.RekeyPeriods = append(spec.RekeyPeriods, v)
	}
	for _, s := range splitCSV(g.stepRewards) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return spec, fmt.Errorf("-step-rewards: %w", err)
		}
		spec.StepRewards = append(spec.StepRewards, v)
	}
	for _, s := range splitCSV(g.shapings) {
		switch s {
		case "off", "none":
			spec.Shapings = append(spec.Shapings, autocat.Shaping{})
		case "on", "default":
			spec.Shapings = append(spec.Shapings, autocat.DefaultShaping())
		default:
			return spec, fmt.Errorf("-shapings: unknown value %q (want off or on)", s)
		}
	}
	for _, s := range splitCSV(g.seeds) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("-seeds: %w", err)
		}
		spec.Seeds = append(spec.Seeds, v)
	}
	return spec, nil
}

func splitCSV(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

// parseRanges parses "0-3,4-7" into address ranges; a bare number is a
// single-address range.
func parseRanges(s string) ([]autocat.CampaignAddrRange, error) {
	var out []autocat.CampaignAddrRange
	for _, part := range splitCSV(s) {
		lo, hi, found := strings.Cut(part, "-")
		if !found {
			hi = lo
		}
		l, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return nil, fmt.Errorf("bad range %q", part)
		}
		h, err := strconv.Atoi(strings.TrimSpace(hi))
		if err != nil {
			return nil, fmt.Errorf("bad range %q", part)
		}
		out = append(out, autocat.CampaignAddrRange{Lo: l, Hi: h})
	}
	return out, nil
}

func printSummary(res *autocat.CampaignResult) {
	fmt.Printf("\n%-40s %-9s %8s %7s  %s\n", "Scenario", "Converged", "Accuracy", "Time", "Attack (category)")
	for _, jr := range res.Jobs {
		if jr.JobID == "" {
			fmt.Printf("%-40s (not run)\n", jr.Name)
			continue
		}
		if jr.Error != "" {
			fmt.Printf("%-40s error: %s\n", jr.Name, jr.Error)
			continue
		}
		attack := "-"
		if jr.Sequence != "" {
			attack = fmt.Sprintf("%s (%s)", jr.Sequence, jr.Category)
		}
		fmt.Printf("%-40s %-9v %8.3f %6.1fs  %s\n",
			jr.Name, jr.Converged, jr.Accuracy, float64(jr.DurationMS)/1000, attack)
	}

	total, _ := res.Catalog.Stats()
	fmt.Printf("\ncatalog: %d distinct attacks, %d rediscoveries, %d jobs run, %d resumed, %d failed, %s elapsed\n",
		total.Entries, total.Hits, res.Completed, res.Resumed, res.Failed,
		res.Elapsed.Round(100*time.Millisecond))
	for _, e := range res.Catalog.Entries() {
		fmt.Printf("  %3d× %-28s %-24s best acc %.3f  e.g. %s\n",
			e.Count, e.Category, e.Key, e.BestAccuracy, e.Sequence)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autocat-campaign:", err)
	os.Exit(1)
}
