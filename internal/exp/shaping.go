package exp

// Sample-efficiency comparison for useless-action reward shaping: train
// the same scenarios with and without shaping penalties and measure
// environment steps and wall-clock to the *first reliable attack*
// (first epoch whose greedy policy meets the accuracy target with
// positive return and extracts a correct sequence). Shaping is a
// training-time signal only — both variants are evaluated on the
// unshaped game — so fewer steps to the same reliable attack is a pure
// sample-efficiency win.
//
// The suite runs the narrow, reliably-learnable configuration of each
// Table IV attack category (eviction-based prime+probe, flush+reload,
// set-conflict prime+probe) rather than the wide Table IV rows
// themselves: the wide rows sit at chance under this reproduction's PPO
// budgets (see the learning-gate notes in internal/rl), and a
// comparison between two budget-exhausted runs measures nothing. Each
// scenario aggregates over three seeds so a single lucky training run
// cannot decide the comparison.

import (
	"context"
	"fmt"
	"time"

	"autocat/internal/cache"
	"autocat/internal/core"
	"autocat/internal/env"
	"autocat/internal/rl"
)

// FirstReliableResult records what one training run spent to reach its
// first reliable attack.
type FirstReliableResult struct {
	// Reliable reports whether a reliable attack was reached within the
	// epoch budget; when false the other fields cover the whole budget.
	Reliable bool
	// Steps is the number of environment transitions collected up to
	// and including the first reliable epoch.
	Steps int
	// Epochs is the number of training epochs run.
	Epochs int
	// MS is the wall-clock spent, in milliseconds, including the
	// per-epoch greedy evaluations and the successful extraction.
	MS float64
	// UselessRate is the useless-classified fraction of the collected
	// steps (classification runs for shaped and plain training alike).
	UselessRate float64
}

// FirstReliable trains cfg epoch by epoch and stops at the first epoch
// whose greedy policy is reliable: evaluation accuracy meets the PPO
// target with positive mean return AND a correct attack extracts. This
// is deliberately stricter than a single lucky evaluation (extraction
// replays deterministically) and cheaper than full convergence (no
// ConvergeEpochs streak) — it is the moment a campaign could bank the
// attack and stop paying for training.
func FirstReliable(ctx context.Context, cfg core.Config) (FirstReliableResult, error) {
	ex, err := core.New(cfg)
	if err != nil {
		return FirstReliableResult{}, err
	}
	target := cfg.PPO.TargetAccuracy
	if target == 0 {
		target = 0.95
	}
	evalN := cfg.PPO.EvalEpisodes
	if evalN == 0 {
		evalN = 64
	}
	maxEpochs := cfg.PPO.MaxEpochs
	if maxEpochs == 0 {
		maxEpochs = 100
	}
	t := ex.Trainer()
	var r FirstReliableResult
	useless := 0.0
	start := time.Now()
	for epoch := 1; epoch <= maxEpochs && ctx.Err() == nil; epoch++ {
		st := t.Epoch(epoch)
		r.Epochs = epoch
		r.Steps += st.Steps
		useless += st.UselessRate * float64(st.Steps)
		ev := rl.Evaluate(ex.Net(), ex.Env(), evalN)
		if ev.Accuracy >= target && ev.MeanReturn > 0 {
			if _, ok := rl.ExtractAttack(ex.Net(), ex.Env(), 64); ok {
				r.Reliable = true
				break
			}
		}
	}
	r.MS = float64(time.Since(start).Nanoseconds()) / 1e6
	if r.Steps > 0 {
		r.UselessRate = useless / float64(r.Steps)
	}
	return r, nil
}

// shapingScenario is one row of the shaping suite: a narrow, learnable
// configuration standing in for a Table IV attack category.
type shapingScenario struct {
	Name     string
	Category string // Table IV expected-category label
	Env      env.Config
	Epochs   int // full-scale epoch budget
}

// ShapingScenarios returns the shaped-vs-plain comparison suite: the
// reliably-learnable narrow form of each Table IV attack category.
func ShapingScenarios() []shapingScenario {
	return []shapingScenario{
		{Name: "pp-onebit", Category: "PP", Epochs: 60, Env: env.Config{
			Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
			AttackerLo: 1, AttackerHi: 1, VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true, WindowSize: 6, Warmup: -1,
		}},
		{Name: "fr-shared", Category: "FR/LRU", Epochs: 60, Env: env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.LRU},
			AttackerLo: 0, AttackerHi: 0, VictimLo: 0, VictimHi: 0,
			FlushEnable: true, VictimNoAccess: true, WindowSize: 8,
		}},
		{Name: "pp-fa2", Category: "PP/LRU", Epochs: 80, Env: env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.LRU},
			AttackerLo: 1, AttackerHi: 2, VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true, WindowSize: 8,
		}},
		{Name: "pp-dm2", Category: "PP", Epochs: 80, Env: env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 1, Policy: cache.LRU},
			AttackerLo: 2, AttackerHi: 3, VictimLo: 0, VictimHi: 1,
			WindowSize: 10,
		}},
	}
}

// shapingSeeds are the per-scenario training replicates; results
// aggregate across them so one lucky run cannot decide a row.
var shapingSeeds = []int64{101, 202, 303}

// ShapingRow pairs the seed-aggregated plain and shaped measurements
// for one suite scenario.
type ShapingRow struct {
	Name     string
	Category string
	Plain    FirstReliableResult
	Shaped   FirstReliableResult
}

// ShapingRows measures steps/wall-clock to first reliable attack with
// and without shaping across the suite. Both variants share each seed
// and differ only in the Shaping config; the fixed default PPO shard
// count keeps step counts machine-independent. Per-variant fields sum
// Steps/MS over the seeds (Reliable is the AND; UselessRate is
// step-weighted).
func ShapingRows(ctx context.Context, o Options) ([]ShapingRow, error) {
	o = o.withDefaults()
	aggregate := func(cfg env.Config, epochs int) (FirstReliableResult, error) {
		var agg FirstReliableResult
		agg.Reliable = true
		useless := 0.0
		for _, seed := range shapingSeeds {
			c := cfg
			c.Seed = seed
			r, err := FirstReliable(ctx, core.Config{Env: c, PPO: standardPPO(o.epochs(epochs), seed)})
			if err != nil {
				return agg, err
			}
			agg.Reliable = agg.Reliable && r.Reliable
			agg.Steps += r.Steps
			agg.Epochs += r.Epochs
			agg.MS += r.MS
			useless += r.UselessRate * float64(r.Steps)
		}
		if agg.Steps > 0 {
			agg.UselessRate = useless / float64(agg.Steps)
		}
		return agg, nil
	}
	var rows []ShapingRow
	for _, sc := range ShapingScenarios() {
		sr := ShapingRow{Name: sc.Name, Category: sc.Category}
		var err error
		if sr.Plain, err = aggregate(sc.Env, sc.Epochs); err != nil {
			return rows, fmt.Errorf("%s plain: %w", sc.Name, err)
		}
		shaped := sc.Env
		shaped.Shaping = env.DefaultShaping()
		if sr.Shaped, err = aggregate(shaped, sc.Epochs); err != nil {
			return rows, fmt.Errorf("%s shaped: %w", sc.Name, err)
		}
		rows = append(rows, sr)
	}
	return rows, nil
}

// TableShaping prints the shaped-vs-plain sample-efficiency comparison:
// environment steps and wall-clock to the first reliable attack per
// suite scenario (summed over the seed replicates), plus the step
// speedup. Scenarios either variant fails to solve within the budget
// print their full spend with a "-" speedup.
func TableShaping(o Options) {
	o = o.withDefaults()
	fmt.Fprintln(o.W, "Sample efficiency: useless-action shaping vs plain PPO (to first reliable attack)")
	fmt.Fprintf(o.W, "%-10s %-8s | %9s %8s %7s | %9s %8s %7s | %s\n",
		"Scenario", "Category",
		"pl steps", "pl ms", "useless",
		"sh steps", "sh ms", "useless", "step speedup")
	rows, err := ShapingRows(context.Background(), o)
	if err != nil {
		fmt.Fprintf(o.W, "shaping: %v\n", err)
		return
	}
	wins := 0
	for _, r := range rows {
		speedup := "-"
		if r.Plain.Reliable && r.Shaped.Reliable && r.Shaped.Steps > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(r.Plain.Steps)/float64(r.Shaped.Steps))
			if r.Shaped.Steps < r.Plain.Steps {
				wins++
			}
		}
		fmt.Fprintf(o.W, "%-10s %-8s | %9s %8.0f %6.1f%% | %9s %8.0f %6.1f%% | %s\n",
			r.Name, r.Category,
			stepsCell(r.Plain), r.Plain.MS, 100*r.Plain.UselessRate,
			stepsCell(r.Shaped), r.Shaped.MS, 100*r.Shaped.UselessRate,
			speedup)
	}
	fmt.Fprintf(o.W, "shaped PPO reached the first reliable attack in fewer steps on %d of %d scenarios\n",
		wins, len(rows))
	fmt.Fprintln(o.W, "expected shape: shaped runs classify fewer useless steps and need fewer of them")
}

// stepsCell renders a step count, marking budget-exhausted runs.
func stepsCell(r FirstReliableResult) string {
	if !r.Reliable {
		return fmt.Sprintf(">%d", r.Steps)
	}
	return fmt.Sprintf("%d", r.Steps)
}
