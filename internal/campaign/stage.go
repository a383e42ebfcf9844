package campaign

// Staged search→RL escalation: run the cheap explorers across the whole
// grid first and spend PPO training only where they stay at chance.
// Nakanishi & Akiyama (PAPERS.md) attack exactly the cost of running
// full RL on every configuration, and CacheQuery shows query-style
// search recovers much of what learning finds on simple targets — so a
// staged sweep runs strictly fewer PPO jobs than the equivalent
// single-stage sweep whenever any cheap stage finds anything.

import (
	"context"
	"fmt"

	"autocat/internal/env"
	"autocat/internal/obs"
)

// StageResult is one escalation stage's campaign outcome.
type StageResult struct {
	// Explorer is the stage's backend kind ("" rendered as "ppo").
	Explorer string
	// Result is the stage's campaign result over its pending jobs.
	Result *Result
}

// StagedResult is a completed (or interrupted) staged campaign.
type StagedResult struct {
	// Stages holds per-stage results in escalation order.
	Stages []StageResult
	// Jobs is the total job count of the expanded grid; Escalated counts
	// the jobs that reached each stage after the first (len == stages-1).
	Jobs      int
	Escalated []int
	// Catalog merges every stage's attacks.
	Catalog *Catalog
}

// RunStaged expands the spec once and escalates it through the given
// explorer kinds: stage 1 runs every job with explorers[0], and each
// later stage re-runs only the jobs the previous stage left at chance
// (no reliably extracted attack, or an error). Scenario identities are
// preserved per stage — the explorer kind joins the job ID only for
// non-default explorers, so a PPO stage's IDs are byte-identical to a
// plain single-stage sweep and old checkpoints resume cleanly. All
// stages share rc's checkpoint, runner and progress sink.
func RunStaged(ctx context.Context, spec Spec, rc RunConfig, explorers []string) (*StagedResult, error) {
	if len(explorers) == 0 {
		return nil, fmt.Errorf("campaign: staged run needs at least one explorer")
	}
	if len(spec.Explorers) > 0 {
		return nil, fmt.Errorf("campaign: staged runs own the explorer axis; clear Spec.Explorers")
	}
	kinds := make([]string, len(explorers))
	for i, e := range explorers {
		if e == ExplorerShapedPPO {
			// A stage kind, not a backend: shaped-PPO runs the default
			// PPO explorer on shaping-enabled copies of the scenarios.
			kinds[i] = ExplorerShapedPPO
			continue
		}
		k, ok := normalizeExplorer(e)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown explorer %q", e)
		}
		kinds[i] = k
	}
	jobs, _, err := spec.Expand()
	if err != nil {
		return nil, err
	}

	staged := &StagedResult{Jobs: len(jobs), Catalog: NewCatalog()}
	pending := make([]Scenario, len(jobs))
	for i, j := range jobs {
		pending[i] = j.Scenario
	}
	for si, kind := range kinds {
		if si > 0 {
			staged.Escalated = append(staged.Escalated, len(pending))
		}
		if len(pending) == 0 {
			break
		}
		stageLabel := fmt.Sprintf("stage%d-%s", si+1, explorerLabel(kind))
		stageSpec := Spec{
			Name:      spec.Name + "/" + stageLabel,
			Scenarios: withExplorer(pending, kind),
		}
		rc.Journal.Emit(obs.Event{Kind: obs.EvStageStart, Name: spec.Name, Stage: stageLabel,
			Data: map[string]any{"explorer": explorerLabel(kind), "jobs": len(pending)}})
		res, err := Run(ctx, stageSpec, rc)
		if res != nil {
			staged.Stages = append(staged.Stages, StageResult{Explorer: kind, Result: res})
			for _, jr := range res.Jobs {
				if jr.Canonical != "" {
					staged.Catalog.Record(jr.Canonical, jr.Sequence, jr.Category, jr.Name, jr.Accuracy)
				}
			}
		}
		if err != nil {
			return staged, err
		}
		// Escalate the jobs this stage left at chance. Indexing is
		// positional: stage specs preserve expansion order.
		var next []Scenario
		for i, jr := range res.Jobs {
			if jr.Error != "" || jr.Sequence == "" {
				if si+1 < len(kinds) {
					rc.Journal.Emit(obs.Event{Kind: obs.EvEscalate, Name: pending[i].Name, Stage: stageLabel,
						Data: map[string]any{
							"from": explorerLabel(kind),
							"to":   explorerLabel(kinds[si+1]),
						}})
				}
				next = append(next, pending[i])
			}
		}
		rc.Journal.Emit(obs.Event{Kind: obs.EvStageDone, Name: spec.Name, Stage: stageLabel,
			Data: map[string]any{
				"explorer":  explorerLabel(kind),
				"jobs":      len(res.Jobs),
				"solved":    len(res.Jobs) - len(next),
				"escalated": len(next),
			}})
		pending = next
	}
	return staged, nil
}

// withExplorer stamps the explorer kind onto each scenario. Names gain
// the kind as a suffix for non-default explorers, mirroring grid
// naming; the default kind leaves both the name and — through the
// omitempty encoding — the job ID untouched. The shaped-PPO stage kind
// stamps default shaping onto the env instead of an explorer: its job
// IDs differ from the plain-PPO stage through the Shaping config alone,
// and escalation passes the *original* unshaped scenarios onward, so a
// job the shaped stage leaves at chance still gets its plain-PPO shot.
func withExplorer(scs []Scenario, kind string) []Scenario {
	out := make([]Scenario, len(scs))
	for i, sc := range scs {
		if kind == ExplorerShapedPPO {
			sc.Explorer = ExplorerDefault
			sc.Env.Shaping = env.DefaultShaping()
		} else {
			sc.Explorer = kind
		}
		if kind != ExplorerDefault && sc.Name != "" {
			sc.Name += "/" + kind
		}
		out[i] = sc
	}
	return out
}

// explorerLabel renders an explorer kind for display ("" → "ppo").
func explorerLabel(kind string) string {
	if kind == ExplorerDefault {
		return ExplorerPPO
	}
	return kind
}
