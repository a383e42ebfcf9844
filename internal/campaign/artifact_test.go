package campaign

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/core"
	"autocat/internal/env"
)

// oneBitScenario is the 1-line search-solvable guessing game.
func oneBitScenario(seed int64) Scenario {
	return Scenario{
		Name: "onebit",
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
			AttackerLo: 1, AttackerHi: 1,
			VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true,
			WindowSize:     8,
			Warmup:         -1,
			Seed:           seed,
		},
	}
}

// chanceScenario is a configuration no non-guess prefix can distinguish
// (a single non-conflicting attacker line on a 4-way set), so the cheap
// search stage stays at chance and must escalate.
func chanceScenario(seed int64) Scenario {
	return Scenario{
		Name: "chance",
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 4},
			AttackerLo: 1, AttackerHi: 2,
			VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true,
			WindowSize:     6,
			Warmup:         -1,
			Seed:           seed,
		},
	}
}

func TestExplorerAxisIDStability(t *testing.T) {
	// The canonical JSON of a default-explorer scenario must not mention
	// the explorer at all: that is what keeps pre-explorer job IDs (and
	// therefore PR 4-era checkpoints) byte-compatible.
	sc := oneBitScenario(1)
	blob, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "explorer") {
		t.Fatalf("default scenario JSON leaks the explorer field: %s", blob)
	}
	idDefault, _ := jobID(sc)

	// "ppo" normalizes to the default: same job ID through the grid.
	spec := Spec{Name: "x", Scenarios: []Scenario{sc}}
	specPPO := Spec{
		Name:      "x",
		Caches:    []cache.Config{{NumBlocks: 1, NumWays: 1}},
		Explorers: []string{"ppo"},
		Attackers: []AddrRange{{Lo: 1, Hi: 1}},
		Victims:   []AddrRange{{Lo: 0, Hi: 0}},
	}
	_ = spec
	jobs, _, err := specPPO.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Scenario.Explorer != ExplorerDefault {
		t.Fatalf("ppo must normalize to the default explorer, got %q", jobs[0].Scenario.Explorer)
	}

	// A non-default explorer changes the ID (a different kind of job)
	// and shows up in the name.
	scSearch := sc
	scSearch.Explorer = ExplorerSearch
	idSearch, _ := jobID(scSearch)
	if idSearch == idDefault {
		t.Fatal("search-explorer job must not collide with the ppo job")
	}

	// An explicit scenario with "ppo" spelled out normalizes to the same
	// job ID as one with the field omitted, so both dedup together and
	// resume against pre-explorer checkpoints.
	scPPO := sc
	scPPO.Explorer = ExplorerPPO
	both := Spec{Name: "x", Scenarios: []Scenario{sc, scPPO}}
	jobs2, _, err := both.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs2) != 1 || jobs2[0].ID != idDefault {
		t.Fatalf("explicit \"ppo\" scenario must collapse onto the default ID: %d jobs, id %s vs %s",
			len(jobs2), jobs2[0].ID, idDefault)
	}
}

func TestExpandExplorerAxis(t *testing.T) {
	spec := Spec{
		Name:           "axis",
		Caches:         []cache.Config{{NumBlocks: 2, NumWays: 1}},
		Attackers:      []AddrRange{{Lo: 0, Hi: 1}},
		Victims:        []AddrRange{{Lo: 0, Hi: 0}},
		Explorers:      []string{"ppo", ExplorerSearch, ExplorerProbe},
		FlushEnable:    true,
		VictimNoAccess: true,
		WindowSize:     8,
	}
	jobs, skipped, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(jobs) != 3 {
		t.Fatalf("explorer axis: %d jobs (%d skipped), want 3/0", len(jobs), skipped)
	}
	if jobs[0].Scenario.Explorer != "" || jobs[1].Scenario.Explorer != ExplorerSearch {
		t.Fatalf("axis order wrong: %q %q", jobs[0].Scenario.Explorer, jobs[1].Scenario.Explorer)
	}
	if !strings.HasSuffix(jobs[1].Scenario.Name, "/search/s1") {
		t.Fatalf("search job name missing explorer tag: %q", jobs[1].Scenario.Name)
	}
	// An unknown explorer kind is a spec error, not a silently skipped
	// grid point (a typo must not make half the grid vanish).
	spec.Explorers = []string{"quantum"}
	if _, _, err = spec.Expand(); err == nil {
		t.Fatal("unknown explorer kind must be rejected")
	}
}

func TestArtifactStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "artifacts")
	store, err := OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Discover via the real search backend so the artifact carries a
	// genuine replay recipe.
	sc := oneBitScenario(3)
	res, err := core.NewSearchBackend(core.SearchBackendOptions{Budget: 2000}).
		Explore(context.Background(), sc.Env)
	if err != nil || !res.AttackOK {
		t.Fatalf("search failed: %v %+v", err, res)
	}
	job := Job{ID: "jid", Scenario: sc}
	art, err := artifactFromResult(job, res)
	if err != nil {
		t.Fatal(err)
	}
	stored, novel, err := store.Put(art)
	if err != nil || !novel || stored.ID == "" {
		t.Fatalf("put: novel=%v id=%q err=%v", novel, stored.ID, err)
	}
	// Content addressing: the identical artifact is not re-appended.
	again, novel, err := store.Put(art)
	if err != nil || novel || again.ID != stored.ID {
		t.Fatalf("duplicate put: novel=%v id=%q err=%v", novel, again.ID, err)
	}

	arts, err := store.List()
	if err != nil || len(arts) != 1 {
		t.Fatalf("list: %d artifacts, err=%v", len(arts), err)
	}
	got, err := store.Get(stored.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sequence != art.Sequence || got.Explorer != string(core.ExplorerSearch) {
		t.Fatalf("stored artifact mangled: %+v", got)
	}

	// The deterministic-replay contract: same sequence, same accuracy,
	// bit-for-bit, on a store reopened from disk.
	store.Close()
	store2, err := OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	rep, err := store2.Replay(got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("replay mismatch: got %q acc=%v len=%v, recorded %q acc=%v len=%v",
			rep.Sequence, rep.Accuracy, rep.MeanLength, got.Sequence, got.Accuracy, got.MeanLength)
	}
}

func TestRunPersistsArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Name: "arts", Scenarios: []Scenario{
		withExplorer([]Scenario{oneBitScenario(5)}, ExplorerSearch)[0],
		withExplorer([]Scenario{chanceScenario(6)}, ExplorerSearch)[0],
	}}
	store, err := OpenArtifactStore(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	res, err := Run(context.Background(), spec, RunConfig{
		Workers: 2,
		Runner: NewExplorerRunner(RunnerOptions{
			Artifacts: store,
			Search:    core.SearchBackendOptions{Budget: 500, MaxLen: 3},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var solved, chance *JobResult
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		if strings.HasPrefix(jr.Name, "onebit") {
			solved = jr
		} else {
			chance = jr
		}
	}
	if solved == nil || solved.Sequence == "" || solved.ArtifactID == "" {
		t.Fatalf("solved job missing artifact: %+v", solved)
	}
	if chance == nil || chance.Sequence != "" || chance.ArtifactID != "" {
		t.Fatalf("chance job should have no artifact: %+v", chance)
	}
	reports, err := store.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || !reports[0].Match {
		t.Fatalf("verify: %+v", reports)
	}
	if reports[0].Artifact.ID != solved.ArtifactID {
		t.Fatalf("artifact link broken: %q vs %q", reports[0].Artifact.ID, solved.ArtifactID)
	}
}

func TestRunStagedEscalation(t *testing.T) {
	// Stage 1 (search) solves the 1-line jobs; only the chance-level job
	// escalates to stage 2, which a counting stub stands in for PPO.
	spec := Spec{Name: "staged", Scenarios: []Scenario{
		oneBitScenario(11), oneBitScenario(12), chanceScenario(13),
	}}
	var mu sync.Mutex
	ppoCalls := 0
	search := NewExplorerRunner(RunnerOptions{Search: core.SearchBackendOptions{Budget: 500, MaxLen: 3}})
	rc := RunConfig{
		Workers: 2,
		Runner: func(ctx context.Context, job Job) JobResult {
			if job.Scenario.Explorer == ExplorerSearch {
				return search(ctx, job)
			}
			mu.Lock()
			ppoCalls++
			mu.Unlock()
			return JobResult{
				Sequence: "0→v→0→g0", Canonical: "A0 V A0 G0",
				Category: "prime+probe", Converged: true, Accuracy: 1,
			}
		},
	}
	staged, err := RunStaged(context.Background(), spec, rc, []string{ExplorerSearch, "ppo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(staged.Stages) != 2 || staged.Jobs != 3 {
		t.Fatalf("stages=%d jobs=%d", len(staged.Stages), staged.Jobs)
	}
	if got := staged.Escalated; len(got) != 1 || got[0] != 1 {
		t.Fatalf("escalated = %v, want [1]", got)
	}
	if ppoCalls != 1 {
		t.Fatalf("PPO ran %d jobs, want 1 (strictly fewer than the 3-job sweep)", ppoCalls)
	}
	// Stage-2 scenario identity: the escalated job keeps the original
	// name and a default explorer, so its ID matches a plain sweep.
	stage2 := staged.Stages[1].Result
	if len(stage2.Jobs) != 1 || stage2.Jobs[0].Name != "chance" || stage2.Jobs[0].Explorer != "" {
		t.Fatalf("stage-2 job mangled: %+v", stage2.Jobs)
	}
	wantID, _ := jobID(chanceScenario(13))
	if stage2.Jobs[0].JobID != wantID {
		t.Fatalf("escalated PPO job ID %s differs from single-stage ID %s",
			stage2.Jobs[0].JobID, wantID)
	}
	if staged.Catalog.Len() == 0 {
		t.Fatal("merged catalog empty")
	}
}

func TestRunStagedSharedCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "campaign.jsonl")
	spec := Spec{Name: "staged-ckpt", Scenarios: []Scenario{
		oneBitScenario(21), chanceScenario(22),
	}}
	var mu sync.Mutex
	calls := map[string]int{}
	runner := func(ctx context.Context, job Job) JobResult {
		mu.Lock()
		calls[explorerLabel(job.Scenario.Explorer)]++
		mu.Unlock()
		if job.Scenario.Explorer == ExplorerSearch && strings.HasPrefix(job.Scenario.Name, "onebit") {
			return JobResult{Sequence: "s", Canonical: "A0 V A0 G0", Category: "prime+probe", Accuracy: 1, Converged: true}
		}
		if job.Scenario.Explorer == ExplorerSearch {
			return JobResult{Accuracy: 0.5} // stayed at chance
		}
		return JobResult{Sequence: "p", Canonical: "A0s V A0s G0", Category: "flush+reload", Accuracy: 1, Converged: true}
	}
	rc := RunConfig{Workers: 1, Checkpoint: ckpt, Resume: true, Runner: runner}
	if _, err := RunStaged(context.Background(), spec, rc, []string{ExplorerSearch, "ppo"}); err != nil {
		t.Fatal(err)
	}
	if calls[ExplorerSearch] != 2 || calls["ppo"] != 1 {
		t.Fatalf("first pass calls = %v", calls)
	}
	// Re-running the whole staged campaign against the shared checkpoint
	// re-runs nothing: both stages' results resume from the same file.
	calls = map[string]int{}
	staged, err := RunStaged(context.Background(), spec, rc, []string{ExplorerSearch, "ppo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 0 {
		t.Fatalf("resume re-ran jobs: %v", calls)
	}
	if staged.Stages[0].Result.Resumed != 2 || staged.Stages[1].Result.Resumed != 1 {
		t.Fatalf("resume counts: %d/%d", staged.Stages[0].Result.Resumed, staged.Stages[1].Result.Resumed)
	}
}

// TestStagedEndToEnd drives the full escalation path with real
// backends: search (stage 1) solves the 1-line game; the 2-way LRU
// game needs a length-4 prefix (fill both ways, trigger, probe the LRU
// line), beyond the configured MaxLen, so it alone escalates to PPO
// (stage 2) — strictly fewer PPO jobs than the 2-job single-stage
// sweep. Every discovery, including the trained-policy artifact with
// its weights blob, must replay bit-for-bit.
func TestStagedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; skipped in -short mode")
	}
	fa2 := Scenario{
		Name: "fa2",
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 2},
			AttackerLo: 1, AttackerHi: 2,
			VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true,
			WindowSize:     8,
			Warmup:         -1,
			Seed:           7,
		},
		Epochs:        100,
		StepsPerEpoch: 3000,
	}
	spec := Spec{Name: "staged-e2e", Scenarios: []Scenario{oneBitScenario(7), fa2}}
	store, err := OpenArtifactStore(filepath.Join(t.TempDir(), "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rc := RunConfig{
		Workers: 2,
		Runner: NewExplorerRunner(RunnerOptions{
			Artifacts: store,
			// MaxLen 3 solves the 1-line game (A1 V A1) but not the
			// 2-set prime+probe, which needs prime(2)+trigger+probe(2).
			Search: core.SearchBackendOptions{Budget: 500, MaxLen: 3},
		}),
	}
	staged, err := RunStaged(context.Background(), spec, rc, []string{ExplorerSearch, "ppo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(staged.Escalated) != 1 || staged.Escalated[0] != 1 {
		t.Fatalf("escalated = %v, want exactly the fa2 job", staged.Escalated)
	}
	stage2 := staged.Stages[1].Result
	if stage2.Completed != 1 {
		t.Fatalf("PPO stage ran %d jobs, want 1 (< %d single-stage jobs)", stage2.Completed, staged.Jobs)
	}
	ppoJob := stage2.Jobs[0]
	if ppoJob.Sequence == "" || ppoJob.ArtifactID == "" {
		t.Fatalf("PPO stage found no replayable attack: %+v", ppoJob)
	}

	reports, err := store.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("want 2 artifacts (search + ppo), got %d", len(reports))
	}
	sawWeights := false
	for _, rep := range reports {
		if !rep.Match {
			t.Fatalf("artifact %s (%s) replay mismatch: got %q acc=%v, recorded %q acc=%v",
				rep.Artifact.ID, rep.Artifact.Explorer,
				rep.Sequence, rep.Accuracy, rep.Artifact.Sequence, rep.Artifact.Accuracy)
		}
		if rep.Artifact.WeightsHash != "" {
			sawWeights = true
		}
	}
	if !sawWeights {
		t.Fatal("PPO artifact should carry a weights blob")
	}
}

func TestCheapBackendsRefuseDetectorScenarios(t *testing.T) {
	// The cheap backends have no detector plumbing; running them on a
	// detector scenario would report a "bypass" measured without the
	// detector attached. The runner must refuse (and thereby escalate
	// the scenario to PPO in staged runs).
	sc := oneBitScenario(1)
	sc.Detector = DetectorCCHunter
	sc.Explorer = ExplorerSearch
	jr := NewExplorerRunner(RunnerOptions{})(context.Background(), Job{ID: "d", Scenario: sc})
	if jr.Error == "" || jr.Sequence != "" {
		t.Fatalf("search on a detector scenario must refuse: %+v", jr)
	}
}

func TestArtifactStoreFailureKeepsJobResult(t *testing.T) {
	// A store failure loses the artifact, not the job: an errored job
	// would never retry on resume and would needlessly escalate.
	store, err := OpenArtifactStore(filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	store.Close() // every Put now fails
	runner := NewExplorerRunner(RunnerOptions{
		Artifacts: store,
		Search:    core.SearchBackendOptions{Budget: 2000, MaxLen: 3},
	})
	sc := oneBitScenario(3)
	sc.Explorer = ExplorerSearch
	jr := runner(context.Background(), Job{ID: "x", Scenario: sc})
	if jr.Error != "" || jr.Sequence == "" {
		t.Fatalf("job must survive a store failure: %+v", jr)
	}
	if jr.ArtifactID != "" {
		t.Fatalf("no artifact can have been stored: %+v", jr)
	}
}
