package campaign

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/obs"
	"autocat/internal/search"
)

// screenSpec is the benchmark's screen grid on one seed: 60
// replay-deterministic search jobs, no two with one memo key.
func screenSpec(seed int64) Spec {
	return Spec{
		Name:           "screen",
		Caches:         []cache.Config{{NumBlocks: 4, NumWays: 1}, {NumBlocks: 4, NumWays: 4}, {NumBlocks: 8, NumWays: 2}},
		Policies:       []cache.PolicyKind{cache.LRU, cache.PLRU, cache.RRIP},
		Attackers:      []AddrRange{{Lo: 4, Hi: 7}, {Lo: 0, Hi: 3}},
		Victims:        []AddrRange{{Lo: 0, Hi: 0}, {Lo: 0, Hi: 3}},
		Defenses:       []string{DefenseNone, DefensePartition},
		Explorers:      []string{ExplorerSearch},
		Seeds:          []int64{seed},
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
	}
}

// serveSpec is a service tenant's campaign: one geometry and policy
// screened at two attacker ranges and two seeds, so the second seed's
// jobs meet the first one's memos.
func serveSpec() Spec {
	return Spec{
		Name:           "tenant",
		Caches:         []cache.Config{{NumBlocks: 8, NumWays: 2}},
		Policies:       []cache.PolicyKind{cache.RRIP},
		Attackers:      []AddrRange{{Lo: 4, Hi: 7}, {Lo: 0, Hi: 3}},
		Victims:        []AddrRange{{Lo: 0, Hi: 0}},
		Explorers:      []string{ExplorerSearch},
		Seeds:          []int64{1001000, 1001001},
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
	}
}

// TestMemoPoolKeepsJobResults: a campaign's checkpointed JobResults are
// the same, apart from duration_ms, whether every search job starts on
// an emptied memo pool or on the memos earlier jobs and campaigns
// released: on two seeds of the screen grid and on a serve-style spec.
func TestMemoPoolKeepsJobResults(t *testing.T) {
	run := func(spec Spec, cold bool) map[string]JobResult {
		t.Helper()
		ck := filepath.Join(t.TempDir(), "campaign.jsonl")
		runner, workers := NewExplorerRunner(RunnerOptions{}), 2
		if cold {
			warm := runner
			runner, workers = func(ctx context.Context, job Job) JobResult {
				search.EmptyMemoPool()
				return warm(ctx, job)
			}, 1
		}
		if _, err := Run(context.Background(), spec, RunConfig{Workers: workers, Checkpoint: ck, Runner: runner}); err != nil {
			t.Fatal(err)
		}
		jrs, err := LoadCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		for id, jr := range jrs {
			if jr.Error != "" {
				t.Fatalf("job %s: %s", jr.Name, jr.Error)
			}
			jr.DurationMS = 0
			jrs[id] = jr
		}
		return jrs
	}
	specs := []Spec{screenSpec(1001), screenSpec(1002), serveSpec()}
	var cold []map[string]JobResult
	for _, spec := range specs {
		cold = append(cold, run(spec, true))
	}
	search.EmptyMemoPool()
	hits0 := obs.SearchMemoPoolHits.Load()
	for i, spec := range specs {
		warm := run(spec, false)
		if len(warm) != len(cold[i]) {
			t.Fatalf("%s seeds %v: %d jobs on a warm pool, %d on an emptied one", spec.Name, spec.Seeds, len(warm), len(cold[i]))
		}
		for id, jr := range warm {
			if !reflect.DeepEqual(jr, cold[i][id]) {
				t.Fatalf("%s job %s: warm pool %+v, emptied pool %+v", spec.Name, jr.Name, jr, cold[i][id])
			}
		}
	}
	if hits := obs.SearchMemoPoolHits.Load() - hits0; hits < 60 {
		t.Fatalf("the warm runs hit the pool %d times, want at least the second screen seed's 60 jobs", hits)
	}
}
