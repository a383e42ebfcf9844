package campaign

import (
	"context"
	"runtime"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/nn"
)

// TestCampaignParallelKernelsRace drives the full stack concurrently —
// campaign workers holding compute tokens, each job's trainer running
// the vectorized lockstep collector and sharded updates, with the
// kernel worker pool enabled — so `go test -race` sweeps the whole
// scheduling surface. The token pool is widened past the machine so
// shard goroutines and parallel kernel chunks actually spawn.
func TestCampaignParallelKernelsRace(t *testing.T) {
	defer nn.SetKernelWorkers(runtime.GOMAXPROCS(0))
	nn.SetKernelWorkers(runtime.NumCPU() + 3)
	spec := Spec{
		Name:           "race",
		Caches:         []cache.Config{{NumBlocks: 1, NumWays: 1}},
		Attackers:      []AddrRange{{Lo: 1, Hi: 1}},
		Victims:        []AddrRange{{Lo: 0, Hi: 0}},
		Seeds:          []int64{1, 2, 3, 4},
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
		Epochs:         2,
		StepsPerEpoch:  128,
		Envs:           2,
	}
	res, err := Run(context.Background(), spec, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d of 4 jobs", res.Completed)
	}
	if res.Failed > 0 {
		t.Fatalf("%d jobs failed", res.Failed)
	}
}

// TestCanonicalizeRepeatable renders two attacks over one env in turn:
// the relabelling of one call must not leak into the next.
func TestCanonicalizeRepeatable(t *testing.T) {
	e, err := env.New(env.Config{
		Cache:      cache.Config{NumBlocks: 8, NumWays: 1},
		AttackerLo: 4, AttackerHi: 6,
		VictimLo: 0, VictimHi: 1,
		FlushEnable:    true,
		VictimNoAccess: true,
		WindowSize:     20,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqA := []int{e.AccessAction(6), e.VictimAction(), e.AccessAction(4), e.GuessAction(0)}
	seqB := []int{e.AccessAction(4), e.FlushAction(5), e.VictimAction(), e.GuessNoneAction()}
	for i := 0; i < 3; i++ {
		for _, tc := range []struct {
			seq  []int
			want string
		}{{seqA, "A0 V A1 G0"}, {seqB, "A0 F1 V GE"}} {
			if got := Canonicalize(e, tc.seq); got != tc.want {
				t.Fatalf("call %d: canonical form = %q, want %q", i, got, tc.want)
			}
		}
	}
}

// TestRecordRediscoveryAllocFree checks the production insert path:
// a rediscovery folds into the existing entry and allocates nothing.
func TestRecordRediscoveryAllocFree(t *testing.T) {
	c := NewCatalog()
	if !c.Record("A0 V G0", "0→v→g0", "cat", "job1", 0.9) {
		t.Fatal("first Record not novel")
	}
	if c.Record("A0 V G0", "0→v→g0", "cat", "job2", 0.95) {
		t.Fatal("Record rediscovery reported novel")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	es := c.Entries()
	if es[0].Count != 2 || es[0].BestAccuracy != 0.95 {
		t.Fatalf("entry = %+v", es[0])
	}

	key := "A0 A1 V G0"
	c.Record(key, "s", "c", "j", 1)
	allocs := testing.AllocsPerRun(100, func() {
		c.Record(key, "s", "c", "j", 1)
	})
	// The slot's jobs ring is a fixed array and the recency ring is
	// index-linked, so a rediscovery must not allocate at all.
	if allocs != 0 {
		t.Fatalf("Record rediscovery allocates %.1f per call, want 0", allocs)
	}
}
