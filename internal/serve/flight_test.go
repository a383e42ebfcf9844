package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autocat/internal/campaign"
)

// TestFlightLeaderSharesSuccess: concurrent callers of one ID produce
// one execution; late callers hit the memo.
func TestFlightLeaderSharesSuccess(t *testing.T) {
	g := newFlightGroup(0)
	var runs atomic.Int64
	gate := make(chan struct{})
	fn := func() campaign.JobResult {
		runs.Add(1)
		<-gate
		return campaign.JobResult{Accuracy: 0.9}
	}
	var wg sync.WaitGroup
	results := make([]campaign.JobResult, 4)
	shared := make([]bool, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shared[i] = g.Do(context.Background(), "job", fn)
		}(i)
	}
	// Let the leader start and the followers queue, then release.
	for runs.Load() == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	nshared := 0
	for i := range results {
		if results[i].Accuracy != 0.9 {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if shared[i] {
			nshared++
		}
	}
	if nshared != 3 {
		t.Fatalf("%d callers reported shared, want 3", nshared)
	}
	// A later caller is served from the memo without running fn.
	if jr, sh := g.Do(context.Background(), "job", fn); !sh || jr.Accuracy != 0.9 {
		t.Fatalf("memo hit = (%+v, %v)", jr, sh)
	}
	if runs.Load() != 1 {
		t.Fatal("memo hit re-ran fn")
	}
}

// TestFlightFailureNotShared: a failed leader's result is neither
// memoized nor handed to followers — each of them re-runs until one
// succeeds, so one tenant's transient failure cannot poison another's
// campaign.
func TestFlightFailureNotShared(t *testing.T) {
	g := newFlightGroup(0)
	var runs atomic.Int64
	fn := func() campaign.JobResult {
		if runs.Add(1) == 1 {
			return campaign.JobResult{Error: "injected fault"}
		}
		return campaign.JobResult{Accuracy: 1}
	}
	if jr, shared := g.Do(context.Background(), "job", fn); shared || jr.Error == "" {
		t.Fatalf("failed leader = (%+v, %v), want own unshared failure", jr, shared)
	}
	if jr, shared := g.Do(context.Background(), "job", fn); shared || jr.Error != "" {
		t.Fatalf("retry after failure = (%+v, %v), want fresh successful run", jr, shared)
	}
	if runs.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2 (failure not cached)", runs.Load())
	}
	// Now the success is memoized.
	if _, shared := g.Do(context.Background(), "job", fn); !shared {
		t.Fatal("success after retry not memoized")
	}
}

// TestFlightLeaderPanic: a leader whose fn panics releases its in-flight
// entry, so the next caller of the ID runs fn instead of waiting on a
// call that will never finish.
func TestFlightLeaderPanic(t *testing.T) {
	g := newFlightGroup(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("leader panic did not propagate")
			}
		}()
		g.Do(context.Background(), "job", func() campaign.JobResult { panic("runner panic") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ran := false
	jr, shared := g.Do(ctx, "job", func() campaign.JobResult {
		ran = true
		return campaign.JobResult{Accuracy: 1}
	})
	if !ran || shared || jr.Error != "" {
		t.Fatalf("call after panicking leader = (%+v, %v), ran=%v; want a fresh run", jr, shared, ran)
	}
}

// TestFlightCancelledFollower: a follower whose context dies while
// waiting gets a context-error result without disturbing the leader.
func TestFlightCancelledFollower(t *testing.T) {
	g := newFlightGroup(0)
	gate := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), "job", func() campaign.JobResult {
		close(started)
		<-gate
		return campaign.JobResult{Accuracy: 1}
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jr, shared := g.Do(ctx, "job", nil) // fn must never run
	if shared || jr.Error != context.Canceled.Error() {
		t.Fatalf("cancelled follower = (%+v, %v)", jr, shared)
	}
	close(gate)
}

// TestFlightMemoBounded: the completed-result memo holds at most its
// capacity, evicting oldest-first.
func TestFlightMemoBounded(t *testing.T) {
	g := newFlightGroup(4)
	run := func(id string) {
		g.Do(context.Background(), id, func() campaign.JobResult {
			return campaign.JobResult{Accuracy: 1}
		})
	}
	for i := 0; i < 32; i++ {
		run(fmt.Sprintf("job%d", i))
	}
	if n := g.Len(); n != 4 {
		t.Fatalf("memo holds %d results, want 4", n)
	}
	// Newest IDs survive, oldest were evicted.
	var runs atomic.Int64
	probe := func() campaign.JobResult { runs.Add(1); return campaign.JobResult{} }
	if _, shared := g.Do(context.Background(), "job31", probe); !shared {
		t.Fatal("newest entry evicted")
	}
	if _, shared := g.Do(context.Background(), "job0", probe); shared {
		t.Fatal("oldest entry still memoized past capacity")
	}
	if runs.Load() != 1 {
		t.Fatalf("probe ran %d times, want 1", runs.Load())
	}
}
