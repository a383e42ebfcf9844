package serve

import (
	"context"
	"sync"

	"autocat/internal/campaign"
	"autocat/internal/obs"
)

// flightGroup collapses identical jobs submitted by different tenants
// into one execution. Job IDs are content hashes of the expanded
// scenario (see campaign.Job), so two campaigns that overlap in
// parameter space name the overlapping work identically — the first
// caller of an ID becomes the leader and runs the job, concurrent
// callers wait and share the leader's result (a singleflight hit), and
// later callers are served from a bounded memo of completed results (a
// result-cache hit) without any explorer run at all.
//
// Failures are never shared: a follower that waited out a failed leader
// elects itself leader and re-runs, so one tenant's timeout or panic
// cannot poison another tenant's campaign.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flightCall
	memo     map[string]campaign.JobResult
	order    []string // memo insertion order; order[evicted:] are live
	evicted  int
	cap      int
}

// flightCall is one in-flight job execution; done closes once jr is
// final, and ok marks the result sharable (successes only).
type flightCall struct {
	done chan struct{}
	jr   campaign.JobResult
	ok   bool
}

// defaultResultCache bounds the completed-result memo when the server
// config leaves it zero. Entries are whole JobResults (small, a few
// strings), so the default costs at most a few MB.
const defaultResultCache = 4096

func newFlightGroup(capacity int) *flightGroup {
	if capacity <= 0 {
		capacity = defaultResultCache
	}
	return &flightGroup{
		inflight: make(map[string]*flightCall),
		memo:     make(map[string]campaign.JobResult, capacity),
		cap:      capacity,
	}
}

// Do returns the result for job id, executing fn at most once across
// every concurrent and recent caller of that id. The second return
// reports whether the result was shared from another tenant's run
// rather than produced by fn here. Waiting is bounded by ctx: a
// cancelled caller gets a context-error result without disturbing the
// leader.
func (g *flightGroup) Do(ctx context.Context, id string, fn func() campaign.JobResult) (campaign.JobResult, bool) {
	for {
		g.mu.Lock()
		if jr, ok := g.memo[id]; ok {
			g.mu.Unlock()
			obs.ServeResultCacheHits.Inc()
			return jr, true
		}
		if c, ok := g.inflight[id]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return campaign.JobResult{Error: ctx.Err().Error()}, false
			}
			if c.ok {
				obs.ServeSingleflightHits.Inc()
				return c.jr, true
			}
			continue // leader failed: loop and elect a new one
		}
		c := &flightCall{done: make(chan struct{})}
		g.inflight[id] = c
		g.mu.Unlock()

		// Deferred so a panicking fn still releases the call, unshared
		// (ok stays false), before the panic propagates: otherwise the
		// retry and every later caller of id block until their contexts
		// end.
		defer func() {
			g.mu.Lock()
			delete(g.inflight, id)
			if c.ok {
				g.remember(id, c.jr)
			}
			g.mu.Unlock()
			close(c.done)
		}()
		c.jr = fn()
		c.ok = c.jr.Error == ""
		return c.jr, false
	}
}

// remember inserts a completed result, evicting the oldest memo entry
// at capacity; the group mutex must be held. The order slice is a
// one-way queue — the consumed prefix is released wholesale whenever it
// outgrows the live tail, so churn stays O(1) amortized without the
// slice pinning evicted IDs forever.
func (g *flightGroup) remember(id string, jr campaign.JobResult) {
	if _, ok := g.memo[id]; ok {
		return
	}
	if len(g.memo) >= g.cap {
		delete(g.memo, g.order[g.evicted])
		g.evicted++
		if g.evicted > len(g.order)/2 {
			g.order = append([]string(nil), g.order[g.evicted:]...)
			g.evicted = 0
		}
	}
	g.memo[id] = jr
	g.order = append(g.order, id)
}

// Len reports the number of memoized results (test hook).
func (g *flightGroup) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.memo)
}
