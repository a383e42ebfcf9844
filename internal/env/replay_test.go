package env

import (
	"testing"

	"autocat/internal/cache"
)

// TestReplayStateZeroAlloc pins the steady-state allocation contract of
// the replay key: once the buffer has room, AppendReplayState and
// LoadReplayState allocate nothing, on every prefetcher kind.
func TestReplayStateZeroAlloc(t *testing.T) {
	for _, pf := range []cache.PrefetcherKind{cache.NoPrefetch, cache.NextLine, cache.StreamPrefetch} {
		e := mustEnv(t, snapCfg(cache.LRU, cache.DefenseConfig{}, pf, 1))
		pool := nonGuessPool(e)
		e.Reset()
		for i := 0; i < 5; i++ {
			e.Step(pool[i%len(pool)])
		}
		key := e.AppendReplayState(nil)
		allocs := testing.AllocsPerRun(200, func() {
			key = e.AppendReplayState(key[:0])
			e.LoadReplayState(key)
		})
		if allocs != 0 {
			t.Fatalf("%s: AppendReplayState+LoadReplayState allocated %v per run, want 0", pf, allocs)
		}
	}
}
