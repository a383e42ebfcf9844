package search

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
)

// partitionCfg is the screen grid's 8×2 LRU partition point: way
// partitioning closes every channel, so no candidate distinguishes.
func partitionCfg() env.Config {
	return env.Config{
		Cache: cache.Config{
			NumBlocks: 8, NumWays: 2, Policy: cache.LRU,
			Defense: cache.DefenseConfig{Kind: cache.DefensePartition},
		},
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 3,
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
		Seed:           1,
	}
}

// sharedRRIPCfg is a 2×2 RRIP point whose attacker shares the victim's
// addresses. Its live sets split into several classes of two or more
// secrets, which the partition point's never do.
func sharedRRIPCfg() env.Config {
	return env.Config{
		Cache:      cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.RRIP},
		AttackerLo: 0, AttackerHi: 3,
		VictimLo: 0, VictimHi: 3,
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
		Seed:           2,
	}
}

// TestNodeEdgesMatchRefinement is the node table's differential test:
// after a warm exploration, every filled node edge's child must equal a
// fresh refinement of its parent, computed on a separate env by stepping
// each live secret from its replay key and regrouping the secrets by
// (class, signature char) with classes numbered in secret order. The
// root node holds every secret's post-Reset state in class 0.
func TestNodeEdgesMatchRefinement(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		cfg   env.Config
		split bool // some child holds two classes
	}{{"8x2-lru-partition", partitionCfg(), false}, {"2x2-rrip-shared", sharedRRIPCfg(), true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			m := NewSearcher(newEnvT(t, cfg))
			for length := 1; length <= 6; length++ {
				m.Exhaustive(ctx, length, 2000, 1)
				m.Random(ctx, length, 2000, int64(length), 1)
			}
			s := m.slots[0]
			ref := newEnvT(t, cfg)

			type member struct {
				key   string
				class int32
			}
			decode := func(id int32) []member {
				var out []member
				k := s.node.key(id)
				for j := 0; j < len(k); j += 2 {
					out = append(out, member{string(s.key(k[j])), k[j+1]})
				}
				return out
			}
			var root []member
			for _, sec := range m.secrets {
				ref.Reset()
				ref.ForceSecret(sec)
				root = append(root, member{string(ref.AppendReplayState(nil)), 0})
			}
			if got := decode(s.root); !equalMembers(got, root) {
				t.Fatalf("root node %v, want %v", got, root)
			}

			checked, split := 0, 0
			for p := range int32(s.nodes()) {
				parent := decode(p)
				for ai, a := range m.pool {
					c := s.node.vals[int(p)*s.node.width+ai] - 1
					if c < 0 {
						continue
					}
					type group struct{ class, char int32 }
					var keys []string
					var groups []group
					count := map[group]int{}
					for _, mb := range parent {
						ref.LoadReplayState([]byte(mb.key))
						ref.Step(a)
						g := group{mb.class, int32(bytes.IndexByte([]byte("nhm"), ref.SignatureChar()))}
						keys = append(keys, string(ref.AppendReplayState(nil)))
						groups = append(groups, g)
						count[g]++
					}
					var want []member
					class := map[group]int32{}
					for j, g := range groups {
						if count[g] < 2 {
							continue
						}
						if _, ok := class[g]; !ok {
							class[g] = int32(len(class))
						}
						want = append(want, member{keys[j], class[g]})
					}
					if len(class) > 1 {
						split++
					}
					if got := decode(c); !equalMembers(got, want) {
						t.Fatalf("node %d action %d: child %v, fresh refinement %v", p, a, got, want)
					}
					checked++
				}
			}
			if checked < 100 {
				t.Fatalf("checked %d node edges, want a warm table of at least 100", checked)
			}
			if tc.split && split == 0 {
				t.Fatal("no checked child holds two classes")
			}
		})
	}
}

func equalMembers[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRandomSearchAllocsPerWorker: a random search on a warm memo
// recycles its candidate buffers, so its allocations grow with the
// worker count, not with the number of candidate batches. The baseline
// runs one batch per worker, so it starts every walker.
func TestRandomSearchAllocsPerWorker(t *testing.T) {
	ctx := context.Background()
	m := NewSearcher(newEnvT(t, partitionCfg()))
	for _, workers := range []int{1, 3} {
		allocs := func(batches int) float64 {
			budget := batches * batchSize
			m.Random(ctx, 4, budget, 7, workers) // warms the memo
			return testing.AllocsPerRun(10, func() {
				if res := m.Random(ctx, 4, budget, 7, workers); res.Found || res.Sequences != budget {
					t.Fatalf("partition point must exhaust the budget, got %+v", res)
				}
			})
		}
		few, many := allocs(workers), allocs(40)
		if many > few+1 {
			t.Fatalf("workers %d: 40 batches allocated %v per search, %d batches %v", workers, many, workers, few)
		}
	}
}

// isolatedMemoPool gives the test an empty memo pool of its own, and
// restores the process pool and memoPoolCap when the test ends.
func isolatedMemoPool(t *testing.T) *memoPool {
	saved, savedCap := memos, memoPoolCap
	memos = newMemoPool()
	t.Cleanup(func() { memos, memoPoolCap = saved, savedCap })
	return memos
}

// poolCounts reads the pool's counters.
func poolCounts() [3]uint64 {
	return [3]uint64{obs.SearchMemoPoolHits.Load(), obs.SearchMemoPoolMisses.Load(), obs.SearchMemoPoolEvictions.Load()}
}

// wantPoolDelta fails the test unless the pool counted hits, misses and
// evictions since c0.
func wantPoolDelta(t *testing.T, what string, c0 [3]uint64, hits, misses, evictions uint64) {
	t.Helper()
	c := poolCounts()
	if got := [3]uint64{c[0] - c0[0], c[1] - c0[1], c[2] - c0[2]}; got != [3]uint64{hits, misses, evictions} {
		t.Fatalf("%s: pool counted %d hits, %d misses, %d evictions; want %d, %d, %d", what, got[0], got[1], got[2], hits, misses, evictions)
	}
}

// searchLengths runs exhaustive and random searches at lengths 2–5 on
// s and returns their Results.
func searchLengths(s *Searcher, workers int) []Result {
	ctx := context.Background()
	var out []Result
	for length := 2; length <= 5; length++ {
		out = append(out, s.Exhaustive(ctx, length, 600, workers), s.Random(ctx, length, 600, 9, workers))
	}
	return out
}

// TestReleasedBuffersKeepResults: a searcher that checks out the memo
// another searcher of its config released, at other seeds, finds it
// intact, and a searcher of another config handed the same buffers
// emptied, tables grown under another pool width included; both return
// the Results of a searcher on new buffers, on one and several workers.
func TestReleasedBuffersKeepResults(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		p := isolatedMemoPool(t)
		donor := NewSearcher(newEnvT(t, partitionCfg()))
		donor.Exhaustive(ctx, 4, 2000, 3)
		donor.Random(ctx, 5, 2000, 3, 3)
		bufs, slot := donor.bufs, donor.slots[0]
		states := slot.states()
		donor.Release()
		if len(bufs.slots) != 3 || bufs.src == nil || len(bufs.cands) == 0 || p.bytes == 0 || p.bytes != bufs.bytes {
			t.Fatalf("filed entry holds %d slots, generator %v, %d candidate ints, %d of the pool's %d bytes",
				len(bufs.slots), bufs.src != nil, len(bufs.cands), bufs.bytes, p.bytes)
		}

		cfg := partitionCfg()
		cfg.Seed, cfg.Cache.Seed = 41, 42 // LRU never reads the cache seed
		c0 := poolCounts()
		warm := NewSearcher(newEnvT(t, cfg))
		fresh := NewSearcher(newEnvT(t, cfg)) // the pool is empty again
		wantPoolDelta(t, "same config", c0, 1, 1, 0)
		if warm.slots[0] != slot || slot.states() != states || fresh.bufs == bufs || len(fresh.slots) != 0 {
			t.Fatal("the released memo was not handed on intact to the searcher of its config alone")
		}
		if got, want := searchLengths(warm, workers), searchLengths(fresh, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: a warm memo gave %+v, new buffers %+v", workers, got, want)
		}
		warm.Release()
		fresh.Release()

		EmptyMemoPool()
		c0 = poolCounts()
		reused := NewSearcher(newEnvT(t, twoWayCfg()))
		wantPoolDelta(t, "emptied pool", c0, 0, 1, 0)
		if reused.bufs != bufs || slot.states() != 0 {
			t.Fatal("a searcher on an emptied pool did not take the least recently filed entry's buffers, emptied")
		}
		isolatedMemoPool(t)
		fresh = NewSearcher(newEnvT(t, twoWayCfg()))
		if got, want := searchLengths(reused, workers), searchLengths(fresh, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: emptied buffers gave %+v, new buffers %+v", workers, got, want)
		}
	}
}

// TestMemoPoolKeepsSeedWhereCacheReadsIt: the pool key drops the env
// seed and the cache seed of a cache that never reads it, so such
// configs share their memo across seeds. A static CEASER key and a
// random mapping pass the walker gate and read the cache seed: at
// another seed they miss the pool, and their Results equal a cold
// searcher's, though every seed's roots look alike and the seeds'
// Results differ.
func TestMemoPoolKeepsSeedWhereCacheReadsIt(t *testing.T) {
	run := func(cfg env.Config) []Result {
		s := NewSearcher(newEnvT(t, cfg))
		defer s.Release()
		if !s.Parallel() {
			t.Fatalf("config %+v must pass the walker gate", cfg.Cache)
		}
		return searchLengths(s, 1)
	}
	at := func(cfg env.Config, envSeed, cacheSeed int64) env.Config {
		cfg.Seed, cfg.Cache.Seed = envSeed, cacheSeed
		return cfg
	}
	direct := env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 1},
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 3,
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
	}

	isolatedMemoPool(t)
	lru := direct
	run(at(lru, 1, 1))
	c0 := poolCounts()
	run(at(lru, 2, 1))
	run(at(lru, 3, 7))
	wantPoolDelta(t, "lru at other seeds", c0, 2, 0, 0)

	ceaser := direct
	ceaser.Cache.Defense = cache.DefenseConfig{Kind: cache.DefenseCEASER}
	mapped := direct
	mapped.Cache.RandomMapping = true
	for name, cfg := range map[string]env.Config{"ceaser": ceaser, "random-mapping": mapped} {
		isolatedMemoPool(t)
		cold2 := run(at(cfg, 1, 2))
		isolatedMemoPool(t)
		cold1 := run(at(cfg, 1, 1))
		if reflect.DeepEqual(cold1, cold2) {
			t.Fatalf("%s: cache seeds 1 and 2 must give different Results", name)
		}
		c0 := poolCounts()
		got2 := run(at(cfg, 5, 2))
		wantPoolDelta(t, name+" at another cache seed", c0, 0, 1, 0)
		if !reflect.DeepEqual(got2, cold2) {
			t.Fatalf("%s: cache seed 2 after seed 1 gave %+v, cold %+v", name, got2, cold2)
		}
		c0 = poolCounts()
		got1 := run(at(cfg, 6, 1))
		wantPoolDelta(t, name+" at the same cache seed", c0, 1, 0, 0)
		if !reflect.DeepEqual(got1, cold1) {
			t.Fatalf("%s: cache seed 1 on its warm memo gave %+v, cold %+v", name, got1, cold1)
		}
	}
}

// TestMemoPoolByteBound: the pool keeps its filed tables within
// memoPoolCap by evicting the least recently used memos, a checkout
// counts as a use, and a miss on a full pool takes the least recently
// used memo's buffers, emptied, in place of new ones.
func TestMemoPoolByteBound(t *testing.T) {
	p := isolatedMemoPool(t)
	cfgs := map[string]env.Config{}
	for i, name := range []string{"a", "b", "c", "d"} {
		cfg := noFindCfg()
		cfg.WindowSize = 8 + i // a key of its own, the same memo
		cfgs[name] = cfg
	}
	size := 0
	release := func(name string) *Searcher {
		s := NewSearcher(newEnvT(t, cfgs[name]))
		searchLengths(s, 1)
		b := s.bufs
		s.Release()
		if size == 0 {
			size = b.bytes
		}
		if b.bytes != size || p.bytes > memoPoolCap {
			t.Fatalf("%s: entry of %d bytes (want %d), pool %d bytes past the bound %d", name, b.bytes, size, p.bytes, memoPoolCap)
		}
		if got := obs.SearchMemoPoolBytes.Load(); got != int64(p.bytes) {
			t.Fatalf("%s: gauge %d, pool %d bytes", name, got, p.bytes)
		}
		return s
	}
	filed := func(name string) bool { return len(p.byKey[memoKey(newEnvT(t, cfgs[name]))]) > 0 }

	c0 := poolCounts()
	release("a")
	release("b")
	release("a") // a hit: b is now the least recently used
	wantPoolDelta(t, "filing under the bound", c0, 1, 2, 0)
	if p.bytes != 2*size || !filed("a") || !filed("b") {
		t.Fatalf("pool holds %d bytes, want two entries of %d", p.bytes, size)
	}

	memoPoolCap = 2 * size
	c0 = poolCounts()
	release("c")
	wantPoolDelta(t, "filing past the bound", c0, 0, 1, 1)
	if filed("b") || !filed("a") || !filed("c") || p.bytes != 2*size {
		t.Fatalf("filing c past the bound must evict b alone: a %v, b %v, c %v, %d bytes", filed("a"), filed("b"), filed("c"), p.bytes)
	}

	slot := p.list.next.slots[0] // a's, now the least recently used
	c0 = poolCounts()
	d := NewSearcher(newEnvT(t, cfgs["d"]))
	wantPoolDelta(t, "a miss on a full pool", c0, 0, 1, 1)
	if d.slots[0] != slot || slot.states() != 0 || filed("a") || !filed("c") || p.bytes != size {
		t.Fatal("a miss on a full pool must empty the least recently used memo for its buffers")
	}
	fresh := NewSearcher(newEnvT(t, cfgs["d"]))
	if got, want := searchLengths(d, 1), searchLengths(fresh, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("an evicted memo's buffers gave %+v, new ones %+v", got, want)
	}

	memoPoolCap = 0
	d.Release()
	if p.bytes != 0 || p.list.next != &p.list || len(p.byKey) != 0 {
		t.Fatalf("a zero bound must leave the pool empty, it holds %d bytes", p.bytes)
	}
}

// TestMemoPoolConcurrentCheckouts: searchers of one config built,
// searched and released concurrently never share a slot, and every one
// returns a cold searcher's Results. Run it under -race.
func TestMemoPoolConcurrentCheckouts(t *testing.T) {
	isolatedMemoPool(t)
	cfg := twoWayCfg()
	want := searchLengths(NewSearcher(newEnvT(t, cfg)), 2)
	var mu sync.Mutex
	inUse := map[*memoSlot]bool{}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 8 {
				c := cfg
				c.Seed = int64(100*g + i)
				e, err := env.New(c)
				if err != nil {
					errs <- err.Error()
					return
				}
				s := NewSearcher(e)
				got := searchLengths(s, 2)
				mu.Lock()
				for _, sl := range s.slots {
					if inUse[sl] {
						errs <- "two searchers hold one slot"
					}
					inUse[sl] = true
				}
				mu.Unlock()
				if !reflect.DeepEqual(got, want) {
					errs <- "a pooled searcher changed a Result"
				}
				mu.Lock()
				for _, sl := range s.slots {
					delete(inUse, sl)
				}
				mu.Unlock()
				s.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
