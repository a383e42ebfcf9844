package search

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
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
						ref.StepLite(a)
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

// TestReleasedBuffersKeepResults: a memo handed the buffers another memo
// released, tables grown under another pool width included, returns the
// Results of a memo built on empty ones, on one and several workers.
func TestReleasedBuffersKeepResults(t *testing.T) {
	ctx := context.Background()
	donor := NewSearcher(newEnvT(t, partitionCfg()))
	donor.Exhaustive(ctx, 4, 2000, 3)
	donor.Random(ctx, 5, 2000, 3, 3)
	bufs := donor.bufs
	donor.Release()
	if len(bufs.tables) != 3 || bufs.rng == nil || len(bufs.cands) == 0 {
		t.Fatalf("released buffers hold %d tables, rng %v, %d candidate ints", len(bufs.tables), bufs.rng != nil, len(bufs.cands))
	}
	for _, workers := range []int{1, 3} {
		fresh, reused := NewSearcher(newEnvT(t, twoWayCfg())), NewSearcher(newEnvT(t, twoWayCfg()))
		fresh.bufs, reused.bufs = new(memoBuffers), bufs
		for length := 2; length <= 5; length++ {
			wantEx, wantRd := fresh.Exhaustive(ctx, length, 600, workers), fresh.Random(ctx, length, 600, 9, workers)
			ex, rd := reused.Exhaustive(ctx, length, 600, workers), reused.Random(ctx, length, 600, 9, workers)
			if !reflect.DeepEqual(ex, wantEx) || !reflect.DeepEqual(rd, wantRd) {
				t.Fatalf("workers %d length %d: reused buffers gave %+v %+v, empty ones %+v %+v", workers, length, ex, rd, wantEx, wantRd)
			}
		}
		reused.Release()
	}
}
