package env

import (
	"math/rand"
	"reflect"
	"testing"

	"autocat/internal/cache"
)

// snapCfg builds the property-test config for one (policy, defense,
// prefetcher) combination.
func snapCfg(policy cache.PolicyKind, defense cache.DefenseConfig, pf cache.PrefetcherKind, seed int64) Config {
	return Config{
		Cache: cache.Config{
			NumBlocks:  8,
			NumWays:    4,
			Policy:     policy,
			Prefetcher: pf,
			AddrSpace:  16,
			Defense:    defense,
			Seed:       seed,
		},
		AttackerLo: 0, AttackerHi: 5,
		VictimLo: 6, VictimHi: 7,
		VictimNoAccess: true,
		FlushEnable:    true,
		WindowSize:     12,
		Warmup:         -1,
		Seed:           seed,
	}
}

// nonGuessPool enumerates the env's non-guess actions.
func nonGuessPool(e *Env) []int {
	var pool []int
	for a := 0; a < e.NumActions(); a++ {
		kind, _ := e.DecodeAction(a)
		if kind != KindGuess && kind != KindGuessNone {
			pool = append(pool, a)
		}
	}
	return pool
}

// stepPair steps both envs with the same action and fails the test on
// any divergence in reward, done, observation, or the appended trace
// record.
func stepPair(t *testing.T, a, b *Env, action int, obsA, obsB []float64) bool {
	t.Helper()
	ra, da := a.Step(action)
	a.ObsInto(obsA)
	rb, db := b.Step(action)
	b.ObsInto(obsB)
	if ra != rb || da != db {
		t.Fatalf("action %d: reward/done diverged: (%v,%v) vs (%v,%v)", action, ra, da, rb, db)
	}
	for i := range obsA {
		if obsA[i] != obsB[i] {
			t.Fatalf("action %d: obs[%d] diverged: %v vs %v", action, i, obsA[i], obsB[i])
		}
	}
	ta, tb := a.Trace(), b.Trace()
	if len(ta) != len(tb) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(ta), len(tb))
	}
	la, lb := ta[len(ta)-1], tb[len(tb)-1]
	if la.Action != lb.Action || la.Kind != lb.Kind || la.Addr != lb.Addr ||
		la.Hit != lb.Hit || la.Latency != lb.Latency || la.Reward != lb.Reward ||
		la.GuessOK != lb.GuessOK {
		t.Fatalf("trace step diverged: %+v vs %+v", la, lb)
	}
	return da
}

// foreignTarget hides a simulator behind a type the env cannot see
// through, like a black-box hardware model.
type foreignTarget struct{ Target }

// TestSiblingIndependentTarget pins the sibling contract: the same
// configuration on an independent target, so two envs stepped in
// lockstep on one action stream stay identical (a shared cache would
// make the second see the first's fills), and an error for targets that
// cannot be rebuilt.
func TestSiblingIndependentTarget(t *testing.T) {
	hier := snapCfg(cache.LRU, cache.DefenseConfig{}, cache.NoPrefetch, 3)
	hier.Target = HierarchyTarget{H: cache.NewHierarchy(cache.HierarchyConfig{
		Cores: 2,
		L1:    cache.Config{NumBlocks: 2, NumWays: 2, Seed: 3},
		L2:    cache.Config{NumBlocks: 8, NumWays: 4, Seed: 3},
	})}
	cases := map[string]Config{
		"sim":       snapCfg(cache.PLRU, cache.DefenseConfig{}, cache.NextLine, 5),
		"hierarchy": hier,
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			a := mustEnv(t, cfg)
			b, err := a.Sibling()
			if err != nil {
				t.Fatal(err)
			}
			if h, ok := a.Config().Target.(HierarchyTarget); ok {
				bh := b.Config().Target.(HierarchyTarget)
				if bh.H == h.H || bh.H.Config() != h.H.Config() {
					t.Fatal("sibling must own a fresh hierarchy of the same configuration")
				}
			} else if !reflect.DeepEqual(b.Config(), a.Config()) {
				t.Fatalf("sibling config %+v, want %+v", b.Config(), a.Config())
			}
			pool := nonGuessPool(a)
			rng := rand.New(rand.NewSource(9))
			obsA, obsB := make([]float64, a.ObsDim()), make([]float64, b.ObsDim())
			for ep := 0; ep < 3; ep++ {
				a.Reset()
				b.Reset()
				b.ForceSecret(a.Secret())
				for !stepPair(t, a, b, pool[rng.Intn(len(pool))], obsA, obsB) {
				}
			}
		})
	}
	foreign := mustEnv(t, Config{
		Target:     foreignTarget{simTarget{c: cache.New(cache.Config{NumBlocks: 4, NumWays: 4})}},
		AttackerLo: 0, AttackerHi: 3,
		VictimLo: 0, VictimHi: 0,
		Warmup: -1,
	})
	if _, err := foreign.Sibling(); err == nil {
		t.Fatal("a foreign target has no sibling")
	}
}
