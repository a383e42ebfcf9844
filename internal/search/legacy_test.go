package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
)

// frozenDistinguishes is the re-simulating scan's success predicate as
// it stood before the scan gained per-search scratch, kept verbatim as
// the equivalence reference: a fresh secret list, signature slice and
// string-keyed map per candidate.
func frozenDistinguishes(e *env.Env, prefix []int) (bool, int) {
	secrets := e.Secrets()
	seen := map[string]bool{}
	steps := 0
	for _, s := range secrets {
		e.Reset()
		e.ForceSecret(s)
		sig := make([]byte, 0, len(prefix))
		for _, a := range prefix {
			kind, _ := e.DecodeAction(a)
			if kind == env.KindGuess || kind == env.KindGuessNone {
				return false, steps
			}
			_, done := e.Step(a)
			steps++
			sig = append(sig, e.SignatureChar())
			if done {
				return false, steps
			}
		}
		key := string(sig)
		if seen[key] {
			return false, steps
		}
		seen[key] = true
	}
	return true, steps
}

// frozenRandom and frozenExhaustive are the sequential scans driven by
// the frozen predicate.
func frozenRandom(e *env.Env, length, budget int, seed int64) Result {
	rng := rand.New(rand.NewSource(seed))
	pool := nonGuessActions(e)
	var res Result
	prefix := make([]int, length)
	for res.Sequences < budget {
		for i := range prefix {
			prefix[i] = pool[rng.Intn(len(pool))]
		}
		res.Sequences++
		ok, consumed := frozenDistinguishes(e, prefix)
		res.Steps += consumed
		if ok {
			res.Found = true
			res.Attack = append([]int(nil), prefix...)
			return res
		}
	}
	return res
}

func frozenExhaustive(e *env.Env, length, budget int) Result {
	pool := nonGuessActions(e)
	var res Result
	prefix := make([]int, length)
	idx := make([]int, length)
	for {
		for i := range prefix {
			prefix[i] = pool[idx[i]]
		}
		res.Sequences++
		ok, consumed := frozenDistinguishes(e, prefix)
		res.Steps += consumed
		if ok {
			res.Found = true
			res.Attack = append([]int(nil), prefix...)
			return res
		}
		if res.Sequences >= budget {
			return res
		}
		i := length - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(pool) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return res
		}
	}
}

// scanOn returns a searcher that runs the re-simulating scan on e
// itself, whatever e's config: the reference the walker must match.
func scanOn(e *env.Env) *Searcher {
	s := NewSearcher(e)
	s.walk, s.oneShot = false, true
	return s
}

// rngConfigs is the screen-rng grid's env shape: random and LRU
// replacement under skewed and rekeyed mappings, on the three screen
// geometries, with a single and a four-address victim.
func rngConfigs() map[string]env.Config {
	out := map[string]env.Config{}
	geoms := []cache.Config{{NumBlocks: 4, NumWays: 1}, {NumBlocks: 4, NumWays: 4}, {NumBlocks: 8, NumWays: 2}}
	defs := []cache.DefenseConfig{{Kind: cache.DefenseSkew}, {Kind: cache.DefenseCEASER, RekeyPeriod: 32}}
	seed := int64(1)
	for _, pol := range []cache.PolicyKind{cache.Random, cache.LRU} {
		for _, def := range defs {
			for _, g := range geoms {
				for _, vhi := range []cache.Addr{0, 3} {
					c := g
					c.Policy, c.Defense, c.Seed = pol, def, seed
					out[fmt.Sprintf("%s/%s/%dx%d/v0-%d", pol, def.Kind, g.NumBlocks, g.NumWays, vhi)] = env.Config{
						Cache:      c,
						AttackerLo: 4, AttackerHi: 7,
						VictimLo: 0, VictimHi: vhi,
						FlushEnable:    true,
						VictimNoAccess: true,
						Warmup:         -1,
						Seed:           seed,
					}
					seed++
				}
			}
		}
	}
	return out
}

func newEnvT(t *testing.T, cfg env.Config) *env.Env {
	t.Helper()
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestScanMatchesFrozenPredicate pins the scan's bit-for-bit contract on
// RNG-driven configs, where the cache's random streams carry over from
// one candidate to the next: every candidate's (ok, steps) matches the
// frozen predicate's on a twin env, and whole RandomSearch and
// ExhaustiveSearch runs return identical Results, Steps included.
func TestScanMatchesFrozenPredicate(t *testing.T) {
	const candidates = 2000
	ctx := context.Background()
	for name, cfg := range rngConfigs() {
		t.Run(name, func(t *testing.T) {
			ref, got := newEnvT(t, cfg), newEnvT(t, cfg)
			if incrementalOK(got) {
				t.Fatal("config must take the re-simulating scan")
			}
			pool := nonGuessActions(got)
			scanners := map[int]*scanner{}
			rng := rand.New(rand.NewSource(cfg.Seed))
			for c := 0; c < candidates; c++ {
				length := 1 + rng.Intn(6)
				sc := scanners[length]
				if sc == nil {
					sc = newScanner(got, length)
					scanners[length] = sc
				}
				prefix := make([]int, length)
				for i := range prefix {
					prefix[i] = pool[rng.Intn(len(pool))]
				}
				if c%97 == 0 {
					prefix[rng.Intn(length)] = got.GuessNoneAction()
				}
				wantOK, wantSteps := frozenDistinguishes(ref, prefix)
				gotOK, gotSteps := sc.distinguishes(prefix)
				if wantOK != gotOK || wantSteps != gotSteps {
					t.Fatalf("candidate %d %v: scan (%v,%d), frozen (%v,%d)", c, prefix, gotOK, gotSteps, wantOK, wantSteps)
				}
			}
			for _, length := range []int{3, 5} {
				want := frozenRandom(ref, length, 300, int64(length))
				if r := RandomSearch(ctx, got, length, 300, int64(length)); !reflect.DeepEqual(r, want) {
					t.Fatalf("RandomSearch length %d: %+v, frozen %+v", length, r, want)
				}
				want = frozenExhaustive(ref, length, 300)
				if r := ExhaustiveSearch(ctx, got, length, 300); !reflect.DeepEqual(r, want) {
					t.Fatalf("ExhaustiveSearch length %d: %+v, frozen %+v", length, r, want)
				}
			}
		})
	}
}

// TestScanGuessChargesAsFrozen: a candidate with a guess at its start,
// in its middle or at its end fails after charging exactly the steps the
// frozen per-step check charged, and leaves the env's streams where it
// left them: the next secrets drawn and the next episode's trace match.
func TestScanGuessChargesAsFrozen(t *testing.T) {
	const length = 5
	for _, name := range []string{"random/skew/8x2/v0-3", "random/ceaser/4x4/v0-0", "lru/ceaser/8x2/v0-3"} {
		cfg := rngConfigs()[name]
		cfg.Warmup = 0 // every Reset also draws warm-up accesses from the env stream
		ref, got := newEnvT(t, cfg), newEnvT(t, cfg)
		sc := newScanner(got, length)
		pool := nonGuessActions(got)
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, guess := range []int{got.GuessNoneAction(), got.GuessAction(0)} {
			for _, pos := range []int{0, length / 2, length - 1} {
				prefix := make([]int, length)
				for i := range prefix {
					prefix[i] = pool[rng.Intn(len(pool))]
				}
				prefix[pos] = guess
				wantOK, wantSteps := frozenDistinguishes(ref, prefix)
				gotOK, gotSteps := sc.distinguishes(prefix)
				if gotOK || wantOK || gotSteps != wantSteps || gotSteps != pos {
					t.Fatalf("%s: guess at %d of %v: scan (%v,%d), frozen (%v,%d)", name, pos, prefix, gotOK, gotSteps, wantOK, wantSteps)
				}
				for ep := 0; ep < 3; ep++ {
					ref.Reset()
					got.Reset()
					if ref.Secret() != got.Secret() {
						t.Fatalf("%s: guess at %d: next secret %d, frozen %d", name, pos, got.Secret(), ref.Secret())
					}
					for _, a := range pool {
						ref.Step(a)
						got.Step(a)
					}
					if !reflect.DeepEqual(got.Trace(), ref.Trace()) {
						t.Fatalf("%s: guess at %d: next episode's trace %+v, frozen %+v", name, pos, got.Trace(), ref.Trace())
					}
				}
			}
		}
	}
}

// TestScanZeroAllocs pins the scan's allocation contract: once the
// scanner exists, evaluating a candidate on a random-replacement config
// allocates nothing.
func TestScanZeroAllocs(t *testing.T) {
	cfg := rngConfigs()["random/skew/4x4/v0-3"]
	e := newEnvT(t, cfg)
	pool := nonGuessActions(e)
	const length = 6
	sc := newScanner(e, length)
	prefix := make([]int, length)
	rng := rand.New(rand.NewSource(4))
	sc.distinguishes(prefix) // one warm-up candidate
	allocs := testing.AllocsPerRun(500, func() {
		for i := range prefix {
			prefix[i] = pool[rng.Intn(len(pool))]
		}
		sc.distinguishes(prefix)
	})
	if allocs != 0 {
		t.Fatalf("legacy candidate allocated %v per run, want 0", allocs)
	}
}
