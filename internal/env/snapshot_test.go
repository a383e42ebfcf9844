package env

import (
	"fmt"
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
	ra, da := a.StepInto(action, obsA)
	rb, db := b.StepInto(action, obsB)
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
		la.GuessOK != lb.GuessOK || len(la.Prefetched) != len(lb.Prefetched) {
		t.Fatalf("trace step diverged: %+v vs %+v", la, lb)
	}
	for i := range la.Prefetched {
		if la.Prefetched[i] != lb.Prefetched[i] {
			t.Fatalf("prefetched[%d] diverged: %v vs %v", i, la.Prefetched[i], lb.Prefetched[i])
		}
	}
	return da
}

// TestSnapshotRestoreStreamEquivalence is the snapshot contract property
// test: envs A and B run in lockstep; A snapshots mid-episode, runs junk
// actions, restores, and must then reproduce B's step stream
// byte-identically — across every replacement policy × defense
// (including a CEASER rekey-epoch boundary inside the snapshotted
// window) × prefetcher combination.
func TestSnapshotRestoreStreamEquivalence(t *testing.T) {
	policies := []cache.PolicyKind{cache.LRU, cache.PLRU, cache.RRIP, cache.Random}
	defenses := []struct {
		name string
		d    cache.DefenseConfig
	}{
		{"none", cache.DefenseConfig{}},
		// RekeyPeriod 6 puts a rekey inside both the junk run and the
		// replayed suffix, so the epoch boundary itself is snapshotted.
		{"ceaser-rekey", cache.DefenseConfig{Kind: cache.DefenseCEASER, RekeyPeriod: 6}},
		{"skew", cache.DefenseConfig{Kind: cache.DefenseSkew}},
		{"partition", cache.DefenseConfig{Kind: cache.DefensePartition, VictimWays: 1}},
	}
	prefetchers := []cache.PrefetcherKind{cache.NoPrefetch, cache.StreamPrefetch}

	for _, pol := range policies {
		for _, def := range defenses {
			for _, pf := range prefetchers {
				name := fmt.Sprintf("%s/%s/%s", pol, def.name, pf)
				t.Run(name, func(t *testing.T) {
					testSnapshotStream(t, snapCfg(pol, def.d, pf, 11))
				})
			}
		}
	}
}

func testSnapshotStream(t *testing.T, cfg Config) {
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.SnapshotSupported() {
		t.Fatal("sim-target env must be snapshot-capable")
	}
	rng := rand.New(rand.NewSource(99))
	pool := nonGuessPool(a)
	obsA := make([]float64, a.ObsDim())
	obsB := make([]float64, b.ObsDim())

	for episode := 0; episode < 3; episode++ {
		a.Reset()
		b.Reset()
		secret := a.Secrets()[episode%len(a.Secrets())]
		a.ForceSecret(secret)
		b.ForceSecret(secret)

		// Lockstep prefix.
		for i := 0; i < 5; i++ {
			if stepPair(t, a, b, pool[rng.Intn(len(pool))], obsA, obsB) {
				t.Fatal("episode ended during prefix")
			}
		}

		var snap Snapshot
		a.SnapshotInto(&snap)

		// Mutate A: junk actions B never sees (stop early if the episode
		// ends — the snapshot still restores a live mid-episode state).
		for i := 0; i < 4; i++ {
			if _, done := a.StepLite(pool[rng.Intn(len(pool))]); done {
				break
			}
		}
		a.RestoreFrom(&snap)

		// A must now replay B's stream byte-identically to episode end.
		for {
			if stepPair(t, a, b, pool[rng.Intn(len(pool))], obsA, obsB) {
				break
			}
		}
	}
}

// TestSnapshotRestoreMultiGuess exercises the env-RNG capture: in
// multi-secret episodes a guess redraws the secret from the env stream,
// so a snapshot taken before a guess must rewind the stream for the
// replayed redraws to match.
func TestSnapshotRestoreMultiGuess(t *testing.T) {
	cfg := snapCfg(cache.LRU, cache.DefenseConfig{}, cache.NoPrefetch, 7)
	cfg.EpisodeSteps = 24
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pool := nonGuessPool(a)
	guess := a.GuessAction(cfg.VictimLo)
	obsA := make([]float64, a.ObsDim())
	obsB := make([]float64, b.ObsDim())

	a.Reset()
	b.Reset()
	b.ForceSecret(a.Secret())

	for i := 0; i < 4; i++ {
		stepPair(t, a, b, pool[rng.Intn(len(pool))], obsA, obsB)
	}
	var snap Snapshot
	a.SnapshotInto(&snap)
	// Junk including guesses, which consume A's env stream.
	for i := 0; i < 3; i++ {
		a.StepLite(guess)
		a.StepLite(pool[rng.Intn(len(pool))])
	}
	a.RestoreFrom(&snap)
	// Replay with guesses: the redrawn secrets (and everything after)
	// must match B's.
	for {
		if stepPair(t, a, b, guess, obsA, obsB) {
			break
		}
		if a.Secret() != b.Secret() {
			t.Fatalf("redrawn secrets diverged: %v vs %v", a.Secret(), b.Secret())
		}
		if stepPair(t, a, b, pool[rng.Intn(len(pool))], obsA, obsB) {
			break
		}
	}
}

// TestSnapshotRestoreHierarchy covers the two-level target: every cache
// level restores.
func TestSnapshotRestoreHierarchy(t *testing.T) {
	mk := func() *Env {
		h := cache.NewHierarchy(cache.HierarchyConfig{
			Cores: 2,
			L1:    cache.Config{NumBlocks: 2, NumWays: 2, Seed: 3},
			L2:    cache.Config{NumBlocks: 8, NumWays: 4, Seed: 3},
		})
		e, err := New(Config{
			Target:     HierarchyTarget{H: h},
			Cache:      cache.Config{NumBlocks: 8, NumWays: 4},
			AttackerLo: 0, AttackerHi: 5,
			VictimLo: 6, VictimHi: 7,
			VictimNoAccess: true,
			FlushEnable:    true,
			WindowSize:     12,
			Warmup:         -1,
			Seed:           3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	if !a.SnapshotSupported() {
		t.Fatal("hierarchy env must be snapshot-capable")
	}
	rng := rand.New(rand.NewSource(17))
	pool := nonGuessPool(a)
	obsA := make([]float64, a.ObsDim())
	obsB := make([]float64, b.ObsDim())

	a.Reset()
	b.Reset()
	b.ForceSecret(a.Secret())
	for i := 0; i < 4; i++ {
		stepPair(t, a, b, pool[rng.Intn(len(pool))], obsA, obsB)
	}
	var snap Snapshot
	a.SnapshotInto(&snap)
	for i := 0; i < 4; i++ {
		if _, done := a.StepLite(pool[rng.Intn(len(pool))]); done {
			break
		}
	}
	a.RestoreFrom(&snap)
	for {
		if stepPair(t, a, b, pool[rng.Intn(len(pool))], obsA, obsB) {
			break
		}
	}
}

// TestSnapshotZeroAlloc pins the steady-state allocation contract:
// after the first capture grows the buffers, SnapshotInto and
// RestoreFrom allocate nothing.
func TestSnapshotZeroAlloc(t *testing.T) {
	cfg := snapCfg(cache.LRU, cache.DefenseConfig{}, cache.NoPrefetch, 1)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := nonGuessPool(e)
	e.Reset()
	for i := 0; i < 5; i++ {
		e.StepLite(pool[i%len(pool)])
	}
	var snap Snapshot
	e.SnapshotInto(&snap) // grow buffers once
	allocs := testing.AllocsPerRun(200, func() {
		e.SnapshotInto(&snap)
		e.RestoreFrom(&snap)
	})
	if allocs != 0 {
		t.Fatalf("SnapshotInto+RestoreFrom allocated %v per run, want 0", allocs)
	}
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
