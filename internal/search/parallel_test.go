package search

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/detect"
	"autocat/internal/env"
	"autocat/internal/obs"
	"autocat/internal/rng"
)

// incrementalOK is the walker gate under the name the equivalence tests
// use.
var incrementalOK = walkable

func twoWayCfg() env.Config {
	return env.Config{
		Cache:      cache.Config{NumBlocks: 2, NumWays: 2},
		AttackerLo: 1, AttackerHi: 2,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     10,
		Warmup:         -1,
		Seed:           3,
	}
}

func noFindCfg() env.Config {
	return env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 4},
		AttackerLo: 1, AttackerHi: 2,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     8,
		Warmup:         -1,
		Seed:           2,
	}
}

// TestIncrementalMatchesLegacy pins the equivalence contract: on
// replay-deterministic configs the trie-walking searches report the same
// Found, Sequences, and Attack as the re-simulating scan, with no more
// environment steps.
func TestIncrementalMatchesLegacy(t *testing.T) {
	cases := []struct {
		name   string
		cfg    env.Config
		length int
		budget int
		seed   int64
	}{
		{"tiny-find", twoWayCfg(), 5, 5000, 11},
		{"no-find-exhaust", noFindCfg(), 2, 30, 3},
		{"budget-one", twoWayCfg(), 3, 1, 5},
		{"budget-zero", twoWayCfg(), 3, 0, 5},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			le, err := env.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ie, err := env.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !incrementalOK(ie) {
				t.Fatal("test config must be replay-deterministic")
			}

			lr := scanOn(le).Exhaustive(ctx, tc.length, tc.budget, 1)
			ir := NewSearcher(ie).Exhaustive(ctx, tc.length, tc.budget, 1)
			if lr.Found != ir.Found || lr.Sequences != ir.Sequences || !reflect.DeepEqual(lr.Attack, ir.Attack) {
				t.Fatalf("exhaustive diverged: legacy %+v vs incremental %+v", lr, ir)
			}
			if ir.Steps > lr.Steps {
				t.Fatalf("incremental exhaustive used more steps (%d) than legacy (%d)", ir.Steps, lr.Steps)
			}

			if tc.budget > 0 {
				lr = scanOn(le).Random(ctx, tc.length, tc.budget, tc.seed, 1)
				ir = NewSearcher(ie).Random(ctx, tc.length, tc.budget, tc.seed, 1)
				if lr.Found != ir.Found || lr.Sequences != ir.Sequences || !reflect.DeepEqual(lr.Attack, ir.Attack) {
					t.Fatalf("random diverged: legacy %+v vs incremental %+v", lr, ir)
				}
				if ir.Steps > lr.Steps {
					t.Fatalf("incremental random used more steps (%d) than legacy (%d)", ir.Steps, lr.Steps)
				}
			}
		})
	}
}

// TestSearchWorkerCountInvariance is the sharding determinism gate: the
// full Result — including Steps — must be identical for every worker
// count, both when a find exists and when the budget exhausts.
func TestSearchWorkerCountInvariance(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		cfg    env.Config
		length int
		budget int
	}{
		{"find", twoWayCfg(), 5, 5000},
		{"exhaust", noFindCfg(), 2, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var exBase, rdBase Result
			for i, workers := range []int{1, 2, 4} {
				ex := NewSearcher(newEnvT(t, tc.cfg)).Exhaustive(ctx, tc.length, tc.budget, workers)
				rd := NewSearcher(newEnvT(t, tc.cfg)).Random(ctx, tc.length, tc.budget, 11, workers)
				if i == 0 {
					exBase, rdBase = ex, rd
					continue
				}
				if !reflect.DeepEqual(ex, exBase) {
					t.Fatalf("exhaustive result varies with workers=%d: %+v vs %+v", workers, ex, exBase)
				}
				if !reflect.DeepEqual(rd, rdBase) {
					t.Fatalf("random result varies with workers=%d: %+v vs %+v", workers, rd, rdBase)
				}
			}
		})
	}
}

// TestSearcherScanContract pins what a Searcher promises on each
// evaluator. On the walker and on the scan (a random-replacement config
// whose cache RNG survives Reset, so a search that continued the
// previous one's env would charge other steps) a 1-worker search on a
// fresh Searcher
// equals the one-shot search on a fresh env, and so does a 3-worker
// search. On the scan every search scans a fresh env, so a second
// same-length search on the same Searcher returns the first one's
// Result, the worker request is ignored, and Parallel reports false.
func TestSearcherScanContract(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		cfg  env.Config
		walk bool
	}{
		{"walker", twoWayCfg(), true},
		{"scan", rngConfigs()["random/ceaser/4x1/v0-0"], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantEx := ExhaustiveSearch(ctx, newEnvT(t, tc.cfg), 4, 500)
			wantRd := RandomSearch(ctx, newEnvT(t, tc.cfg), 4, 500, 9)
			if wantEx.Steps == 0 || wantRd.Steps == 0 {
				t.Fatalf("searches did no work: %+v %+v", wantEx, wantRd)
			}
			s := NewSearcher(newEnvT(t, tc.cfg))
			defer s.Release()
			if s.Parallel() != tc.walk {
				t.Fatalf("Parallel() = %v, want %v", s.Parallel(), tc.walk)
			}
			for _, workers := range []int{1, 1, 3} {
				if ex := s.Exhaustive(ctx, 4, 500, workers); !reflect.DeepEqual(ex, wantEx) {
					t.Fatalf("workers %d: Exhaustive %+v, one-shot ExhaustiveSearch %+v", workers, ex, wantEx)
				}
				if rd := s.Random(ctx, 4, 500, 9, workers); !reflect.DeepEqual(rd, wantRd) {
					t.Fatalf("workers %d: Random %+v, one-shot RandomSearch %+v", workers, rd, wantRd)
				}
			}
		})
	}
}

// foreignTarget hides a simulator behind a type the env cannot see
// through, like a black-box hardware model.
type foreignTarget struct{ env.Target }

// TestSearchNLegacyFallback: configs outside the walker gate must take
// the sequential legacy path regardless of the requested worker count
// and match the single-env search exactly. Random replacement is not
// replay-deterministic; the replay key holds no detector state; a
// foreign target has no replay key at all.
func TestSearchNLegacyFallback(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() env.Config
	}{
		{"random-replacement", func() env.Config {
			cfg := twoWayCfg()
			cfg.Cache.Policy = cache.Random
			return cfg
		}},
		{"detector", func() env.Config {
			cfg := twoWayCfg()
			cfg.Detector = detect.NewMissBased()
			return cfg
		}},
		{"foreign-target", func() env.Config {
			cfg := twoWayCfg()
			cfg.Target = foreignTarget{env.HierarchyTarget{H: cache.NewHierarchy(cache.HierarchyConfig{
				Cores: 2,
				L1:    cache.Config{NumBlocks: 2, NumWays: 2},
				L2:    cache.Config{NumBlocks: 2, NumWays: 2},
			})}}
			return cfg
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnvT(t, tc.cfg())
			if incrementalOK(e) {
				t.Fatal("config must stay on the re-simulating scan")
			}
			want := scanOn(e).Random(ctx, 3, 200, 5, 1)
			got := NewSearcher(newEnvT(t, tc.cfg())).Random(ctx, 3, 200, 5, 4)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("fallback diverged: %+v vs %+v", got, want)
			}
		})
	}
}

// TestSearchEdgeLengths pins the arithmetic fast paths: length 0 and
// length ≥ MaxSteps agree with the legacy scan on Found, Sequences, and
// Attack for both searches.
func TestSearchEdgeLengths(t *testing.T) {
	ctx := context.Background()
	cfg := twoWayCfg()
	for _, length := range []int{0, 10, 12} { // WindowSize is 10
		le, err := env.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ie, err := env.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lr := scanOn(le).Exhaustive(ctx, length, 20, 1)
		ir := NewSearcher(ie).Exhaustive(ctx, length, 20, 1)
		if lr.Found != ir.Found || lr.Sequences != ir.Sequences || !reflect.DeepEqual(lr.Attack, ir.Attack) {
			t.Fatalf("length %d exhaustive: legacy %+v vs incremental %+v", length, lr, ir)
		}
		lr = scanOn(le).Random(ctx, length, 20, 1, 1)
		ir = NewSearcher(ie).Random(ctx, length, 20, 1, 1)
		if lr.Found != ir.Found || lr.Sequences != ir.Sequences || !reflect.DeepEqual(lr.Attack, ir.Attack) {
			t.Fatalf("length %d random: legacy %+v vs incremental %+v", length, lr, ir)
		}
	}
}

// TestDFSDescendZeroAlloc pins the walker's allocation contract: once
// its memo holds the transitions a move takes (AllocsPerRun's warm-up
// run fills it), sibling moves (rewind+descend) and random-batch
// candidates allocate nothing, a walker for a new length on the warm
// memo descends without allocating, and interning a known key allocates
// nothing.
func TestDFSDescendZeroAlloc(t *testing.T) {
	e := newEnvT(t, twoWayCfg())
	m := NewSearcher(e)
	pool := m.pool
	wk := m.walkers(1, 4)[0]
	wk.descend(pool[0])
	wk.descend(pool[1])
	allocs := testing.AllocsPerRun(100, func() {
		wk.depth = 1
		wk.descend(pool[0])
		wk.depth = 1
		wk.descend(pool[1])
	})
	if allocs != 0 {
		t.Fatalf("descend allocated %v per run, want 0", allocs)
	}

	// Attacker accesses alone never distinguish (the victim never runs),
	// so every candidate walks its full length. The batch restarts at
	// every depth 0-4, 4 being a repeated candidate.
	a, b := e.AccessAction(1), e.AccessAction(2)
	cands := []int{
		a, a, a, a,
		a, a, a, b,
		a, a, b, a,
		a, b, a, a,
		a, b, a, a,
		b, a, a, a,
		b, a, a, b,
		b, b, b, b,
	}
	allocs = testing.AllocsPerRun(100, func() {
		wk.restart()
		for j := 0; j < len(cands)/4; j++ {
			if wk.evalCandidate(cands, j) {
				t.Fatalf("candidate %d distinguished without a victim access", j)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("evalCandidate allocated %v per batch, want 0", allocs)
	}

	// A length-3 walker on the same slot follows a path the length-4
	// batch already took: it simulates nothing, its warm-up run
	// included, and allocates nothing.
	wk3 := m.walkers(1, 3)[0]
	sim0 := wk3.slot.simulated
	allocs = testing.AllocsPerRun(100, func() {
		wk3.restart()
		for _, act := range []int{a, b, a} {
			wk3.descend(act)
		}
	})
	if allocs != 0 || wk3.slot.simulated != sim0 {
		t.Fatalf("new-length walker on a warm memo allocated %v and simulated %d, want 0 and 0", allocs, wk3.slot.simulated-sim0)
	}

	s := wk.slot
	key := append([]byte(nil), s.key(s.roots[0])...)
	n := s.states()
	allocs = testing.AllocsPerRun(100, func() {
		if s.intern(key) != s.roots[0] {
			t.Fatal("interning a known key returned another id")
		}
	})
	if allocs != 0 || s.states() != n {
		t.Fatalf("interning a known key allocated %v and added %d states, want 0 and 0", allocs, s.states()-n)
	}
}

// hierarchyEnv builds a two-level-hierarchy env: the target is a shared
// object, so walkers that stepped it instead of their own siblings would
// race.
func hierarchyEnv(t *testing.T) *env.Env {
	t.Helper()
	h := cache.NewHierarchy(cache.HierarchyConfig{
		Cores: 2,
		L1:    cache.Config{NumBlocks: 2, NumWays: 2},
		L2:    cache.Config{NumBlocks: 4, NumWays: 4},
	})
	return newEnvT(t, env.Config{
		Target:     env.HierarchyTarget{H: h},
		Cache:      cache.Config{NumBlocks: 4, NumWays: 4},
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 0,
		FlushEnable:    true,
		VictimNoAccess: true,
		WindowSize:     10,
		Warmup:         -1,
		Seed:           4,
	})
}

// TestHierarchySearchWorkerCountInvariance: on a hierarchy target every
// worker walks its own sibling hierarchies, so the Result is the same
// for 1 and 3 workers (and -race sees no shared target).
func TestHierarchySearchWorkerCountInvariance(t *testing.T) {
	ctx := context.Background()
	if !incrementalOK(hierarchyEnv(t)) {
		t.Fatal("hierarchy config must run on the walker")
	}
	for _, length := range []int{2, 4} {
		exBase := NewSearcher(hierarchyEnv(t)).Exhaustive(ctx, length, 900, 1)
		rdBase := NewSearcher(hierarchyEnv(t)).Random(ctx, length, 900, 5, 1)
		if exBase.Steps == 0 || rdBase.Steps == 0 {
			t.Fatalf("length %d: searches did no work: %+v %+v", length, exBase, rdBase)
		}
		if ex := NewSearcher(hierarchyEnv(t)).Exhaustive(ctx, length, 900, 3); !reflect.DeepEqual(ex, exBase) {
			t.Fatalf("length %d exhaustive: workers 3 %+v, workers 1 %+v", length, ex, exBase)
		}
		if rd := NewSearcher(hierarchyEnv(t)).Random(ctx, length, 900, 5, 3); !reflect.DeepEqual(rd, rdBase) {
			t.Fatalf("length %d random: workers 3 %+v, workers 1 %+v", length, rd, rdBase)
		}
	}
}

// TestWalkerPublishesCacheCounts: the memo's scratch envs never finish
// an episode, so a search flushes their cache counts when it returns,
// together with the search counters. With flush actions off and no
// no-access secret every simulated step is exactly one cache access, and
// the memo answers most charged steps without simulating them. Several
// lengths on one memo reuse its slots, and each search publishes only
// what it simulated itself. The joint-node counters publish the slots'
// descends and node-edge misses the same way: some descends miss, and
// none misses more than once.
func TestWalkerPublishesCacheCounts(t *testing.T) {
	e := newEnvT(t, env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 4},
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 3,
		WindowSize: 10,
		Warmup:     -1,
		Seed:       6,
	})
	if !incrementalOK(e) {
		t.Fatal("config must run on the walker")
	}
	m := NewSearcher(e)
	acc0, sim0, steps0 := obs.CacheAccesses.Load(), obs.SearchSimulated.Load(), obs.SearchSteps.Load()
	nodes0, misses0 := obs.SearchNodes.Load(), obs.SearchNodeMisses.Load()
	charged := 0
	for length := 3; length <= 6; length++ {
		res := m.Random(context.Background(), length, 600, 2, 2)
		if res.Steps == 0 {
			t.Fatalf("length %d: search did no work", length)
		}
		charged += res.Steps
	}
	simulated, descends, misses := 0, 0, 0
	for _, s := range m.slots {
		simulated += s.simulated
		descends += s.descends
		misses += s.nodeMisses
	}
	acc, sim := obs.CacheAccesses.Load()-acc0, obs.SearchSimulated.Load()-sim0
	if acc != uint64(simulated) || sim != uint64(simulated) {
		t.Fatalf("published %d cache accesses and %d simulated steps for %d simulated transitions", acc, sim, simulated)
	}
	if got := obs.SearchSteps.Load() - steps0; got != uint64(charged) {
		t.Fatalf("published %d steps for Results with %d", got, charged)
	}
	if sim == 0 || sim >= uint64(charged) {
		t.Fatalf("simulated %d of %d charged steps, want 0 < simulated < steps", sim, charged)
	}
	nodes, nodeMisses := obs.SearchNodes.Load()-nodes0, obs.SearchNodeMisses.Load()-misses0
	if nodes != uint64(descends) || nodeMisses != uint64(misses) {
		t.Fatalf("published %d descends and %d node misses for slots with %d and %d", nodes, nodeMisses, descends, misses)
	}
	if nodeMisses == 0 || nodeMisses > nodes {
		t.Fatalf("published %d node misses for %d descends, want 0 < misses <= descends", nodeMisses, nodes)
	}
}

// TestMemoRebuildKeepsResults: a walker whose memo is rebuilt at every
// restart returns the same Results, on one and several workers, and
// simulates more steps when the search spans several shards and batches.
// The growth check runs on one worker only: with several, shard claiming
// can hand every walker a single shard, so none restarts past the cap
// and both runs simulate the same count. A slot whose node table, but
// not its state table, is past the cap is rebuilt too: repeating the
// searches on it simulates again, where a warm slot would simulate
// nothing, and returns the same Results.
func TestMemoRebuildKeepsResults(t *testing.T) {
	ctx := context.Background()
	search := func(cfg env.Config, workers int) (ex, rd Result, sim uint64) {
		sim0 := obs.SearchSimulated.Load()
		ex = NewSearcher(newEnvT(t, cfg)).Exhaustive(ctx, 4, 600, workers)
		rd = NewSearcher(newEnvT(t, cfg)).Random(ctx, 4, 600, 7, workers)
		return ex, rd, obs.SearchSimulated.Load() - sim0
	}
	savedCap := memoCap
	defer func() { memoCap = savedCap }()
	for _, tc := range []struct {
		cfg   env.Config
		grows bool
	}{{twoWayCfg(), false}, {noFindCfg(), true}} {
		for _, workers := range []int{1, 3} {
			ex, rd, sim := search(tc.cfg, workers)
			memoCap = 0
			ex0, rd0, sim0 := search(tc.cfg, workers)
			memoCap = savedCap
			if !reflect.DeepEqual(ex, ex0) || !reflect.DeepEqual(rd, rd0) {
				t.Fatalf("workers %d: rebuilt memo changed results: %+v %+v vs %+v %+v", workers, ex0, rd0, ex, rd)
			}
			if tc.grows && workers == 1 && sim0 <= sim {
				t.Fatalf("workers %d: rebuilding simulated %d steps, keeping %d", workers, sim0, sim)
			}
		}
	}

	cfg := twoWayCfg()
	cfg.Cache = cache.Config{NumBlocks: 8, NumWays: 2, Defense: cache.DefenseConfig{Kind: cache.DefensePartition}}
	cfg.AttackerLo, cfg.AttackerHi, cfg.VictimHi, cfg.FlushEnable = 0, 3, 3, true
	m := NewSearcher(newEnvT(t, cfg))
	ex, rd := m.Exhaustive(ctx, 4, 600, 1), m.Random(ctx, 4, 600, 7, 1)
	s := m.slots[0]
	if s.nodes() <= s.states() {
		t.Fatalf("config must intern more nodes (%d) than states (%d)", s.nodes(), s.states())
	}
	memoCap = s.states()
	sim := s.simulated
	ex2, rd2 := m.Exhaustive(ctx, 4, 600, 1), m.Random(ctx, 4, 600, 7, 1)
	memoCap = savedCap
	if !reflect.DeepEqual(ex, ex2) || !reflect.DeepEqual(rd, rd2) {
		t.Fatalf("node-table rebuild changed results: %+v %+v vs %+v %+v", ex2, rd2, ex, rd)
	}
	if s.simulated == sim {
		t.Fatal("a slot past memoCap in nodes alone was not rebuilt")
	}
}

// TestMemoSharedAcrossLengths: one memo serves every length of an
// exploration. Repeating a length on a warm memo simulates nothing, and
// Results on a shared memo equal those of a fresh memo per length, also
// when memoCap drops to 0 partway through and every later restart
// rebuilds the slots.
func TestMemoSharedAcrossLengths(t *testing.T) {
	ctx := context.Background()
	simulated := func(m *Searcher) (n int) {
		for _, s := range m.slots {
			n += s.simulated
		}
		return n
	}
	m := NewSearcher(newEnvT(t, noFindCfg()))
	ex, rd := m.Exhaustive(ctx, 4, 600, 1), m.Random(ctx, 4, 600, 7, 1)
	sim := simulated(m)
	if ex2, rd2 := m.Exhaustive(ctx, 4, 600, 1), m.Random(ctx, 4, 600, 7, 1); !reflect.DeepEqual(ex, ex2) || !reflect.DeepEqual(rd, rd2) {
		t.Fatalf("repeat on a warm memo changed results: %+v %+v vs %+v %+v", ex2, rd2, ex, rd)
	}
	if got := simulated(m) - sim; got != 0 {
		t.Fatalf("repeating a length on a warm memo simulated %d transitions, want 0", got)
	}

	savedCap := memoCap
	defer func() { memoCap = savedCap }()
	for _, cfg := range []env.Config{twoWayCfg(), noFindCfg()} {
		for _, workers := range []int{1, 3} {
			exMemo, rdMemo := NewSearcher(newEnvT(t, cfg)), NewSearcher(newEnvT(t, cfg))
			for length := 1; length <= 6; length++ {
				if length >= 4 {
					memoCap = 0
				}
				ex, rd := exMemo.Exhaustive(ctx, length, 600, workers), rdMemo.Random(ctx, length, 600, int64(length), workers)
				memoCap = savedCap
				wantEx := NewSearcher(newEnvT(t, cfg)).Exhaustive(ctx, length, 600, workers)
				wantRd := NewSearcher(newEnvT(t, cfg)).Random(ctx, length, 600, int64(length), workers)
				if !reflect.DeepEqual(ex, wantEx) || !reflect.DeepEqual(rd, wantRd) {
					t.Fatalf("workers %d length %d: shared memo gave %+v %+v, fresh %+v %+v", workers, length, ex, rd, wantEx, wantRd)
				}
			}
		}
	}
}

// TestUniformMatchesIntn: the random search's draw is bit for bit
// rand.Intn's over 1M draws, and leaves the source where Intn leaves it,
// at the pool width of every screen and serve grid point (four attacker
// accesses, four flushes and the victim trigger) and at widths on both
// of its paths, powers of two and not. At width 2²⁰+1 about one draw in
// 2000 is rejected, so fill's redraw of the slots they leave runs.
func TestUniformMatchesIntn(t *testing.T) {
	const draws = 1 << 20
	width := len(nonGuessActions(newEnvT(t, partitionCfg())))
	if width != 9 {
		t.Fatalf("screen grid pool width %d, want 9", width)
	}
	got := make([]int, draws)
	for _, n := range []int{width, 1, 2, 3, 5, 7, 8, 13, 16, 33, 1<<20 + 1} {
		pool := make([]int, n)
		for i := range pool {
			pool[i] = i
		}
		src, ref := rng.New(int64(n)), rand.New(rand.NewSource(int64(n)))
		newUniform(src, n).fill(got, pool)
		for i, k := range got {
			if want := ref.Intn(n); k != want {
				t.Fatalf("n %d draw %d: %d, rand.Intn %d", n, i, k, want)
			}
		}
		if src.Int63() != ref.Int63() {
			t.Fatalf("n %d: the draws consumed another number of values than rand.Intn", n)
		}
	}
}
