// Package bench holds the layer benchmark bodies shared by the repo-root
// `go test -bench` suite and the row table of `cmd/autocat-bench`, so
// CI's bench smoke and the BENCH_hotpath.json rows measure the exact
// same workloads. Each body measures one layer (cache access, env step,
// rollout, search, nn kernels, artifact replay); end-to-end numbers belong to
// benchmark/.
package bench

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/campaign"
	"autocat/internal/core"
	"autocat/internal/env"
	"autocat/internal/nn"
	"autocat/internal/obs"
	"autocat/internal/rl"
	"autocat/internal/rng"
	"autocat/internal/search"
)

// HotEnvConfig is the 4-block flush+reload guessing game the step and
// PPO-epoch benchmarks run on (272-d observations, 11 actions).
func HotEnvConfig() env.Config {
	return env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.LRU},
		AttackerLo: 0, AttackerHi: 3,
		VictimLo: 0, VictimHi: 0,
		FlushEnable:    true,
		VictimNoAccess: true,
		WindowSize:     16,
		Seed:           1,
	}
}

func mustEnv(b *testing.B, cfg env.Config) *env.Env {
	b.Helper()
	e, err := env.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// stepLoop is the shared body of the step benchmarks: the env.Step +
// ObsInto + cache.Access loop exactly as a rollout actor drives it —
// observation written into a caller-owned buffer, mixing accesses with
// victim triggers. Steady state must be 0 allocs/op.
func stepLoop(b *testing.B, cfg env.Config) {
	e := mustEnv(b, cfg)
	obs := make([]float64, e.ObsDim())
	b.ReportAllocs()
	e.Reset()
	e.ObsInto(obs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var action int
		if i%5 == 4 {
			action = e.VictimAction()
		} else {
			action = e.AccessAction(cache.Addr(i & 3))
		}
		if _, done := e.Step(action); done {
			e.Reset()
		}
		e.ObsInto(obs)
	}
}

// StepHot measures the raw step loop with telemetry flushing disabled —
// the uninstrumented floor the instrumented variant is gated against.
func StepHot(b *testing.B) {
	prev := obs.Enabled()
	obs.SetEnabled(false)
	b.Cleanup(func() { obs.SetEnabled(prev) })
	stepLoop(b, HotEnvConfig())
}

// StepHotInstrumented is StepHot with the telemetry counter flush
// enabled (the production default). The instrumented_step_ns metric in
// BENCH_hotpath.json tracks this loop; it must stay 0 allocs/op and
// within a few percent of the uninstrumented StepHot.
func StepHotInstrumented(b *testing.B) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	b.Cleanup(func() { obs.SetEnabled(prev) })
	stepLoop(b, HotEnvConfig())
}

// DefendedEnvConfig is HotEnvConfig hardened with the CEASER keyed
// remap at a short rekey period — the most expensive defended lookup
// path (every access maps through the keyed permutation and the loop
// crosses many rekey migrations). The defended_step_ns metric in
// BENCH_hotpath.json tracks this loop.
func DefendedEnvConfig() env.Config {
	cfg := HotEnvConfig()
	cfg.Cache.Defense = cache.DefenseConfig{Kind: cache.DefenseCEASER, RekeyPeriod: 64}
	cfg.Cache.AddrSpace = 8
	return cfg
}

// StepHotDefended is StepHot on the defended environment; steady state
// must also be 0 allocs/op, rekeys included.
func StepHotDefended(b *testing.B) {
	stepLoop(b, DefendedEnvConfig())
}

// ShapedEnvConfig is HotEnvConfig with useless-action reward shaping
// enabled. Classification runs on every step regardless of shaping (it
// feeds the useless-action counters), so this isolates the cost of the
// active penalty path on top of the plain loop.
func ShapedEnvConfig() env.Config {
	cfg := HotEnvConfig()
	cfg.Shaping = env.DefaultShaping()
	return cfg
}

// StepHotShaped is StepHot on the shaping-enabled environment; the
// shaped_step_ns metric in BENCH_hotpath.json tracks this loop and its
// steady state must stay 0 allocs/op.
func StepHotShaped(b *testing.B) {
	stepLoop(b, ShapedEnvConfig())
}

// PPOEpochSteps is the per-epoch step budget of the PPOEpoch benchmark.
const PPOEpochSteps = 2048

// PPOEpoch runs full collect+update epochs on the hot env and reports
// environment steps per second (including the update passes) as the
// "steps/s" metric.
func PPOEpoch(b *testing.B) {
	var envs []*env.Env
	for i := 0; i < 4; i++ {
		cfg := HotEnvConfig()
		cfg.Seed = int64(i) * 7919
		envs = append(envs, mustEnv(b, cfg))
	}
	net := nn.NewMLP(nn.MLPConfig{
		ObsDim: envs[0].ObsDim(), Actions: envs[0].NumActions(), Seed: 1,
	})
	tr, err := rl.NewTrainer(net, envs, rl.PPOConfig{
		StepsPerEpoch: PPOEpochSteps, MinibatchSize: 128, UpdateEpochs: 4,
		Workers: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Epoch(i + 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*PPOEpochSteps)/b.Elapsed().Seconds(), "steps/s")
}

// ApplyBatchRows is the minibatch size of the batched nn benchmarks.
const ApplyBatchRows = 128

// batchNet builds the hot-env MLP plus a batch of real observations
// gathered from a random-action rollout — the sparsity pattern the
// kernels actually see. (An all-zero batch, as the earlier bench used,
// lets the zero-skipping kernels skip all the work and measures only
// branch throughput.)
func batchNet(b *testing.B) (*nn.MLPPolicy, *nn.Mat, *nn.Mat, []float64) {
	e := mustEnv(b, HotEnvConfig())
	net := nn.NewMLP(nn.MLPConfig{ObsDim: e.ObsDim(), Actions: e.NumActions(), Seed: 1})
	X := nn.NewMat(ApplyBatchRows, e.ObsDim())
	rng := rand.New(rng.New(7))
	e.Reset()
	e.ObsInto(X.Row(0))
	for i := 1; i < ApplyBatchRows; i++ {
		if _, done := e.Step(rng.Intn(e.NumActions())); done {
			e.Reset()
		}
		e.ObsInto(X.Row(i))
	}
	out := nn.NewMat(ApplyBatchRows, e.NumActions())
	values := make([]float64, ApplyBatchRows)
	return net, X, out, values
}

// MLPApplyBatch runs a minibatch through the batched forward path.
func MLPApplyBatch(b *testing.B) {
	net, X, logits, values := batchNet(b)
	net.ApplyBatch(X, logits, values)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ApplyBatch(X, logits, values)
	}
}

// MLPGradBatch runs a minibatch through the batched backward path.
func MLPGradBatch(b *testing.B) {
	net, X, dL, dV := batchNet(b)
	for i := range dL.Data {
		dL.Data[i] = 0.01
	}
	net.GradBatch(X, dL, dV)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.GradBatch(X, dL, dV)
	}
}

// DenseForwardRows is the height of the DenseForward batch: the
// gradient-shard height train runs (a 128-sample minibatch over four
// gradient workers).
const DenseForwardRows = 32

// DenseForward runs one 64→64 trunk layer's ForwardInto (the
// products-first recompute of GradBatch) over DenseForwardRows dense
// rows in tanh range, on one kernel worker: each gradient shard runs
// on its own worker, so this is the per-shard layer cost. It isolates
// the dense kernels (nn.KernelTier names the tier that ran).
func DenseForward(b *testing.B) {
	defer nn.SetKernelWorkers(nn.KernelWorkers())
	nn.SetKernelWorkers(1)
	rng := rand.New(rng.New(11))
	l := nn.NewLinear("trunk.1", 64, 64, rng)
	X := nn.NewMat(DenseForwardRows, 64)
	for i := range X.Data {
		X.Data[i] = math.Tanh(rng.NormFloat64())
	}
	Y := nn.NewMat(DenseForwardRows, 64)
	l.ForwardInto(X, Y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ForwardInto(X, Y)
	}
}

// TanhElems is the element count of one TanhInto benchmark call: a
// minibatch of ApplyBatchRows rows through a 64-wide trunk layer.
const TanhElems = ApplyBatchRows * 64

// TanhInto runs the batched tanh over trunk-like pre-activations:
// N(0, 0.4²) puts 88% of lanes below the 0.625 branch point, about the
// share the train scenarios' trunk layers see. Steady state must be
// 0 allocs/op.
func TanhInto(b *testing.B) {
	rng := rand.New(rng.New(9))
	src := make([]float64, TanhElems)
	for i := range src {
		src[i] = 0.4 * rng.NormFloat64()
	}
	dst := make([]float64, TanhElems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TanhInto(dst, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*TanhElems), "ns/elem")
}

// RolloutSteps drives the vectorized lockstep collector alone — all
// environments stepped per timestep through one batched forward, no PPO
// update — and reports environment steps per second. Steady state must
// be 0 allocs/op.
func RolloutSteps(b *testing.B) {
	var envs []*env.Env
	for i := 0; i < 4; i++ {
		cfg := HotEnvConfig()
		cfg.Seed = int64(i) * 7919
		envs = append(envs, mustEnv(b, cfg))
	}
	net := nn.NewMLP(nn.MLPConfig{
		ObsDim: envs[0].ObsDim(), Actions: envs[0].NumActions(), Seed: 1,
	})
	tr, err := rl.NewTrainer(net, envs, rl.PPOConfig{
		StepsPerEpoch: PPOEpochSteps, Workers: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr.CollectSteps()
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		steps += tr.CollectSteps()
	}
	b.StopTimer()
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}

// SearchEnvConfig is the environment of the search benchmarks: a 4-way
// fully-associative cache where the two attacker lines can never fill
// the set, so no prefix distinguishes the 0/E secret and both search
// implementations sweep their entire candidate budget. The config is
// replay-deterministic (LRU, no defense, no warm-up), so the
// incremental trie walker is eligible; SearchScan swaps in random
// replacement to take the re-simulating scan instead.
func SearchEnvConfig() env.Config {
	return env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.LRU},
		AttackerLo: 1, AttackerHi: 2,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     10,
		Warmup:         -1,
		Seed:           2,
	}
}

// SearchBenchLength is the candidate sequence length of the search
// benchmarks (the non-guess pool has 3 actions, so the full space is
// 3^8 = 6561 candidates). The DFS advantage grows with length — the
// scan replays the whole prefix per candidate while the walker pays
// roughly one step per candidate — so the benchmarked length sits at
// the deep end of the staged-escalation search budgets.
const SearchBenchLength = 8

// SearchBenchBudget covers the whole length-8 candidate space.
const SearchBenchBudget = 6561

// SearchIncremental measures the memoized exhaustive DFS: one op
// is a full 6561-candidate enumeration on a cold memo (the memo pool is
// emptied before each op, outside the timer), reported as "cands/s".
// The search_candidates_per_sec metric in BENCH_hotpath.json tracks
// this.
func SearchIncremental(b *testing.B) {
	e := mustEnv(b, SearchEnvConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		search.EmptyMemoPool()
		b.StartTimer()
		res := search.ExhaustiveSearch(context.Background(), e, SearchBenchLength, SearchBenchBudget)
		if res.Found || res.Sequences != SearchBenchBudget {
			b.Fatalf("benchmark config must exhaust its budget, got %+v", res)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*SearchBenchBudget)/b.Elapsed().Seconds(), "cands/s")
}

// SearchExploreConfig is the screen grid's 8×2 LRU partition point with
// attackers 4–7 and victims 0–3: way partitioning closes every channel,
// so a search exploration tries all nine lengths its defaults allow and
// spends its whole budget at each.
func SearchExploreConfig() env.Config {
	return env.Config{
		Cache: cache.Config{
			NumBlocks: 8, NumWays: 2, Policy: cache.LRU,
			Defense: cache.DefenseConfig{Kind: cache.DefensePartition},
			Seed:    1,
		},
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 3,
		FlushEnable:    true,
		VictimNoAccess: true,
		Warmup:         -1,
		Seed:           1,
	}
}

// searchExploreSequences is SearchExploreConfig's full candidate count:
// nine lengths at the default budget of 4096 each.
const searchExploreSequences = 9 * 4096

// SearchExplore measures the search explorer as the first screening job
// of a config runs it: one op is one core.SearchBackend.Explore with
// default options (random candidates, lengths 1–9), every length on one
// transition memo, which starts cold: the memo pool is emptied before
// each op, outside the timer. The search_explore_ns row in
// BENCH_hotpath.json tracks this.
func SearchExplore(b *testing.B) { searchExplore(b, true) }

// SearchExploreWarm is SearchExplore as the later jobs of a config run
// it: every op checks out the memo the one before released. The
// search_explore_warm_ns row in BENCH_hotpath.json tracks this.
func SearchExploreWarm(b *testing.B) { searchExplore(b, false) }

func searchExplore(b *testing.B, cold bool) {
	cfg := SearchExploreConfig()
	backend := core.NewSearchBackend(core.SearchBackendOptions{})
	explore := func() {
		res, err := backend.Explore(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Search.Found || res.Search.Sequences != searchExploreSequences {
			b.Fatalf("benchmark config must exhaust every length's budget, got %+v", res.Search)
		}
	}
	search.EmptyMemoPool()
	if !cold {
		explore()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			search.EmptyMemoPool()
			b.StartTimer()
		}
		explore()
	}
}

// SearchScan measures the re-simulating scan, the search path of
// configs the walker cannot memoize: SearchEnvConfig switched to random
// replacement (no eviction is ever possible there either, so the scan
// sweeps the whole budget), one exhaustive search per op on a
// search.Searcher, which scans a fresh env on one worker as an
// exploration does, reported as "cands/s". The
// search_scan_candidates_per_sec metric in BENCH_hotpath.json tracks
// this.
func SearchScan(b *testing.B) {
	cfg := SearchEnvConfig()
	cfg.Cache.Policy = cache.Random
	s := search.NewSearcher(mustEnv(b, cfg))
	defer s.Release()
	if s.Parallel() {
		b.Fatal("random replacement must take the re-simulating scan, not the walker")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Exhaustive(context.Background(), SearchBenchLength, SearchBenchBudget, 1)
		if res.Found || res.Sequences != SearchBenchBudget {
			b.Fatalf("benchmark config must exhaust its budget, got %+v", res)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*SearchBenchBudget)/b.Elapsed().Seconds(), "cands/s")
}

// RNGSeed measures one rng.Source.Seed: the reseed the random search
// pays once per candidate length of a job, and every env and cache pays
// at construction for each stream it draws from. Each op seeds with the
// next seed, so the reduction of the seed is measured too. Steady state
// must be 0 allocs/op; the rng_seed_ns metric in BENCH_hotpath.json
// tracks this.
func RNGSeed(b *testing.B) {
	src := rng.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

// CacheAccessSkewConfig is the screen-rng grid's skew 8×2 LRU cache as
// the campaign builds it: the keyed window covers addresses [0, 8).
func CacheAccessSkewConfig() cache.Config {
	return cache.Config{
		NumBlocks: 8, NumWays: 2, Policy: cache.LRU, AddrSpace: 8, Seed: 1,
		Defense: cache.DefenseConfig{Kind: cache.DefenseSkew},
	}
}

// CacheAccessSkewStream is the length of CacheAccessSkew's access stream.
const CacheAccessSkewStream = 1024

// CacheAccessSkew measures raw cache.Access on CacheAccessSkewConfig: one
// op is a fixed seeded stream of CacheAccessSkewStream attacker accesses
// over the keyed window, hits, misses and skewed random evictions mixed,
// so every op takes the per-way set lookups of the skewed mapping.
// Steady state must be 0 allocs/op; the cache_access_ns metric in
// BENCH_hotpath.json is the cost of one access.
func CacheAccessSkew(b *testing.B) {
	cfg := CacheAccessSkewConfig()
	c := cache.New(cfg)
	rng := rand.New(rng.New(1))
	stream := make([]cache.Addr, CacheAccessSkewStream)
	for i := range stream {
		stream[i] = cache.Addr(rng.Intn(cfg.AddrSpace))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range stream {
			c.Access(a, cache.DomainAttacker)
		}
	}
}

// ReplayState measures one env.AppendReplayState into a reused buffer
// plus one LoadReplayState mid-episode, the pair the search walker's
// transition memo runs on a miss. Steady state must be 0 allocs/op; the
// replay_state_ns metric in BENCH_hotpath.json tracks this.
func ReplayState(b *testing.B) {
	e := mustEnv(b, SearchEnvConfig())
	e.Reset()
	for i := 0; i < 4; i++ {
		e.Step(e.AccessAction(cache.Addr(1 + i%2)))
	}
	key := e.AppendReplayState(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = e.AppendReplayState(key[:0])
		e.LoadReplayState(key)
	}
}

// ArtifactReplay measures the artifact replay path: one stored
// discovery (a search-explorer artifact on the one-bit channel)
// replayed through a fresh environment per iteration, exactly what
// `autocat replay` and campaign artifact verification do. The store is
// built once; each op is environment construction plus the full
// deterministic evaluation (64 episodes + attack extraction).
func ArtifactReplay(b *testing.B) {
	dir := b.TempDir()
	store, err := campaign.OpenArtifactStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sc := campaign.Scenario{
		Name: "bench-artifact",
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
			AttackerLo: 1, AttackerHi: 1,
			VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true,
			WindowSize:     6,
			Warmup:         -1,
			Seed:           1,
		},
	}
	runner := campaign.NewExplorerRunner(campaign.RunnerOptions{
		Artifacts: store,
		Search:    core.SearchBackendOptions{Budget: 2000, MaxLen: 3},
	})
	jr := runner(context.Background(), campaign.Job{
		ID:       "bench",
		Scenario: func() campaign.Scenario { s := sc; s.Explorer = campaign.ExplorerSearch; return s }(),
	})
	if jr.Error != "" || jr.ArtifactID == "" {
		b.Fatalf("artifact setup failed: %+v", jr)
	}
	art, err := store.Get(jr.ArtifactID)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := store.Replay(art)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Match {
			b.Fatal("replay mismatch")
		}
	}
}
