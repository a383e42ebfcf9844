// Package bench holds the layer benchmark bodies shared by the repo-root
// `go test -bench` suite and the row table of `cmd/autocat-bench`, so
// CI's bench smoke and the BENCH_hotpath.json rows measure the exact
// same workloads. Each body measures one layer (env step, rollout,
// search, nn kernels, artifact replay); end-to-end numbers belong to
// benchmark/.
package bench

import (
	"context"
	"math/rand"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/campaign"
	"autocat/internal/core"
	"autocat/internal/env"
	"autocat/internal/nn"
	"autocat/internal/obs"
	"autocat/internal/rl"
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

// stepLoop is the shared body of the step benchmarks: the env.StepInto +
// cache.Access loop exactly as a rollout actor drives it — observation
// written into a caller-owned buffer, mixing accesses with victim
// triggers. Steady state must be 0 allocs/op.
func stepLoop(b *testing.B, cfg env.Config) {
	e := mustEnv(b, cfg)
	obs := make([]float64, e.ObsDim())
	b.ReportAllocs()
	e.ResetInto(obs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var action int
		if i%5 == 4 {
			action = e.VictimAction()
		} else {
			action = e.AccessAction(cache.Addr(i & 3))
		}
		if _, done := e.StepInto(action, obs); done {
			e.ResetInto(obs)
		}
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
	rng := rand.New(rand.NewSource(7))
	e.ResetInto(X.Row(0))
	for i := 1; i < ApplyBatchRows; i++ {
		if _, done := e.StepInto(rng.Intn(e.NumActions()), X.Row(i)); done {
			e.ResetInto(X.Row(i))
		}
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

// TanhElems is the element count of one TanhInto benchmark call: a
// minibatch of ApplyBatchRows rows through a 64-wide trunk layer.
const TanhElems = ApplyBatchRows * 64

// TanhInto runs the batched tanh over trunk-like pre-activations:
// N(0, 0.4²) puts 88% of lanes below the 0.625 branch point, about the
// share the train scenarios' trunk layers see. Steady state must be
// 0 allocs/op.
func TanhInto(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
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
// is a full 6561-candidate enumeration, reported as "cands/s". The
// search_candidates_per_sec metric in BENCH_hotpath.json tracks this.
func SearchIncremental(b *testing.B) {
	e := mustEnv(b, SearchEnvConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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

// SearchExplore measures the search explorer as a screening job runs
// it: one op is one core.SearchBackend.Explore with default options
// (random candidates, lengths 1–9), every length on one transition
// memo. The search_explore_ns row in BENCH_hotpath.json tracks this.
func SearchExplore(b *testing.B) {
	cfg := SearchExploreConfig()
	backend := core.NewSearchBackend(core.SearchBackendOptions{})
	for i := 0; i < b.N; i++ {
		res, err := backend.Explore(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Search.Found || res.Search.Sequences != searchExploreSequences {
			b.Fatalf("benchmark config must exhaust every length's budget, got %+v", res.Search)
		}
	}
}

// SearchScan measures the re-simulating scan, the search path of
// configs the walker cannot memoize: SearchEnvConfig switched to random
// replacement (no eviction is ever possible there either, so the scan
// sweeps the whole budget) through search.ExhaustiveSearchN on one
// worker, reported as "cands/s". The search_scan_candidates_per_sec
// metric in BENCH_hotpath.json tracks this.
func SearchScan(b *testing.B) {
	cfg := SearchEnvConfig()
	cfg.Cache.Policy = cache.Random
	e := mustEnv(b, cfg)
	if search.Incremental(e) {
		b.Fatal("random replacement must take the re-simulating scan, not the walker")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := search.ExhaustiveSearchN(context.Background(), e, SearchBenchLength, SearchBenchBudget, 1)
		if res.Found || res.Sequences != SearchBenchBudget {
			b.Fatalf("benchmark config must exhaust its budget, got %+v", res)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*SearchBenchBudget)/b.Elapsed().Seconds(), "cands/s")
}

// ReplayState measures one env.AppendReplayState into a reused buffer
// plus one LoadReplayState mid-episode, the pair the search walker's
// transition memo runs on a miss. Steady state must be 0 allocs/op; the
// replay_state_ns metric in BENCH_hotpath.json tracks this.
func ReplayState(b *testing.B) {
	e := mustEnv(b, SearchEnvConfig())
	e.Reset()
	for i := 0; i < 4; i++ {
		e.StepLite(e.AccessAction(cache.Addr(1 + i%2)))
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
