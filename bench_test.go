// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, each regenerating the experiment at a reduced
// training budget and printing paper-style rows (run cmd/autocat-bench
// for the full-scale version recorded in EXPERIMENTS.md), plus the
// ablation benches called out in DESIGN.md and micro-benchmarks of the
// substrates.
package autocat_test

import (
	"os"
	"testing"

	"autocat"
	"autocat/internal/bench"
	"autocat/internal/exp"
)

// benchOpts returns the bench-harness options: Scale < 1 selects the
// representative experiment subsets (see exp) while keeping the epoch
// budgets near the levels the RL configurations need to converge.
func benchOpts() exp.Options {
	return exp.Options{W: os.Stdout, Scale: 0.8, Runs: 1, Seed: 1}
}

func runOnce(b *testing.B, f func(exp.Options)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f(benchOpts())
	}
}

func BenchmarkTableIII(b *testing.B)   { runOnce(b, exp.TableIII) }
func BenchmarkTableIV(b *testing.B)    { runOnce(b, exp.TableIV) }
func BenchmarkTableV(b *testing.B)     { runOnce(b, exp.TableV) }
func BenchmarkTableVI(b *testing.B)    { runOnce(b, exp.TableVI) }
func BenchmarkTableVII(b *testing.B)   { runOnce(b, exp.TableVII) }
func BenchmarkTableVIII(b *testing.B)  { runOnce(b, exp.TableVIII) }
func BenchmarkTableIX(b *testing.B)    { runOnce(b, exp.TableIX) }
func BenchmarkTableX(b *testing.B)     { runOnce(b, exp.TableX) }
func BenchmarkFigure3(b *testing.B)    { runOnce(b, exp.Figure3) }
func BenchmarkFigure4(b *testing.B)    { runOnce(b, exp.Figure4) }
func BenchmarkFigure5(b *testing.B)    { runOnce(b, exp.Figure5) }
func BenchmarkSearchVsRL(b *testing.B) { runOnce(b, exp.SearchVsRL) }

// BenchmarkTableDefenses regenerates the defense-bypass table: the RL
// agent against the index-mapping defense suite (CEASER rekeying,
// skewed multi-hash, way partitioning) as a campaign sweep.
func BenchmarkTableDefenses(b *testing.B) { runOnce(b, exp.TableDefenses) }

// BenchmarkTableEscalation runs the Table IV grid through the staged
// search→RL escalation: search screens every row, PPO trains only the
// rows search leaves at chance.
func BenchmarkTableEscalation(b *testing.B) { runOnce(b, exp.TableEscalation) }

// oneBitEnv is the minimal guessing game used by the ablation benches.
func oneBitEnv(seed int64) autocat.EnvConfig {
	return autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 1, NumWays: 1},
		AttackerLo: 1, AttackerHi: 1,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
		Seed:           seed,
	}
}

// BenchmarkAblationClip compares PPO with and without the clipped
// surrogate (DESIGN.md ablation).
func BenchmarkAblationClip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, disable := range []bool{false, true} {
			res, err := autocat.Explore(autocat.ExploreConfig{
				Env:    oneBitEnv(31),
				Hidden: []int{32, 32},
				PPO: autocat.PPOConfig{
					StepsPerEpoch: 2048, MaxEpochs: 40, Seed: 31,
					DisableClip: disable,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("clip disabled=%v: converged=%v in %d epochs (accuracy %.3f)",
				disable, res.Train.Converged, res.Train.Epochs, res.Eval.Accuracy)
		}
	}
}

// BenchmarkAblationBackbone compares the MLP against the paper's
// Transformer encoder on the one-bit channel.
func BenchmarkAblationBackbone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, backbone := range []autocat.Backbone{autocat.BackboneMLP, autocat.BackboneTransformer} {
			res, err := autocat.Explore(autocat.ExploreConfig{
				Env:      oneBitEnv(32),
				Backbone: backbone,
				Hidden:   []int{32, 32},
				PPO: autocat.PPOConfig{
					StepsPerEpoch: 2048, MaxEpochs: 40, Seed: 32, TargetAccuracy: 0.9,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("backbone=%s: converged=%v in %d epochs (accuracy %.3f, %d params)",
				backbone, res.Train.Converged, res.Train.Epochs, res.Eval.Accuracy, res.NumParams)
		}
	}
}

// BenchmarkAblationWarmup compares cold-start episodes against the
// paper's random warm-up initialization (§VI-B).
func BenchmarkAblationWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, warmup := range []int{-1, 0} {
			cfg := autocat.EnvConfig{
				Cache:      autocat.CacheConfig{NumBlocks: 4, NumWays: 4, Policy: autocat.LRU},
				AttackerLo: 0, AttackerHi: 3,
				VictimLo: 0, VictimHi: 0,
				FlushEnable:    true,
				VictimNoAccess: true,
				WindowSize:     8,
				Warmup:         warmup,
				Seed:           33,
			}
			res, err := autocat.Explore(autocat.ExploreConfig{
				Env:    cfg,
				Hidden: []int{32, 32},
				PPO: autocat.PPOConfig{
					StepsPerEpoch: 3000, MaxEpochs: 50, Seed: 33,
					EntAnnealEpochs: 25, ExploreEps: 0.3,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("warmup=%d: converged=%v in %d epochs (accuracy %.3f)",
				warmup, res.Train.Converged, res.Train.Epochs, res.Eval.Accuracy)
		}
	}
}

// Layer benchmarks: raw cache access, the per-step env+cache loop, one
// full PPO epoch, and the batched nn kernels — the rows tracked in
// BENCH_hotpath.json.
// The bodies live in internal/bench so `cmd/autocat-bench -json` measures
// the exact same workloads CI smoke-tests here.

func BenchmarkCacheAccessSkew(b *testing.B)     { bench.CacheAccessSkew(b) }
func BenchmarkStepHot(b *testing.B)             { bench.StepHot(b) }
func BenchmarkStepHotInstrumented(b *testing.B) { bench.StepHotInstrumented(b) }
func BenchmarkStepHotDefended(b *testing.B)     { bench.StepHotDefended(b) }
func BenchmarkStepHotShaped(b *testing.B)       { bench.StepHotShaped(b) }
func BenchmarkRolloutSteps(b *testing.B)        { bench.RolloutSteps(b) }
func BenchmarkPPOEpoch(b *testing.B)            { bench.PPOEpoch(b) }
func BenchmarkArtifactReplay(b *testing.B)      { bench.ArtifactReplay(b) }
func BenchmarkSearchIncremental(b *testing.B)   { bench.SearchIncremental(b) }
func BenchmarkSearchScan(b *testing.B)          { bench.SearchScan(b) }
func BenchmarkSearchExplore(b *testing.B)       { bench.SearchExplore(b) }
func BenchmarkSearchExploreWarm(b *testing.B)   { bench.SearchExploreWarm(b) }
func BenchmarkReplayState(b *testing.B)         { bench.ReplayState(b) }

// Micro-benchmarks of the substrates.

func BenchmarkCacheAccess(b *testing.B) {
	c := autocat.NewCache(autocat.CacheConfig{NumBlocks: 64, NumWays: 8, Policy: autocat.LRU})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(autocat.Addr(i%256), autocat.DomainAttacker)
	}
}

func BenchmarkCacheAccessPLRU(b *testing.B) {
	c := autocat.NewCache(autocat.CacheConfig{NumBlocks: 64, NumWays: 8, Policy: autocat.PLRU})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(autocat.Addr(i%256), autocat.DomainAttacker)
	}
}

func BenchmarkEnvStep(b *testing.B) {
	e := autocat.MustEnv(autocat.EnvConfig{
		Cache:      autocat.CacheConfig{NumBlocks: 4, NumWays: 4},
		AttackerLo: 0, AttackerHi: 3,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     16,
		Seed:           1,
	})
	obs := make([]float64, e.ObsDim())
	b.ReportAllocs()
	b.ResetTimer()
	e.Reset()
	e.ObsInto(obs)
	for i := 0; i < b.N; i++ {
		if _, done := e.Step(e.AccessAction(autocat.Addr(i % 4))); done {
			e.Reset()
		}
		e.ObsInto(obs)
	}
}

// Batched nn kernels over 128-sample minibatches, the PPO update shape.
func BenchmarkMLPApplyBatch(b *testing.B) { bench.MLPApplyBatch(b) }
func BenchmarkMLPGradBatch(b *testing.B)  { bench.MLPGradBatch(b) }

// BenchmarkDenseForward runs one 64→64 trunk layer over a gradient
// shard's 32 dense rows.
func BenchmarkDenseForward(b *testing.B) { bench.DenseForward(b) }

// BenchmarkTanhInto runs the batched trunk activation on one
// minibatch-sized layer output.
func BenchmarkTanhInto(b *testing.B) { bench.TanhInto(b) }

// BenchmarkTransformerApplyBatch runs the paper's backbone on a one-row
// batch, the shape of every greedy-replay step.
func BenchmarkTransformerApplyBatch(b *testing.B) {
	net := autocat.NewTransformer(autocat.TransformerConfig{
		Window: 16, Features: 17, Actions: 11, Model: 32, Heads: 4, Seed: 1,
	})
	X := &autocat.Mat{R: 1, C: net.ObsDim(), Data: make([]float64, net.ObsDim())}
	logits := &autocat.Mat{R: 1, C: net.NumActions(), Data: make([]float64, net.NumActions())}
	var value [1]float64
	net.ApplyBatch(X, logits, value[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ApplyBatch(X, logits, value[:])
	}
}

func BenchmarkStealthyStreamlineRound(b *testing.B) {
	ch, err := autocat.NewStealthyStreamline(autocat.ChannelConfig{Ways: 8, SymbolBits: 2, Policy: autocat.LRU})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Round(i % 4)
	}
}
