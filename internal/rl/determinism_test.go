package rl

import (
	"math"
	"runtime"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/nn"
)

// TestEpochStatsKernelWorkerInvariance trains the same fixed-seed run
// under kernel worker counts 1, 2, and NumCPU and asserts the epoch
// statistics streams are bit-identical: execution parallelism (token
// pool size) must never change the math. The gradient reduction
// grouping (PPOConfig.Workers) stays fixed — it is part of the math.
func TestEpochStatsKernelWorkerInvariance(t *testing.T) {
	defer nn.SetKernelWorkers(runtime.GOMAXPROCS(0))
	epochStatsInvariance(t, cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.LRU},
		4, "kernel workers", nn.SetKernelWorkers, []int{1, 2, runtime.NumCPU()})
}

// TestEpochStatsGOMAXPROCSInvariance trains with the default gradient
// shard count under GOMAXPROCS 1 and 3 and asserts bit-identical epoch
// statistics: the default shard count must not depend on the machine.
func TestEpochStatsGOMAXPROCSInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	epochStatsInvariance(t, cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.LRU},
		0, "GOMAXPROCS", func(n int) { runtime.GOMAXPROCS(n) }, []int{1, 3})
}

// TestEpochStatsKernelWorkerInvarianceDefended repeats the invariance
// check with an index-mapping defense on the cache hot path: the CEASER
// rekey schedule (period 64 — many epochs per rollout) must be driven
// purely by per-env access counts, never by scheduling.
func TestEpochStatsKernelWorkerInvarianceDefended(t *testing.T) {
	defer nn.SetKernelWorkers(runtime.GOMAXPROCS(0))
	epochStatsInvariance(t, cache.Config{
		NumBlocks: 2, NumWays: 2, Policy: cache.LRU,
		Defense: cache.DefenseConfig{Kind: cache.DefenseCEASER, RekeyPeriod: 64},
	}, 4, "kernel workers", nn.SetKernelWorkers, []int{1, 2, runtime.NumCPU()})
}

// epochStatsInvariance trains one fixed-seed run (with the given PPO
// shard count; 0 selects the default) once per value, after set(value),
// and asserts the epoch statistics streams are bit-identical.
func epochStatsInvariance(t *testing.T, cc cache.Config, shards int, what string, set func(int), values []int) {
	run := func() []EpochStats {
		var envs []*env.Env
		for i := 0; i < 2; i++ {
			cfg := env.Config{
				Cache:      cc,
				AttackerLo: 1, AttackerHi: 2,
				VictimLo: 0, VictimHi: 0,
				FlushEnable:    true,
				VictimNoAccess: true,
				WindowSize:     8,
				Warmup:         -1,
				Seed:           31 + int64(i)*7919,
			}
			cfg.Cache.Seed = cfg.Seed
			e, err := env.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, e)
		}
		net := nn.NewMLP(nn.MLPConfig{
			ObsDim: envs[0].ObsDim(), Actions: envs[0].NumActions(),
			Hidden: []int{16, 16}, Seed: 31,
		})
		tr, err := NewTrainer(net, envs, PPOConfig{
			StepsPerEpoch: 256, MinibatchSize: 64, UpdateEpochs: 2,
			MaxEpochs: 2, Workers: shards, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		var stats []EpochStats
		for epoch := 1; epoch <= 2; epoch++ {
			stats = append(stats, tr.Epoch(epoch))
		}
		return stats
	}

	var ref []EpochStats
	for _, v := range values {
		set(v)
		got := run()
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			pairs := [][2]float64{
				{ref[i].MeanReward, got[i].MeanReward},
				{ref[i].MeanLength, got[i].MeanLength},
				{ref[i].Accuracy, got[i].Accuracy},
				{ref[i].GuessRate, got[i].GuessRate},
				{ref[i].Entropy, got[i].Entropy},
				{ref[i].PolicyLoss, got[i].PolicyLoss},
				{ref[i].ValueLoss, got[i].ValueLoss},
			}
			for j, p := range pairs {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("%s %d: epoch %d field %d diverged: %v vs %v",
						what, v, i+1, j, p[0], p[1])
				}
			}
		}
	}
}
