package rl

import (
	"math"
	"testing"
)

func mkSchedTrainer(cfg PPOConfig) *Trainer {
	return &Trainer{cfg: cfg.withDefaults()}
}

func TestEntCoefAnnealing(t *testing.T) {
	tr := mkSchedTrainer(PPOConfig{EntCoef: 0.02, EntCoefInit: 0.1, EntAnnealEpochs: 10})
	if got := tr.entCoefAt(1); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("epoch 1 coefficient = %v, want EntCoefInit", got)
	}
	mid := tr.entCoefAt(6)
	if mid >= 0.1 || mid <= 0.02 {
		t.Fatalf("mid-anneal coefficient = %v, want strictly between", mid)
	}
	if got := tr.entCoefAt(10); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("post-anneal coefficient = %v, want EntCoef", got)
	}
	if got := tr.entCoefAt(50); got != 0.02 {
		t.Fatalf("late coefficient = %v", got)
	}
	// Monotone decrease across the anneal window.
	prev := tr.entCoefAt(1)
	for e := 2; e <= 10; e++ {
		cur := tr.entCoefAt(e)
		if cur > prev+1e-12 {
			t.Fatalf("entropy coefficient increased at epoch %d", e)
		}
		prev = cur
	}
}

func TestEntCoefWithoutAnnealing(t *testing.T) {
	tr := mkSchedTrainer(PPOConfig{EntCoef: 0.05})
	for _, e := range []int{1, 10, 100} {
		if got := tr.entCoefAt(e); got != 0.05 {
			t.Fatalf("no-anneal coefficient at %d = %v", e, got)
		}
	}
}

func TestExploreEpsAnnealing(t *testing.T) {
	tr := mkSchedTrainer(PPOConfig{ExploreEps: 0.4, EntAnnealEpochs: 8})
	if got := tr.exploreEpsAt(1); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("epoch 1 eps = %v", got)
	}
	if got := tr.exploreEpsAt(8); got != 0 {
		t.Fatalf("post-anneal eps = %v, want 0", got)
	}
	if got := tr.exploreEpsAt(100); got != 0 {
		t.Fatalf("late eps = %v", got)
	}
	// Without an anneal horizon, eps is disabled entirely (ε-mixing is
	// only ever a transient exploration aid).
	tr2 := mkSchedTrainer(PPOConfig{ExploreEps: 0.4})
	if got := tr2.exploreEpsAt(1); got != 0 {
		t.Fatalf("eps without horizon = %v, want 0", got)
	}
}

func TestEntCoefInitDefault(t *testing.T) {
	cfg := PPOConfig{EntAnnealEpochs: 10}.withDefaults()
	if cfg.EntCoefInit != 0.1 {
		t.Fatalf("EntCoefInit default = %v, want 0.1", cfg.EntCoefInit)
	}
	cfg = PPOConfig{}.withDefaults()
	if cfg.EntCoefInit != 0 {
		t.Fatalf("EntCoefInit without annealing = %v, want 0", cfg.EntCoefInit)
	}
}

func TestPPOConfigDefaults(t *testing.T) {
	cfg := PPOConfig{}.withDefaults()
	if cfg.StepsPerEpoch != 3000 {
		t.Fatalf("StepsPerEpoch default = %d (paper: 3000-step epochs)", cfg.StepsPerEpoch)
	}
	if cfg.Gamma != 0.99 || cfg.Lambda != 0.95 || cfg.ClipEps != 0.2 {
		t.Fatalf("core PPO defaults wrong: %+v", cfg)
	}
	if cfg.Workers != 4 {
		t.Fatalf("Workers default = %d, want the fixed shard count 4", cfg.Workers)
	}
	if cfg.EvalEpisodes != 64 {
		t.Fatalf("EvalEpisodes default = %d", cfg.EvalEpisodes)
	}
}
