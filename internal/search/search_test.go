package search

import (
	"context"
	"math"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
)

func TestExpectedTrialsMatchesPaper(t *testing.T) {
	// §VI-A: "For N = 8, M ≈ 2.05 × 10^7".
	m := ExpectedTrials(8)
	if m < 1.9e7 || m > 2.2e7 {
		t.Fatalf("ExpectedTrials(8) = %.3g, want ≈ 2.05e7", m)
	}
	// Exact small case: N=1: M = 2·2³/1 = 16.
	if m1 := ExpectedTrials(1); math.Abs(m1-16) > 1e-6 {
		t.Fatalf("ExpectedTrials(1) = %v, want 16", m1)
	}
	// Growth is roughly e^{2N}: each +1 in N multiplies M by ~e².
	r := ExpectedTrials(9) / ExpectedTrials(8)
	if r < 5 || r > 12 {
		t.Fatalf("growth ratio = %v, want ≈ e² ≈ 7.4", r)
	}
	// Steps include the 2N+2 factor.
	if s := ExpectedSteps(8); math.Abs(s-ExpectedTrials(8)*18) > 1 {
		t.Fatalf("ExpectedSteps(8) = %v", s)
	}
}

// searchEnv is a 1-line cache with a 0/E victim: the minimal environment
// where a distinguishing sequence exists (access 1, trigger, access 1).
func searchEnv(t *testing.T) *env.Env {
	t.Helper()
	e, err := env.New(env.Config{
		Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
		AttackerLo: 1, AttackerHi: 1,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     8,
		Warmup:         -1,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// distinguishes runs the scan's success predicate on e.
func distinguishes(e *env.Env, prefix []int) (bool, int) {
	return newScanner(e, len(prefix)).distinguishes(prefix)
}

func TestDistinguishesKnownAttack(t *testing.T) {
	e := searchEnv(t)
	attack := []int{e.AccessAction(1), e.VictimAction(), e.AccessAction(1)}
	if ok, _ := distinguishes(e, attack); !ok {
		t.Fatal("prime→trigger→probe must distinguish the 1-bit secret")
	}
	// Without the probe the observations are identical for both secrets.
	if ok, _ := distinguishes(e, []int{e.AccessAction(1), e.VictimAction()}); ok {
		t.Fatal("prefix without a probe cannot distinguish")
	}
	// Guess actions inside the prefix are rejected.
	if ok, _ := distinguishes(e, []int{e.GuessNoneAction()}); ok {
		t.Fatal("prefixes containing guesses are invalid candidates")
	}
}

func TestRandomSearchFindsTinyAttack(t *testing.T) {
	e := searchEnv(t)
	res := RandomSearch(context.Background(), e, 3, 2000, 7)
	if !res.Found {
		t.Fatalf("random search failed within %d sequences", res.Sequences)
	}
	if ok, _ := distinguishes(e, res.Attack); !ok {
		t.Fatal("returned attack does not distinguish")
	}
	if res.Steps == 0 {
		t.Fatal("step accounting missing")
	}
}

func TestRandomSearchBudgetExhaustion(t *testing.T) {
	// A 4-way FA cache with a 0/E victim and only 2 attacker lines has no
	// 1-step distinguishing prefix, so a length-1 search must exhaust.
	e, err := env.New(env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 4},
		AttackerLo: 1, AttackerHi: 2,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     8,
		Warmup:         -1,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := RandomSearch(context.Background(), e, 1, 50, 3)
	if res.Found {
		t.Fatalf("length-1 prefix cannot distinguish, got %v", res.Attack)
	}
	if res.Sequences != 50 {
		t.Fatalf("budget accounting: %d sequences", res.Sequences)
	}
}

func TestExhaustiveSearchFindsTinyAttack(t *testing.T) {
	e := searchEnv(t)
	res := ExhaustiveSearch(context.Background(), e, 3, 100)
	if !res.Found {
		t.Fatalf("exhaustive search failed in %d sequences", res.Sequences)
	}
	if ok, _ := distinguishes(e, res.Attack); !ok {
		t.Fatal("returned attack does not distinguish")
	}
}

func TestRandomVsExpectedScaling(t *testing.T) {
	// Sanity: random search on a 2-way set takes more sequences than on
	// the 1-line set (the search space blows up with associativity).
	small := searchEnv(t)
	rSmall := RandomSearch(context.Background(), small, 3, 5000, 11)
	big, err := env.New(env.Config{
		Cache:      cache.Config{NumBlocks: 2, NumWays: 2},
		AttackerLo: 1, AttackerHi: 2,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     10,
		Warmup:         -1,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rBig := RandomSearch(context.Background(), big, 5, 50000, 11)
	if !rSmall.Found || !rBig.Found {
		t.Fatalf("searches should succeed: small=%v big=%v", rSmall.Found, rBig.Found)
	}
	if rBig.Sequences < rSmall.Sequences {
		t.Logf("note: larger config found faster by luck (%d vs %d)", rBig.Sequences, rSmall.Sequences)
	}
}
