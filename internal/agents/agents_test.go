package agents

import (
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/rl"
)

// dm4Config is the paper's config-1 setting: 4-set direct-mapped cache,
// victim addresses 0-3, attacker addresses 4-7, no flush.
func dm4Config(seed int64) env.Config {
	return env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 1, Policy: cache.LRU},
		AttackerLo: 4, AttackerHi: 7,
		VictimLo: 0, VictimHi: 3,
		WindowSize: 24,
		Seed:       seed,
	}
}

// evaluate scores n episodes of the scripted agent with rl.Evaluate.
func evaluate(e *env.Env, a Agent, n int) rl.EvalStats {
	return rl.Evaluate(e, n, func() rl.Episode { return Play(e, a) })
}

func TestPrimeProbeDecodesEverySecret(t *testing.T) {
	e, err := env.New(dm4Config(1))
	if err != nil {
		t.Fatal(err)
	}
	agent := NewPrimeProbe(4)
	guesses := 0
	res := rl.Evaluate(e, 200, func() rl.Episode {
		ep := Play(e, agent)
		guesses += ep.Guesses
		return ep
	})
	if res.Accuracy < 0.999 {
		t.Fatalf("textbook prime+probe accuracy = %.3f, want 1.0", res.Accuracy)
	}
	if guesses != 200 {
		t.Fatalf("one guess per episode expected, got %d/200", guesses)
	}
	// The textbook loop takes prime(4) + trigger + probe(4) + guess = 10
	// steps per episode.
	if got := res.MeanLength; got != 10 {
		t.Fatalf("episode length = %v, want 10", got)
	}
}

func TestPrimeProbeHandlesNoAccessVictim(t *testing.T) {
	cfg := dm4Config(2)
	cfg.VictimLo, cfg.VictimHi = 0, 0
	cfg.VictimNoAccess = true
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := evaluate(e, NewPrimeProbe(4), 200)
	if res.Accuracy < 0.999 {
		t.Fatalf("prime+probe with 0/E victim accuracy = %.3f", res.Accuracy)
	}
}

func TestPrimeProbeMultiGuessEpisodes(t *testing.T) {
	cfg := dm4Config(3)
	cfg.EpisodeSteps = 160 // the fixed-length episodes of §V-D
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := evaluate(e, NewPrimeProbe(4), 10)
	if res.Accuracy < 0.99 {
		t.Fatalf("multi-guess prime+probe accuracy = %.3f", res.Accuracy)
	}
	// Bit rate (guesses/step): the textbook attack guesses every 10 steps
	// = 0.1625-ish in the paper's accounting; ours is exactly 1/10.
	if gr := res.GuessRate; gr < 0.09 || gr > 0.11 {
		t.Fatalf("guess rate = %.4f, want ~0.1", gr)
	}
}

func TestFlushReloadDecodesEverySecret(t *testing.T) {
	cfg := env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 1, Policy: cache.LRU},
		AttackerLo: 0, AttackerHi: 3,
		VictimLo: 0, VictimHi: 3,
		FlushEnable: true,
		WindowSize:  24,
		Seed:        4,
	}
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := evaluate(e, NewFlushReload(), 200)
	if res.Accuracy < 0.999 {
		t.Fatalf("textbook flush+reload accuracy = %.3f", res.Accuracy)
	}
}

func TestFlushReloadHandlesNoAccessVictim(t *testing.T) {
	cfg := env.Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.LRU},
		AttackerLo: 0, AttackerHi: 3,
		VictimLo: 0, VictimHi: 0,
		FlushEnable:    true,
		VictimNoAccess: true,
		WindowSize:     16,
		Seed:           5,
	}
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := evaluate(e, NewFlushReload(), 200)
	if res.Accuracy < 0.999 {
		t.Fatalf("flush+reload 0/E accuracy = %.3f", res.Accuracy)
	}
}
