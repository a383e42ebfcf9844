package env

import (
	"testing"

	"autocat/internal/cache"
)

// defendedConfig is the guessing game the defended-path tests run on:
// 2 sets × 2 ways, attacker and victim disjoint, window sized so
// episodes cross CEASER rekey boundaries.
func defendedConfig(def cache.DefenseConfig) Config {
	return Config{
		Cache:      cache.Config{NumBlocks: 4, NumWays: 2, Policy: cache.LRU, Defense: def},
		AttackerLo: 2, AttackerHi: 5,
		VictimLo: 0, VictimHi: 1,
		VictimNoAccess: true,
		WindowSize:     12,
		Seed:           19,
	}
}

// Step+ObsInto must stay allocation-free with every defense on the lookup
// path, including across CEASER rekey epochs (period 16 guarantees many
// rekeys inside the sampling window).
func TestStepIntoZeroAllocsDefended(t *testing.T) {
	cases := []struct {
		name string
		def  cache.DefenseConfig
	}{
		{"ceaser", cache.DefenseConfig{Kind: cache.DefenseCEASER}},
		{"ceaser_rekey", cache.DefenseConfig{Kind: cache.DefenseCEASER, RekeyPeriod: 16}},
		{"skew", cache.DefenseConfig{Kind: cache.DefenseSkew}},
		{"partition", cache.DefenseConfig{Kind: cache.DefensePartition}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEnv(t, defendedConfig(tc.def))
			obs := make([]float64, e.ObsDim())
			e.Reset()
			e.ObsInto(obs)
			// Warm the per-episode arenas through a few full episodes.
			for i := 0; i < 64; i++ {
				if _, done := e.Step(e.AccessAction(cache.Addr(2 + i%4))); done {
					e.Reset()
				}
				e.ObsInto(obs)
			}
			i := 0
			avg := testing.AllocsPerRun(1000, func() {
				var done bool
				if i%5 == 4 {
					_, done = e.Step(e.VictimAction())
				} else {
					_, done = e.Step(e.AccessAction(cache.Addr(2 + i%4)))
				}
				if done {
					e.Reset()
				}
				e.ObsInto(obs)
				i++
			})
			if avg != 0 {
				t.Fatalf("defended Step+ObsInto allocates %.2f objects per call in steady state, want 0", avg)
			}
		})
	}
}

// A defended env must still play complete episodes: the keyed-mapping
// window (defaulted by env.New to cover both address ranges and warm-up)
// must admit every address the episode touches.
func TestDefendedEnvEpisodesComplete(t *testing.T) {
	for _, def := range []cache.DefenseConfig{
		{Kind: cache.DefenseCEASER, RekeyPeriod: 8},
		{Kind: cache.DefenseSkew},
		{Kind: cache.DefensePartition},
	} {
		t.Run(string(def.Kind), func(t *testing.T) {
			e := mustEnv(t, defendedConfig(def))
			e.Reset()
			steps := 0
			for ep := 0; ep < 5; ep++ {
				done := false
				for !done {
					a := steps % e.NumActions()
					_, done = e.Step(a)
					steps++
				}
				e.Reset()
			}
			if steps == 0 {
				t.Fatal("no steps executed")
			}
		})
	}
}

// The PL-cache lock must compose with way partitioning: locked victim
// lines live in victim ways and remain resident against any attacker
// access pattern.
func TestPartitionComposesWithLocking(t *testing.T) {
	cfg := defendedConfig(cache.DefenseConfig{Kind: cache.DefensePartition})
	cfg.LockVictimLines = true
	cfg.Warmup = -1
	e := mustEnv(t, cfg)
	e.Reset()
	for i := 0; i < 40; i++ {
		if _, done := e.Step(e.AccessAction(cache.Addr(2 + i%4))); done {
			e.Reset()
		}
	}
	if e.Secret() == NoAccess {
		e.Reset()
	}
	if _, done := e.Step(e.VictimAction()); done {
		t.Fatal("victim trigger ended the episode")
	}
	tr := e.Trace()
	last := tr[len(tr)-1]
	if !last.Hit {
		t.Fatal("locked victim line missed under partitioning; lock or partition was not honored")
	}
}
