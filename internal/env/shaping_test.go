package env

import (
	"encoding/json"
	"strings"
	"testing"

	"autocat/internal/cache"
)

// shapedConfig is fa4Config with warm-up disabled (deterministic cache
// state) and default shaping penalties.
func shapedConfig() Config {
	cfg := fa4Config()
	cfg.Warmup = -1
	cfg.Shaping = DefaultShaping()
	return cfg
}

// TestShapingClassification walks the three useless-action classes on a
// cold cache and checks both the penalty arithmetic and the counters.
func TestShapingClassification(t *testing.T) {
	e := mustEnv(t, shapedConfig())
	step := e.Config().Rewards.Step
	sh := e.Config().Shaping

	// Miss that fills line 0: useful (state changed), no penalty.
	if r, _ := e.Step(e.AccessAction(0)); r != step {
		t.Fatalf("filling access penalized: reward %v, want %v", r, step)
	}
	// Immediate re-access: hit, already MRU, residency already known —
	// the canonical no-op access.
	if r, _ := e.Step(e.AccessAction(0)); r != step+sh.NoOpAccess {
		t.Fatalf("no-op access reward %v, want %v", r, step+sh.NoOpAccess)
	}
	// Flushing a never-resident line invalidates nothing.
	if r, _ := e.Step(e.FlushAction(1)); r != step+sh.RedundantFlush {
		t.Fatalf("redundant flush reward %v, want %v", r, step+sh.RedundantFlush)
	}
	// Flushing the resident line is useful.
	if r, _ := e.Step(e.FlushAction(0)); r != step {
		t.Fatalf("useful flush penalized: reward %v, want %v", r, step)
	}
	// First victim trigger is useful, the un-re-armed second is wasted.
	if r, _ := e.Step(e.VictimAction()); r != step {
		t.Fatalf("first trigger penalized: reward %v, want %v", r, step)
	}
	if r, _ := e.Step(e.VictimAction()); r != step+sh.WastedVictim {
		t.Fatalf("wasted trigger reward %v, want %v", r, step+sh.WastedVictim)
	}
	if got := e.EpisodeUseless(); got != 3 {
		t.Fatalf("EpisodeUseless = %d, want 3", got)
	}
}

// TestShapingOffCountsButDoesNotPenalize: classification counters run
// for plain envs too (they feed useless_action_rate), but every reward
// stays the plain step reward.
func TestShapingOffCountsButDoesNotPenalize(t *testing.T) {
	cfg := shapedConfig()
	cfg.Shaping = Shaping{}
	e := mustEnv(t, cfg)
	step := e.Config().Rewards.Step
	for _, a := range []int{e.AccessAction(0), e.AccessAction(0), e.FlushAction(1), e.VictimAction(), e.VictimAction()} {
		if r, _ := e.Step(a); r != step {
			t.Fatalf("unshaped env altered reward: %v, want %v", r, step)
		}
	}
	if got := e.EpisodeUseless(); got != 3 {
		t.Fatalf("EpisodeUseless = %d, want 3 (classification must run unshaped)", got)
	}
}

// TestShapingEvalModeMatchesPlain is the training-reward-only contract:
// a shaped env in eval mode must produce the exact reward stream of an
// unshaped env on the same action sequence.
func TestShapingEvalModeMatchesPlain(t *testing.T) {
	plainCfg := shapedConfig()
	plainCfg.Shaping = Shaping{}
	plain := mustEnv(t, plainCfg)
	shaped := mustEnv(t, shapedConfig())
	shaped.SetShapingEvalMode(true)
	actions := []int{
		plain.AccessAction(0), plain.AccessAction(0), plain.AccessAction(1),
		plain.FlushAction(2), plain.VictimAction(), plain.VictimAction(),
		plain.AccessAction(0),
	}
	for i, a := range actions {
		rp, dp := plain.Step(a)
		rs, ds := shaped.Step(a)
		if rp != rs || dp != ds {
			t.Fatalf("step %d diverged in eval mode: plain (%v,%v) shaped (%v,%v)", i, rp, dp, rs, ds)
		}
	}
	// Leaving eval mode restores the penalties.
	shaped.SetShapingEvalMode(false)
	if r, _ := shaped.Step(shaped.AccessAction(0)); r == plain.Config().Rewards.Step {
		t.Fatal("penalties did not resume after eval mode")
	}
}

// TestShapingNormalize pins the canonical forms jobs hash.
func TestShapingNormalize(t *testing.T) {
	if got := (Shaping{Enable: true}).Normalize(); got != DefaultShaping() {
		t.Fatalf("bare Enable normalized to %+v, want defaults", got)
	}
	if got := (Shaping{NoOpAccess: -1}).Normalize(); got != (Shaping{}) {
		t.Fatalf("disabled shaping kept penalties: %+v", got)
	}
	custom := Shaping{Enable: true, NoOpAccess: -0.2}
	if got := custom.Normalize(); got != custom {
		t.Fatalf("custom shaping mangled: %+v", got)
	}
}

// TestShapingValidation rejects positive (reward-granting) penalties.
func TestShapingValidation(t *testing.T) {
	cfg := shapedConfig()
	cfg.Shaping.WastedVictim = 0.5
	if _, err := New(cfg); err == nil {
		t.Fatal("positive shaping penalty must be rejected")
	}
}

// TestShapingEncodingStability: the zero Shaping marshals to nothing, so
// pre-shaping configs — and the campaign job IDs hashed from them —
// keep their exact encodings.
func TestShapingEncodingStability(t *testing.T) {
	blob, err := json.Marshal(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "Shaping") {
		t.Fatalf("zero config leaks the Shaping field: %s", blob)
	}
	if strings.Contains(string(blob), "Explicit") {
		t.Fatalf("zero config leaks Rewards.Explicit: %s", blob)
	}
}

// TestExplicitZeroRewards is the env.New zero-value footgun fix: an
// all-zero Rewards historically meant "unset" and silently became
// DefaultRewards; Rewards.Explicit keeps the zeros.
func TestExplicitZeroRewards(t *testing.T) {
	cfg := fa4Config()
	e := mustEnv(t, cfg)
	if e.Config().Rewards != DefaultRewards() {
		t.Fatalf("zero Rewards must still select the defaults, got %+v", e.Config().Rewards)
	}
	cfg.Rewards = Rewards{Explicit: true}
	e = mustEnv(t, cfg)
	if e.Config().Rewards != (Rewards{Explicit: true}) {
		t.Fatalf("explicit all-zero Rewards was substituted: %+v", e.Config().Rewards)
	}
	if r, _ := e.Step(e.AccessAction(0)); r != 0 {
		t.Fatalf("explicit zero scheme paid reward %v, want 0", r)
	}
}

// TestShapedStepIntoZeroAllocs extends the hot-path guard to the shaped
// configuration: classification, the known[] bookkeeping, and the
// penalty path must all stay allocation-free.
func TestShapedStepIntoZeroAllocs(t *testing.T) {
	e := mustEnv(t, shapedConfig())
	ob := make([]float64, e.ObsDim())
	e.Reset()
	e.ObsInto(ob)
	for i := 0; i < 64; i++ {
		if _, done := e.Step(e.AccessAction(cache.Addr(i % 4))); done {
			e.Reset()
		}
		e.ObsInto(ob)
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		var done bool
		switch i % 7 {
		case 4:
			_, done = e.Step(e.VictimAction())
		case 6:
			_, done = e.Step(e.FlushAction(cache.Addr(i % 4)))
		default:
			_, done = e.Step(e.AccessAction(cache.Addr(i % 4)))
		}
		if done {
			e.Reset()
		}
		e.ObsInto(ob)
		i++
	})
	if avg != 0 {
		t.Fatalf("shaped Step+ObsInto allocates %.2f objects per call, want 0", avg)
	}
}
