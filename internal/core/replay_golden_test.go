package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/rl"
)

// goldenReplay pins one core.Replay outcome: every Eval field (floats
// as raw bits) and the extracted attack.
type goldenReplay struct {
	Name       string `json:"name"`
	Episodes   int    `json:"episodes"`
	Accuracy   string `json:"accuracy_bits"`
	MeanLength string `json:"mean_length_bits"`
	MeanReturn string `json:"mean_return_bits"`
	GuessRate  string `json:"guess_rate_bits"`
	Actions    []int  `json:"actions"`
	Sequence   string `json:"sequence"`
	Category   string `json:"category"`
	AttackOK   bool   `json:"attack_ok"`
}

func floatBits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func replayGoldenOf(name string, res *Result) goldenReplay {
	return goldenReplay{
		Name:       name,
		Episodes:   res.Eval.Episodes,
		Accuracy:   floatBits(res.Eval.Accuracy),
		MeanLength: floatBits(res.Eval.MeanLength),
		MeanReturn: floatBits(res.Eval.MeanReturn),
		GuessRate:  floatBits(res.Eval.GuessRate),
		Actions:    res.Attack.Actions,
		Sequence:   res.Sequence,
		Category:   string(res.Category),
		AttackOK:   res.AttackOK,
	}
}

// replayGoldenConfigs are the unshaped configurations the replay golden
// covers: the 1-bit game, the §V-D multi-guess game, a shared-memory
// flush+reload game and a 2×2 PLRU game.
func replayGoldenConfigs() []struct {
	name string
	cfg  env.Config
} {
	return []struct {
		name string
		cfg  env.Config
	}{
		{"onebit", oneBitEnv(9)},
		{"multiguess4x1", env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 1, Policy: cache.LRU},
			AttackerLo: 4, AttackerHi: 5,
			VictimLo: 0, VictimHi: 1,
			EpisodeSteps: 48,
			WindowSize:   16,
			Seed:         31,
		}},
		{"flushreload4x4", env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.LRU},
			AttackerLo: 0, AttackerHi: 3,
			VictimLo: 0, VictimHi: 3,
			FlushEnable: true,
			WindowSize:  20,
			Seed:        41,
		}},
		{"plru2x2", env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.PLRU},
			AttackerLo: 1, AttackerHi: 2,
			VictimLo: 0, VictimHi: 0,
			FlushEnable:    true,
			VictimNoAccess: true,
			WindowSize:     8,
			Warmup:         -1,
			Seed:           5,
		}},
	}
}

// TestReplayGolden pins core.Replay for the search, probe and PPO
// kinds on unshaped configurations, so a refactor of the evaluation
// path must reproduce every replay bit for bit. Regenerate only on a
// deliberate change to evaluation, with -update-golden.
func TestReplayGolden(t *testing.T) {
	ppo := NewPPOBackend(Config{
		Envs:         2,
		Hidden:       []int{32, 32},
		EvalEpisodes: 16,
		PPO: rl.PPOConfig{
			StepsPerEpoch: 2048, MinibatchSize: 64, UpdateEpochs: 4,
			MaxEpochs: 40, EvalEpisodes: 16, Workers: 4,
		},
	})
	explorers := []Explorer{
		NewSearchBackend(SearchBackendOptions{Budget: 500}),
		NewProbeBackend(ProbeBackendOptions{Episodes: 32}),
		ppo,
	}
	var got []goldenReplay
	for _, c := range replayGoldenConfigs() {
		for _, x := range explorers {
			if x.Kind() == ExplorerPPO && c.name != "onebit" && c.name != "plru2x2" {
				continue // training on the wide games adds time, not coverage
			}
			res, err := x.Explore(context.Background(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Replay == nil {
				continue // no attack found, nothing to replay
			}
			rep, err := Replay(*res.Replay, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := c.name + "/" + string(x.Kind())
			// PPO explores on its training env, so only the table and
			// scripted kinds replay their exploration's own numbers.
			if x.Kind() != ExplorerPPO && (rep.Eval != res.Eval || !reflect.DeepEqual(rep.Attack.Actions, res.Attack.Actions)) {
				t.Errorf("%s: replay diverges from its exploration: %+v vs %+v", name, rep.Eval, res.Eval)
			}
			got = append(got, replayGoldenOf(name, rep))
		}
	}
	const file = "golden_replay.json"
	if *updateGolden {
		writeGolden(t, file, got)
		return
	}
	var want []goldenReplay
	readGolden(t, file, &want)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay golden diverged:\n golden %+v\n got    %+v", want, got)
	}
}
