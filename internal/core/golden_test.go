package core

// Golden-trace determinism tests: a fixed-seed exploration must produce a
// bit-identical attack sequence, per-epoch statistics, and environment
// step stream across refactors of the nn/env/cache/rl hot path. The
// goldens under testdata/ were captured from the pre-batching per-sample
// implementation; regenerate deliberately with
//
//	go test ./internal/core -run Golden -update-golden
//
// and review the diff — a changed golden means changed learning behavior.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
	"autocat/internal/rl"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate golden testdata files")

// goldenEpoch pins the per-epoch training statistics bit-for-bit (JSON
// float64 encoding round-trips exactly).
type goldenEpoch struct {
	MeanReward float64 `json:"mean_reward"`
	MeanLength float64 `json:"mean_length"`
	Accuracy   float64 `json:"accuracy"`
	GuessRate  float64 `json:"guess_rate"`
	Entropy    float64 `json:"entropy"`
	PolicyLoss float64 `json:"policy_loss"`
	ValueLoss  float64 `json:"value_loss"`
}

// goldenTrain is the recorded outcome of one fixed-seed exploration.
type goldenTrain struct {
	Sequence      string        `json:"sequence"`
	AttackOK      bool          `json:"attack_ok"`
	FinalAccuracy float64       `json:"final_accuracy"`
	FinalLength   float64       `json:"final_length"`
	Epochs        []goldenEpoch `json:"epochs"`
}

// goldenSteps is the recorded outcome of one fixed-seed random-action
// rollout: per-step rewards, the indexes of terminal steps, and an FNV-1a
// hash over the raw bits of every observation.
type goldenSteps struct {
	Rewards []float64 `json:"rewards"`
	Dones   []int     `json:"dones"`
	ObsHash string    `json:"obs_hash"`
}

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", name)
}

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(t, name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden %s updated", name)
}

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(goldenPath(t, name))
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// bitsEqual compares floats bit-for-bit so that -0.0 vs 0.0 or NaN
// payload changes are caught too.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkEpochs(t *testing.T, want, got []goldenEpoch) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("epoch count changed: golden %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		pairs := [][2]float64{
			{w.MeanReward, g.MeanReward}, {w.MeanLength, g.MeanLength},
			{w.Accuracy, g.Accuracy}, {w.GuessRate, g.GuessRate},
			{w.Entropy, g.Entropy}, {w.PolicyLoss, g.PolicyLoss},
			{w.ValueLoss, g.ValueLoss},
		}
		for j, p := range pairs {
			if !bitsEqual(p[0], p[1]) {
				t.Errorf("epoch %d field %d diverged: golden %v, got %v", i+1, j, p[0], p[1])
			}
		}
	}
}

// runGoldenTrain executes one pinned exploration. Envs and Workers are
// fixed explicitly: both change the floating-point reduction grouping, so
// leaving them at machine-dependent defaults would break determinism
// across hosts.
func runGoldenTrain(t *testing.T, cfg Config) goldenTrain {
	t.Helper()
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenTrain{
		Sequence:      res.Sequence,
		AttackOK:      res.AttackOK,
		FinalAccuracy: res.Train.FinalAccuracy,
		FinalLength:   res.Train.FinalLength,
	}
	for _, st := range res.Train.Stats {
		g.Epochs = append(g.Epochs, goldenEpoch{
			MeanReward: st.MeanReward, MeanLength: st.MeanLength,
			Accuracy: st.Accuracy, GuessRate: st.GuessRate,
			Entropy: st.Entropy, PolicyLoss: st.PolicyLoss, ValueLoss: st.ValueLoss,
		})
	}
	return g
}

func goldenTrainCase(t *testing.T, name string, cfg Config) {
	t.Helper()
	got := runGoldenTrain(t, cfg)
	if *updateGolden {
		writeGolden(t, name, got)
		return
	}
	var want goldenTrain
	readGolden(t, name, &want)
	if want.Sequence != got.Sequence {
		t.Errorf("attack sequence diverged:\n golden %q\n got    %q", want.Sequence, got.Sequence)
	}
	if want.AttackOK != got.AttackOK {
		t.Errorf("attack ok diverged: golden %v, got %v", want.AttackOK, got.AttackOK)
	}
	if !bitsEqual(want.FinalAccuracy, got.FinalAccuracy) {
		t.Errorf("final accuracy diverged: golden %v, got %v", want.FinalAccuracy, got.FinalAccuracy)
	}
	if !bitsEqual(want.FinalLength, got.FinalLength) {
		t.Errorf("final length diverged: golden %v, got %v", want.FinalLength, got.FinalLength)
	}
	checkEpochs(t, want.Epochs, got.Epochs)
}

func TestGoldenTrainMLP(t *testing.T) {
	goldenTrainCase(t, "golden_train_mlp.json", Config{
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.PLRU},
			AttackerLo: 1, AttackerHi: 2,
			VictimLo: 0, VictimHi: 0,
			FlushEnable:    true,
			VictimNoAccess: true,
			WindowSize:     8,
			Warmup:         -1,
			Seed:           5,
		},
		Envs:         2,
		Hidden:       []int{16, 16},
		EvalEpisodes: 16,
		PPO: rl.PPOConfig{
			StepsPerEpoch: 512, MinibatchSize: 64, UpdateEpochs: 4,
			MaxEpochs: 4, EvalEpisodes: 16, Workers: 4, Seed: 5,
		},
	})
}

// TestGoldenTrainMLPWithJournal reruns the MLP golden case with an
// attached telemetry journal and a job-scoped context. The result must
// stay byte-identical to the golden captured without telemetry —
// observation must not perturb training — and the journal must still
// record every epoch.
func TestGoldenTrainMLPWithJournal(t *testing.T) {
	if *updateGolden {
		t.Skip("golden is owned by TestGoldenTrainMLP; this test only replays it")
	}
	cfg := Config{
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 2, NumWays: 2, Policy: cache.PLRU},
			AttackerLo: 1, AttackerHi: 2,
			VictimLo: 0, VictimHi: 0,
			FlushEnable:    true,
			VictimNoAccess: true,
			WindowSize:     8,
			Warmup:         -1,
			Seed:           5,
		},
		Envs:         2,
		Hidden:       []int{16, 16},
		EvalEpisodes: 16,
		PPO: rl.PPOConfig{
			StepsPerEpoch: 512, MinibatchSize: 64, UpdateEpochs: 4,
			MaxEpochs: 4, EvalEpisodes: 16, Workers: 4, Seed: 5,
		},
	}
	path := filepath.Join(t.TempDir(), "telemetry.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithScope(context.Background(), obs.Scope{Journal: j, Job: "golden", Name: "golden_mlp"})
	res := ex.Run(ctx)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got := goldenTrain{
		Sequence:      res.Sequence,
		AttackOK:      res.AttackOK,
		FinalAccuracy: res.Train.FinalAccuracy,
		FinalLength:   res.Train.FinalLength,
	}
	for _, st := range res.Train.Stats {
		got.Epochs = append(got.Epochs, goldenEpoch{
			MeanReward: st.MeanReward, MeanLength: st.MeanLength,
			Accuracy: st.Accuracy, GuessRate: st.GuessRate,
			Entropy: st.Entropy, PolicyLoss: st.PolicyLoss, ValueLoss: st.ValueLoss,
		})
	}
	var want goldenTrain
	readGolden(t, "golden_train_mlp.json", &want)
	if want.Sequence != got.Sequence {
		t.Errorf("journal attachment changed the attack sequence:\n golden %q\n got    %q", want.Sequence, got.Sequence)
	}
	if want.AttackOK != got.AttackOK {
		t.Errorf("journal attachment changed attack ok: golden %v, got %v", want.AttackOK, got.AttackOK)
	}
	if !bitsEqual(want.FinalAccuracy, got.FinalAccuracy) {
		t.Errorf("journal attachment changed final accuracy: golden %v, got %v", want.FinalAccuracy, got.FinalAccuracy)
	}
	checkEpochs(t, want.Epochs, got.Epochs)

	events, skipped, err := obs.ReadJournal(path)
	if err != nil || skipped != 0 {
		t.Fatalf("read journal: err=%v skipped=%d", err, skipped)
	}
	epochs := 0
	for _, ev := range events {
		if ev.Kind == obs.EvPPOEpoch {
			epochs++
			if ev.Job != "golden" {
				t.Fatalf("ppo.epoch lost its scope attribution: %+v", ev)
			}
		}
	}
	if epochs != len(want.Epochs) {
		t.Fatalf("journal has %d ppo.epoch events, training ran %d epochs", epochs, len(want.Epochs))
	}
}

func TestGoldenTrainTransformer(t *testing.T) {
	if testing.Short() {
		t.Skip("transformer golden is slow")
	}
	goldenTrainCase(t, "golden_train_transformer.json", Config{
		Env: env.Config{
			Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
			AttackerLo: 1, AttackerHi: 1,
			VictimLo: 0, VictimHi: 0,
			VictimNoAccess: true,
			WindowSize:     6,
			Warmup:         -1,
			Seed:           7,
		},
		Envs:         2,
		Backbone:     Transformer,
		EvalEpisodes: 8,
		PPO: rl.PPOConfig{
			StepsPerEpoch: 128, MinibatchSize: 32, UpdateEpochs: 2,
			MaxEpochs: 2, EvalEpisodes: 8, Workers: 2, Seed: 7,
		},
	})
}

// TestGoldenEnvSteps pins the raw environment + cache behavior across all
// replacement policies, the prefetchers, and the random mapping, using a
// fixed-seed random action stream (no learning involved).
func TestGoldenEnvSteps(t *testing.T) {
	cases := []struct {
		name string
		cfg  env.Config
	}{
		{"lru", env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 2, Policy: cache.LRU},
			AttackerLo: 0, AttackerHi: 3, VictimLo: 0, VictimHi: 1,
			FlushEnable: true, VictimNoAccess: true, WindowSize: 10, Seed: 11,
		}},
		{"plru_nextline", env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.PLRU, Prefetcher: cache.NextLine, AddrSpace: 8},
			AttackerLo: 0, AttackerHi: 3, VictimLo: 0, VictimHi: 1,
			VictimNoAccess: true, WindowSize: 10, Seed: 12,
		}},
		{"rrip_stream", env.Config{
			Cache:      cache.Config{NumBlocks: 8, NumWays: 4, Policy: cache.RRIP, Prefetcher: cache.StreamPrefetch, AddrSpace: 16},
			AttackerLo: 0, AttackerHi: 5, VictimLo: 0, VictimHi: 1,
			FlushEnable: true, WindowSize: 12, Seed: 13,
		}},
		{"random_randmap", env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 2, Policy: cache.Random, RandomMapping: true, AddrSpace: 16, Seed: 14},
			AttackerLo: 0, AttackerHi: 3, VictimLo: 0, VictimHi: 1,
			VictimNoAccess: true, WindowSize: 10, Seed: 14,
		}},
		{"multiguess_locked", env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 4, Policy: cache.LRU},
			AttackerLo: 0, AttackerHi: 3, VictimLo: 0, VictimHi: 1,
			WindowSize: 10, EpisodeSteps: 24, LockVictimLines: true, Seed: 15,
		}},
		// Defended configurations (index-mapping defense suite). The
		// ceaser case's rekey period is deliberately small: the 300-step
		// stream crosses many key epochs, pinning the rekey-boundary
		// migrate/invalidate behavior bit-for-bit.
		{"ceaser_rekey", env.Config{
			Cache: cache.Config{NumBlocks: 4, NumWays: 2, Policy: cache.LRU, AddrSpace: 8,
				Defense: cache.DefenseConfig{Kind: cache.DefenseCEASER, RekeyPeriod: 24}, Seed: 16},
			AttackerLo: 0, AttackerHi: 3, VictimLo: 4, VictimHi: 5,
			FlushEnable: true, WindowSize: 10, Seed: 16,
		}},
		{"skew", env.Config{
			Cache: cache.Config{NumBlocks: 8, NumWays: 4, Policy: cache.PLRU, AddrSpace: 16,
				Defense: cache.DefenseConfig{Kind: cache.DefenseSkew}, Seed: 17},
			AttackerLo: 0, AttackerHi: 5, VictimLo: 6, VictimHi: 7,
			VictimNoAccess: true, WindowSize: 12, Seed: 17,
		}},
		{"partition", env.Config{
			Cache: cache.Config{NumBlocks: 8, NumWays: 4, Policy: cache.RRIP,
				Defense: cache.DefenseConfig{Kind: cache.DefensePartition, VictimWays: 2}, Seed: 18},
			AttackerLo: 0, AttackerHi: 5, VictimLo: 0, VictimHi: 1,
			VictimNoAccess: true, WindowSize: 10, Seed: 18,
		}},
		// Shaped configuration: same geometry as the lru case but with the
		// useless-action penalties active, pinning the classifier (no-op
		// access / redundant flush / wasted trigger) and the penalty
		// arithmetic bit-for-bit in the reward stream.
		{"shaped", env.Config{
			Cache:      cache.Config{NumBlocks: 4, NumWays: 2, Policy: cache.LRU},
			AttackerLo: 0, AttackerHi: 3, VictimLo: 0, VictimHi: 1,
			FlushEnable: true, VictimNoAccess: true, WindowSize: 10, Seed: 11,
			Shaping: env.DefaultShaping(),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := env.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(tc.cfg.Seed * 31))
			h := fnv.New64a()
			var got goldenSteps
			hashObs := func(obs []float64) {
				var buf [8]byte
				for _, v := range obs {
					bits := math.Float64bits(v)
					for i := 0; i < 8; i++ {
						buf[i] = byte(bits >> (8 * i))
					}
					h.Write(buf[:])
				}
			}
			obs := make([]float64, e.ObsDim())
			e.Reset()
			e.ObsInto(obs)
			hashObs(obs)
			for i := 0; i < 300; i++ {
				r, done := e.Step(rng.Intn(e.NumActions()))
				e.ObsInto(obs)
				hashObs(obs)
				got.Rewards = append(got.Rewards, r)
				if done {
					got.Dones = append(got.Dones, i)
					e.Reset()
					e.ObsInto(obs)
					hashObs(obs)
				}
			}
			got.ObsHash = fmt.Sprintf("%016x", h.Sum64())
			name := "golden_steps_" + tc.name + ".json"
			if *updateGolden {
				writeGolden(t, name, got)
				return
			}
			var want goldenSteps
			readGolden(t, name, &want)
			if want.ObsHash != got.ObsHash {
				t.Errorf("observation stream diverged: golden %s, got %s", want.ObsHash, got.ObsHash)
			}
			if len(want.Rewards) != len(got.Rewards) {
				t.Fatalf("reward count changed: golden %d, got %d", len(want.Rewards), len(got.Rewards))
			}
			for i := range want.Rewards {
				if !bitsEqual(want.Rewards[i], got.Rewards[i]) {
					t.Fatalf("reward at step %d diverged: golden %v, got %v", i, want.Rewards[i], got.Rewards[i])
				}
			}
			if fmt.Sprint(want.Dones) != fmt.Sprint(got.Dones) {
				t.Errorf("episode boundaries diverged: golden %v, got %v", want.Dones, got.Dones)
			}
		})
	}
}
