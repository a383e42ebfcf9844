package rl

// End-to-end weights round trip for both backbones: train a policy,
// save it with nn.SaveWeights, reload into a freshly constructed net,
// and assert the greedy evaluation is bit-identical. This is the
// contract artifact replay rests on — a persisted PPO attack is only
// replayable if save→load reproduces the policy exactly, for every
// parameter of every layer (a single unnamed or misnamed tensor would
// silently break it).

import (
	"bytes"
	"reflect"
	"testing"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/nn"
)

func roundTripEnv(t *testing.T, seed int64) *env.Env {
	t.Helper()
	e, err := env.New(env.Config{
		Cache:      cache.Config{NumBlocks: 1, NumWays: 1},
		AttackerLo: 1, AttackerHi: 1,
		VictimLo: 0, VictimHi: 0,
		VictimNoAccess: true,
		WindowSize:     6,
		Warmup:         -1,
		Seed:           seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// trainSaveReload trains net briefly, saves its weights, reloads them
// into fresh, and asserts greedy evaluation and replay are bit-identical
// across the round trip.
func trainSaveReload(t *testing.T, net, fresh nn.PolicyValueNet, epochs int) {
	t.Helper()
	var envs []*env.Env
	for i := int64(0); i < 4; i++ {
		envs = append(envs, roundTripEnv(t, 100+i))
	}
	tr, err := NewTrainer(net, envs, PPOConfig{
		StepsPerEpoch: 512,
		MaxEpochs:     epochs,
		Workers:       2,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= epochs; epoch++ {
		tr.Epoch(epoch)
	}

	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, net); err != nil {
		t.Fatalf("save after training: %v", err)
	}
	if err := nn.LoadWeights(bytes.NewReader(buf.Bytes()), fresh); err != nil {
		t.Fatalf("load into fresh net: %v", err)
	}

	// Greedy evaluation on identically seeded fresh environments must be
	// bit-identical: same actions, same stats, no drift anywhere in the
	// forward pass.
	eA, eB := roundTripEnv(t, 500), roundTripEnv(t, 500)
	evA := Evaluate(eA, 32, Greedy(net, eA))
	evB := Evaluate(eB, 32, Greedy(fresh, eB))
	if evA != evB {
		t.Fatalf("greedy eval diverges after round trip:\n trained %+v\n reloaded %+v", evA, evB)
	}
	epA := Greedy(net, roundTripEnv(t, 501))()
	epB := Greedy(fresh, roundTripEnv(t, 501))()
	if !reflect.DeepEqual(epA.Actions, epB.Actions) {
		t.Fatalf("greedy replay diverges: %v vs %v", epA.Actions, epB.Actions)
	}
}

func TestTrainedRoundTripMLP(t *testing.T) {
	e := roundTripEnv(t, 1)
	cfg := nn.MLPConfig{ObsDim: e.ObsDim(), Actions: e.NumActions(), Hidden: []int{32, 32}, Seed: 5}
	net := nn.NewMLP(cfg)
	cfg.Seed = 99 // a differently initialized shell, fully overwritten by the load
	trainSaveReload(t, net, nn.NewMLP(cfg), 3)
}

func TestTrainedRoundTripTransformer(t *testing.T) {
	if testing.Short() {
		t.Skip("transformer training epochs; skipped in -short mode")
	}
	e := roundTripEnv(t, 1)
	cfg := nn.TransformerConfig{
		Window:   e.Window(),
		Features: e.FeatureDim(),
		Actions:  e.NumActions(),
		Model:    16, Heads: 2, FF: 32,
		Seed: 5,
	}
	net := nn.NewTransformer(cfg)
	cfg.Seed = 99
	trainSaveReload(t, net, nn.NewTransformer(cfg), 2)
}

// TestParamNamesUniqueAndComplete guards the serialization contract
// directly: every trainable tensor of both backbones must carry a
// distinct name (SaveWeights stores tensors by name, so a duplicate or
// empty name corrupts the snapshot silently on the save side).
func TestParamNamesUniqueAndComplete(t *testing.T) {
	nets := map[string]nn.PolicyValueNet{
		"mlp": nn.NewMLP(nn.MLPConfig{ObsDim: 12, Actions: 3, Hidden: []int{8, 8}, Seed: 1}),
		"transformer": nn.NewTransformer(nn.TransformerConfig{
			Window: 3, Features: 4, Actions: 3, Model: 8, Heads: 2, FF: 16, Seed: 1,
		}),
	}
	for label, net := range nets {
		seen := map[string]bool{}
		for _, p := range net.Params() {
			if p.Name == "" {
				t.Fatalf("%s: unnamed parameter tensor", label)
			}
			if seen[p.Name] {
				t.Fatalf("%s: duplicate parameter name %q", label, p.Name)
			}
			seen[p.Name] = true
			if len(p.Val) == 0 {
				t.Fatalf("%s: empty tensor %q", label, p.Name)
			}
		}
	}
}
