package nn

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := MLPConfig{ObsDim: 6, Actions: 4, Hidden: []int{8}, Seed: 1}
	src := NewMLP(cfg)
	rng := rand.New(rand.NewSource(2))
	obs := make([]float64, 6)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	wantLogits, wantV := applyRow(src, obs)

	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP(MLPConfig{ObsDim: 6, Actions: 4, Hidden: []int{8}, Seed: 99})
	if err := LoadWeights(&buf, dst); err != nil {
		t.Fatal(err)
	}
	gotLogits, gotV := applyRow(dst, obs)
	for i := range wantLogits {
		if wantLogits[i] != gotLogits[i] {
			t.Fatal("loaded network diverges from saved one")
		}
	}
	if wantV != gotV {
		t.Fatal("value head diverges after load")
	}
}

func TestSaveLoadTransformer(t *testing.T) {
	cfg := TransformerConfig{Window: 4, Features: 5, Actions: 3, Model: 8, Heads: 2, FF: 16, Seed: 3}
	src := NewTransformer(cfg)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewTransformer(cfg)
	dst.Params()[0].Val[0] = 42 // perturb, then restore
	if err := LoadWeights(&buf, dst); err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, src.ObsDim())
	l1, _ := applyRow(src, obs)
	l2, _ := applyRow(dst, obs)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("transformer weights not restored")
		}
	}
}

func TestLoadWeightsShapeMismatch(t *testing.T) {
	src := NewMLP(MLPConfig{ObsDim: 6, Actions: 4, Hidden: []int{8}, Seed: 1})
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	wrong := NewMLP(MLPConfig{ObsDim: 7, Actions: 4, Hidden: []int{8}, Seed: 1})
	if err := LoadWeights(&buf, wrong); err == nil {
		t.Fatal("shape mismatch should error")
	}
	other := NewMLP(MLPConfig{ObsDim: 6, Actions: 4, Hidden: []int{8, 8}, Seed: 1})
	buf.Reset()
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	if err := LoadWeights(&buf, other); err == nil {
		t.Fatal("layout mismatch should error")
	}
}

func TestLoadWeightsGarbage(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 2, Actions: 2, Seed: 1})
	if err := LoadWeights(bytes.NewBufferString("not gob"), net); err == nil {
		t.Fatal("garbage input should error")
	}
}
