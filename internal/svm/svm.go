// Package svm implements a linear support-vector machine trained with
// Pegasos-style stochastic sub-gradient descent on the hinge loss. It is
// the classifier behind the Cyclone-like cache-timing attack detector
// (§V-D "ML-based Detection"); Cyclone uses a linear SVM over small
// per-interval cyclic-interference feature vectors, which this package
// reproduces without external dependencies.
package svm

import (
	"fmt"
	"math/rand"

	"autocat/internal/rng"
)

// Model is a trained linear SVM: sign(W·x + B) classifies x, with +1
// conventionally meaning "attack" and -1 "benign".
type Model struct {
	W []float64
	B float64
}

// TrainConfig controls Pegasos training.
type TrainConfig struct {
	// Lambda is the L2 regularization strength. Zero defaults to 1e-3.
	Lambda float64
	// Epochs is the number of passes over the data. Zero defaults to 40.
	Epochs int
	// Seed drives sampling order.
	Seed int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Lambda == 0 {
		c.Lambda = 1e-3
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	return c
}

// Train fits a linear SVM on feature rows X with labels y in {-1, +1}.
// It returns an error on empty or inconsistent input.
func Train(X [][]float64, y []int, cfg TrainConfig) (*Model, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("svm: %d rows but %d labels", len(X), len(y))
	}
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return nil, fmt.Errorf("svm: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	for i, label := range y {
		if label != -1 && label != 1 {
			return nil, fmt.Errorf("svm: label %d at row %d, want -1 or +1", label, i)
		}
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rng.New(cfg.Seed + 0x51c))
	m := &Model{W: make([]float64, dim)}
	// Offset the Pegasos step-count by the dataset size so the first
	// learning rates are O(1/(λn)) rather than the divergent 1/λ.
	t := len(X)
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			t++
			eta := 1 / (cfg.Lambda * float64(t))
			margin := float64(y[i]) * (dot(m.W, X[i]) + m.B)
			scale := 1 - eta*cfg.Lambda
			for d := range m.W {
				m.W[d] *= scale
			}
			if margin < 1 {
				for d := range m.W {
					m.W[d] += eta * float64(y[i]) * X[i][d]
				}
				m.B += eta * float64(y[i])
			}
		}
	}
	return m, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Decision returns the signed distance proxy W·x + B.
func (m *Model) Decision(x []float64) float64 { return dot(m.W, x) + m.B }

// Predict returns +1 when the decision value is positive, else -1.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) > 0 {
		return 1
	}
	return -1
}

// Accuracy reports the fraction of rows whose prediction matches y.
func (m *Model) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	ok := 0
	for i, x := range X {
		if m.Predict(x) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

// CrossValidate performs k-fold cross-validation (the paper reports 5-fold
// validation accuracy of 98.8% for the Cyclone detector) and returns the
// mean held-out accuracy.
func CrossValidate(X [][]float64, y []int, k int, cfg TrainConfig) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("svm: need at least 2 folds, got %d", k)
	}
	if len(X) < k {
		return 0, fmt.Errorf("svm: %d samples cannot fill %d folds", len(X), k)
	}
	rng := rand.New(rng.New(cfg.Seed + 0xcf))
	idx := rng.Perm(len(X))
	total := 0.0
	for fold := 0; fold < k; fold++ {
		var trX, teX [][]float64
		var trY, teY []int
		for pos, i := range idx {
			if pos%k == fold {
				teX, teY = append(teX, X[i]), append(teY, y[i])
			} else {
				trX, trY = append(trX, X[i]), append(trY, y[i])
			}
		}
		m, err := Train(trX, trY, cfg)
		if err != nil {
			return 0, err
		}
		total += m.Accuracy(teX, teY)
	}
	return total / float64(k), nil
}
