package nn

import (
	"testing"
	"testing/quick"
)

func TestMatHelpers(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a mutable view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must be independent")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.R != 0 || m.C != 0 {
		t.Fatalf("empty FromRows shape %dx%d", m.R, m.C)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := NewMat(2, 3), NewMat(4, 2)
	for _, f := range []func(){
		func() { MatMulInto(NewMat(2, 2), a, b) },
		func() { MatMulATBInto(NewMat(3, 2), a, b) },
		func() { MatMulABTInto(NewMat(2, 4), a, NewMat(4, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("shape mismatch should panic")
				}
			}()
			f()
		}()
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ computed via the transposed-variant kernels.
func TestPropertyMatMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(seed)
		a := NewMat(3, 4)
		b := NewMat(4, 2)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		ab := NewMat(3, 2)
		MatMulInto(ab, a, b)
		// Verify element-wise against the scalar definition:
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				s := 0.0
				for k := 0; k < 4; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				if diff := s - ab.At(i, j); diff > 1e-12 || diff < -1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGradNormAndZero(t *testing.T) {
	p := []*Param{
		{Name: "a", Val: make([]float64, 2), Grad: []float64{3, 4}},
		{Name: "b", Val: make([]float64, 1), Grad: []float64{12}},
	}
	if got := GradNorm(p); got != 13 {
		t.Fatalf("GradNorm = %v, want 13", got)
	}
	ZeroGrads(p)
	if GradNorm(p) != 0 {
		t.Fatal("ZeroGrads left residue")
	}
}

func TestAddGradsMismatchPanics(t *testing.T) {
	a := []*Param{{Name: "x", Val: make([]float64, 1), Grad: make([]float64, 1)}}
	b := []*Param{}
	defer func() {
		if recover() == nil {
			t.Fatal("parameter count mismatch should panic")
		}
	}()
	AddGrads(a, b)
}

// newTestRNG builds a deterministic RNG for property tests.
func newTestRNG(seed int64) *testRNG { return &testRNG{state: uint64(seed) + 0x9e3779b97f4a7c15} }

type testRNG struct{ state uint64 }

// NormFloat64 returns a crude deterministic pseudo-normal sample (sum of
// uniforms), sufficient for shape identities.
func (r *testRNG) NormFloat64() float64 {
	s := 0.0
	for i := 0; i < 4; i++ {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		s += float64(r.state>>11) / float64(1<<53)
	}
	return s - 2
}
