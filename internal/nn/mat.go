// Package nn is a minimal, dependency-free neural-network library with
// handwritten backward passes: dense matrices, linear layers, tanh/ReLU,
// layer normalization, multi-head self-attention, an MLP and a single-layer
// Transformer-encoder policy/value network, the Adam optimizer, and
// categorical-distribution utilities. It replaces the PyTorch + RLMeta
// stack the paper trains with; the math is identical, only the scale
// differs.
//
// Networks run one way: batched (ApplyBatch/GradBatch over row-major
// Mat batches), allocation-free in steady state, with exclusive use of
// the net's scratch. A single observation is a one-row batch; layers
// and math helpers likewise write into caller-owned destinations (the
// Into functions).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	Data []float64
}

// NewMat allocates a zeroed R×C matrix.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a mutable view of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Zero clears every element in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// FromRows builds a matrix from equally sized rows.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.C {
			panic(fmt.Sprintf("nn: ragged row %d (%d vs %d)", i, len(r), m.C))
		}
		copy(m.Row(i), r)
	}
	return m
}

// EnsureMat reslices *p to an r×c matrix, reusing the backing array when
// its capacity suffices and allocating otherwise. Contents are undefined;
// the Into-style kernels overwrite or zero their destinations. The
// batched hot path uses it so scratch matrices are allocated once per
// network (or per trainer worker) and reused for every minibatch.
func EnsureMat(p **Mat, r, c int) *Mat {
	m := *p
	if m == nil || cap(m.Data) < r*c {
		m = &Mat{R: r, C: c, Data: make([]float64, r*c)}
		*p = m
		return m
	}
	m.R, m.C, m.Data = r, c, m.Data[:r*c]
	return m
}

// MatMulInto computes dst = a·b for a R×K and b K×C in place (dst is
// zeroed first; each element sums k-ascending). Large batches partition
// output rows across the kernel worker pool (bit-identical for every
// worker count).
func MatMulInto(dst, a, b *Mat) {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	if dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("nn: matmul dst shape %dx%d, want %dx%d", dst.R, dst.C, a.R, b.C))
	}
	g := gemmArgs{dst: dst, a: a, b: b}
	if extra := parPlan(a.R, a.R*a.C*b.C); extra == 0 {
		kMatMulRows(&g, 0, a.R)
	} else {
		parDispatch(kMatMulRows, g, a.R, extra)
	}
}

// MatMulATBInto computes dst = aᵀ·b for a R×K and b R×C (a K×C result,
// the shape of weight gradients dW = Xᵀ·dY) in place (dst is zeroed
// first).
func MatMulATBInto(dst, a, b *Mat) {
	dst.Zero()
	matMulATBAcc(dst, a, b, false)
}

// matMulATBAcc accumulates dst += aᵀ·b, visiting rows of a in order — the
// same per-element addition sequence as summing per-sample outer products,
// which keeps batched weight gradients bit-identical to a sequence of
// one-row batches. Output rows partition across the kernel worker pool; each dst
// element is owned by one worker and keeps its r-ascending order.
// sparseA marks a as mostly zero (one-hot observation rows), which keeps
// the blocked fold: its four-row zero test beats the register tiles there.
func matMulATBAcc(dst, a, b *Mat, sparseA bool) {
	if a.R != b.R {
		panic(fmt.Sprintf("nn: matmulATB shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	if dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("nn: matmulATB dst shape %dx%d, want %dx%d", dst.R, dst.C, a.C, b.C))
	}
	g := gemmArgs{dst: dst, a: a, b: b, sparse: sparseA}
	if extra := parPlan(a.C, a.R*a.C*b.C); extra == 0 {
		kATBAccRows(&g, 0, a.C)
	} else {
		parDispatch(kATBAccRows, g, a.C, extra)
	}
}

// MatMulABTInto computes dst = a·bᵀ for a R×K and b C×K (a R×C result,
// the shape of input gradients dX = dY·Wᵀ) in place (every element is
// written).
// Four independent accumulator chains run per pass and large batches
// partition rows across the kernel worker pool; each element keeps the
// k-ascending summation order of the scalar loop.
func MatMulABTInto(dst, a, b *Mat) {
	if a.C != b.C {
		panic(fmt.Sprintf("nn: matmulABT shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	if dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("nn: matmulABT dst shape %dx%d, want %dx%d", dst.R, dst.C, a.R, b.R))
	}
	g := gemmArgs{dst: dst, a: a, b: b}
	if extra := parPlan(a.R, a.R*a.C*b.R); extra == 0 {
		kABTRows(&g, 0, a.R)
	} else {
		parDispatch(kABTRows, g, a.R, extra)
	}
}

// Param is one trainable tensor: a flat value slice and its gradient
// accumulator, plus a name for diagnostics.
type Param struct {
	Name string
	Val  []float64
	Grad []float64
}

// ZeroGrads clears the gradient accumulators of every parameter.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// GradNorm returns the global L2 norm across all parameter gradients.
func GradNorm(params []*Param) float64 {
	s := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGrads rescales all gradients so their global norm is at most max.
// It returns the pre-clip norm.
func ClipGrads(params []*Param, max float64) float64 {
	norm := GradNorm(params)
	if max <= 0 || norm <= max {
		return norm
	}
	scale := max / (norm + 1e-12)
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] *= scale
		}
	}
	return norm
}

// AddGrads accumulates src gradients into dst (same network layout); used
// to reduce per-worker gradient shards after parallel backward passes.
func AddGrads(dst, src []*Param) {
	if len(dst) != len(src) {
		panic("nn: AddGrads parameter count mismatch")
	}
	for i := range dst {
		d, s := dst[i].Grad, src[i].Grad
		if len(d) != len(s) {
			panic("nn: AddGrads shape mismatch at " + dst[i].Name)
		}
		// d += 1·s through the vector kernel: multiplying by exactly 1.0
		// is exact, so this is bit-identical to the scalar loop.
		axpy1Span(d, s, 1)
	}
}

// xavierInit fills data with Xavier/Glorot-uniform values for a fan-in /
// fan-out pair.
func xavierInit(data []float64, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range data {
		data[i] = (rng.Float64()*2 - 1) * limit
	}
}
