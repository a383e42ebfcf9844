package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Linear is a dense layer Y = X·W + b with W stored In×Out. Batched
// calls on tall dense batches additionally keep a transposed weight
// copy (wt, Out×In) refreshed per call, so the dot-form kernels read
// unit-stride rows of Wᵀ; layers marked MarkSparseInput stay on the
// zero-skipping axpy kernels instead.
type Linear struct {
	In, Out int
	W       *Mat
	B       []float64
	dW      *Mat
	dB      []float64
	name    string

	wt       []float64 // lazily sized Out×In transpose scratch (exclusive use)
	wtExt    bool      // wt aliases the master's copy, refreshed externally
	sparseIn bool      // inputs are mostly zero: prefer the axpy kernels
}

// NewLinear builds a Xavier-initialized dense layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:    NewMat(in, out),
		B:    make([]float64, out),
		dW:   NewMat(in, out),
		dB:   make([]float64, out),
		name: name,
	}
	xavierInit(l.W.Data, in, out, rng)
	return l
}

// Params exposes the layer's trainable tensors.
func (l *Linear) Params() []*Param {
	return []*Param{
		{Name: l.name + ".W", Val: l.W.Data, Grad: l.dW.Data},
		{Name: l.name + ".b", Val: l.B, Grad: l.dB},
	}
}

// CloneShared returns a layer aliasing l's weights, bias, and transpose
// scratch but owning fresh gradient accumulators. Gradient shard
// workers use it so the master's Adam step is visible to every worker
// without a per-minibatch weight copy; the worker must not run
// concurrently with the optimizer, and the transpose scratch must be
// refreshed through the master's SyncSharedScratch (clones never write
// it — concurrent shard passes would race).
func (l *Linear) CloneShared() *Linear {
	l.ensureWt()
	return &Linear{
		In: l.In, Out: l.Out,
		W: l.W, B: l.B,
		dW:   NewMat(l.In, l.Out),
		dB:   make([]float64, l.Out),
		name: l.name, sparseIn: l.sparseIn,
		wt: l.wt, wtExt: true,
	}
}

// ensureWt sizes the transpose scratch without filling it. It never
// reallocates once sized (shapes are fixed), so CloneShared aliases
// stay valid.
func (l *Linear) ensureWt() {
	if cap(l.wt) < l.In*l.Out {
		l.wt = make([]float64, l.In*l.Out)
	}
	l.wt = l.wt[:l.In*l.Out]
}

// MarkSparseInput pins the layer to the zero-skipping axpy batch
// kernels: for mostly-zero inputs (one-hot observation rows) they beat
// the dot-form kernels, whose per-output-block scans pay the zero check
// once per block instead of once per input.
func (l *Linear) MarkSparseInput() { l.sparseIn = true }

// ApplyInto computes y = xW + b into the caller-owned y (bias is written
// first, then the products accumulate — ApplyBatchInto's order, so a
// vector and a one-row batch produce identical bits).
func (l *Linear) ApplyInto(x, y []float64) {
	copy(y, l.B)
	axpyBlocked(y, x, l.W.Data, l.Out)
}

// syncWt refreshes the transposed weight copy. Called at the top of a
// batched kernel (exclusive-use contract), so it can never go stale.
// Layers whose scratch is externally refreshed (CloneShared aliases)
// never write it themselves.
func (l *Linear) syncWt() {
	if l.wtExt {
		return
	}
	l.ensureWt()
	transposeInto(l.wt, l.W)
}

// dotForm reports whether a batch of r rows should run the transposed
// dot-form kernels: without vector kernels, tall dense batches amortize
// the per-call transpose; with them the (vectorized) axpy form wins
// everywhere. Sparse-input layers always stay on axpy.
func (l *Linear) dotForm(r int) bool {
	return !useVecKernels && r >= dotFormMinRows && !l.sparseIn
}

// ApplyBatchInto computes Y = XW + b row by row in the bias-first
// summation order. This is the inference-path batch kernel; ForwardInto
// uses the products-first order instead (the two differ in the last
// float bit, and the golden traces pin each path's order). Rows
// partition across the kernel worker pool.
func (l *Linear) ApplyBatchInto(X, Y *Mat) {
	if X.C != l.In {
		panic(fmt.Sprintf("nn: %s batch input width %d, want %d", l.name, X.C, l.In))
	}
	if Y.R != X.R || Y.C != l.Out {
		panic(fmt.Sprintf("nn: %s batch dst shape %dx%d, want %dx%d", l.name, Y.R, Y.C, X.R, l.Out))
	}
	work := X.R * l.In * l.Out
	if l.dotForm(X.R) {
		l.syncWt()
		g := gemmArgs{a: X, dst: Y, wt: l.wt, v1: l.B}
		if extra := parPlan(X.R, work); extra == 0 {
			kApplyDotRows(&g, 0, X.R)
		} else {
			parDispatch(kApplyDotRows, g, X.R, extra)
		}
		return
	}
	g := gemmArgs{a: X, dst: Y, b: l.W, v1: l.B, sparse: l.sparseIn}
	if extra := parPlan(X.R, work); extra == 0 {
		kApplyRows(&g, 0, X.R)
	} else {
		parDispatch(kApplyRows, g, X.R, extra)
	}
}

// ForwardInto computes Y = XW + b in place (products accumulate first,
// bias is added last — the order of the gradient recompute path). Rows
// partition across the kernel worker pool.
func (l *Linear) ForwardInto(X, Y *Mat) { l.forwardInto(X, Y, true) }

// ForwardSharedInto is ForwardInto for callers whose goroutines share
// one layer concurrently (the transformer's row-parallel forward): it
// skips the transposed-copy fast path, whose scratch refresh would race.
// The output is bit-identical to ForwardInto.
func (l *Linear) ForwardSharedInto(X, Y *Mat) { l.forwardInto(X, Y, false) }

func (l *Linear) forwardInto(X, Y *Mat, allowDot bool) {
	if X.C != l.In {
		panic(fmt.Sprintf("nn: %s forward input width %d, want %d", l.name, X.C, l.In))
	}
	if Y.R != X.R || Y.C != l.Out {
		panic(fmt.Sprintf("nn: %s forward dst shape %dx%d, want %dx%d", l.name, Y.R, Y.C, X.R, l.Out))
	}
	work := X.R * l.In * l.Out
	if allowDot && l.dotForm(X.R) {
		l.syncWt()
		g := gemmArgs{a: X, dst: Y, wt: l.wt, v1: l.B}
		if extra := parPlan(X.R, work); extra == 0 {
			kForwardDotRows(&g, 0, X.R)
		} else {
			parDispatch(kForwardDotRows, g, X.R, extra)
		}
		return
	}
	g := gemmArgs{a: X, dst: Y, b: l.W, v1: l.B, sparse: l.sparseIn}
	if extra := parPlan(X.R, work); extra == 0 {
		kForwardRows(&g, 0, X.R)
	} else {
		parDispatch(kForwardRows, g, X.R, extra)
	}
}

// backwardDX writes dX = dY·Wᵀ. Tall batches with vector kernels run
// the axpy form over the transposed weight copy (unit-stride inner
// loops); otherwise the four-chain dot form. Both keep MatMulABTInto's
// k-ascending per-element order, so the choice never changes a bit.
func (l *Linear) backwardDX(dY, dX *Mat) {
	if dY.C != l.Out || dX.R != dY.R || dX.C != l.In {
		panic(fmt.Sprintf("nn: %s backward dX shape %dx%d for dY %dx%d, want %dx%d and %dx%d",
			l.name, dX.R, dX.C, dY.R, dY.C, dY.R, l.In, dY.R, l.Out))
	}
	if useVecKernels && dY.R >= dxAxpyMinRows {
		l.syncWt()
		g := gemmArgs{a: dY, dst: dX, wt: l.wt}
		if extra := parPlan(dY.R, dY.R*l.In*l.Out); extra == 0 {
			kABTAxpyRows(&g, 0, dY.R)
		} else {
			parDispatch(kABTAxpyRows, g, dY.R, extra)
		}
		return
	}
	MatMulABTInto(dX, dY, l.W)
}

// BackwardPartInto accumulates dW += XᵀdY and dB += Σrows(dY) and writes
// dX, part-then-add: dWpart is caller scratch (In×Out) receiving the
// XᵀdY total before it is added to dW as one term. BackwardRowsInto
// instead folds rows in directly; the two orders differ in the last
// float bit once dW is non-zero, so each network must keep one order
// for its golden traces to hold. dX may be nil when the input gradient
// is not needed (first layer of a network).
func (l *Linear) BackwardPartInto(X, dY, dX, dWpart *Mat) {
	MatMulATBInto(dWpart, X, dY)
	for i := range l.dW.Data {
		l.dW.Data[i] += dWpart.Data[i]
	}
	l.backwardBias(dY)
	if dX != nil {
		l.backwardDX(dY, dX)
	}
}

// BackwardRowsInto accumulates dW sample-row by sample-row — the same
// per-element addition sequence as one call per single-row batch — and
// writes dX into the caller-owned matrix. The MLP uses it, so its
// gradients do not depend on how a minibatch is split into rows.
func (l *Linear) BackwardRowsInto(X, dY, dX *Mat) {
	matMulATBAcc(l.dW, X, dY)
	l.backwardBias(dY)
	if dX != nil {
		l.backwardDX(dY, dX)
	}
}

// backwardBias accumulates dB += Σrows(dY).
func (l *Linear) backwardBias(dY *Mat) {
	for i := 0; i < dY.R; i++ {
		row := dY.Row(i)
		for j := range row {
			l.dB[j] += row[j]
		}
	}
}

// TanhBackwardInto writes dX = dY · (1 − Y²) into the caller-owned dX.
func TanhBackwardInto(Y, dY, dX *Mat) {
	for i := range Y.Data {
		y := Y.Data[i]
		dX.Data[i] = dY.Data[i] * (1 - y*y)
	}
}

// ReLUInto applies max(0, x) elementwise into Y.
func ReLUInto(X, Y *Mat) {
	for i, v := range X.Data {
		if v > 0 {
			Y.Data[i] = v
		} else {
			Y.Data[i] = 0
		}
	}
}

// ReLUBackwardInto writes the masked upstream gradient into dX.
func ReLUBackwardInto(X, dY, dX *Mat) {
	for i := range X.Data {
		if X.Data[i] > 0 {
			dX.Data[i] = dY.Data[i]
		} else {
			dX.Data[i] = 0
		}
	}
}

// LayerNorm normalizes each row to zero mean / unit variance and applies a
// learned gain and bias.
type LayerNorm struct {
	Dim   int
	Gain  []float64
	Bias  []float64
	dGain []float64
	dBias []float64
	name  string
}

// NewLayerNorm builds a layer norm with gain 1 and bias 0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:  dim,
		Gain: make([]float64, dim), Bias: make([]float64, dim),
		dGain: make([]float64, dim), dBias: make([]float64, dim),
		name: name,
	}
	for i := range ln.Gain {
		ln.Gain[i] = 1
	}
	return ln
}

// Params exposes the gain and bias tensors.
func (ln *LayerNorm) Params() []*Param {
	return []*Param{
		{Name: ln.name + ".gain", Val: ln.Gain, Grad: ln.dGain},
		{Name: ln.name + ".bias", Val: ln.Bias, Grad: ln.dBias},
	}
}

// CloneShared returns a layer norm aliasing ln's gain/bias but owning
// fresh gradient accumulators; see Linear.CloneShared.
func (ln *LayerNorm) CloneShared() *LayerNorm {
	return &LayerNorm{
		Dim: ln.Dim, Gain: ln.Gain, Bias: ln.Bias,
		dGain: make([]float64, ln.Dim), dBias: make([]float64, ln.Dim),
		name: ln.name,
	}
}

const lnEps = 1e-5

// lnCache stores per-row normalization statistics for the backward pass.
type lnCache struct {
	xhat   *Mat
	invStd []float64
}

// ForwardInto normalizes each row of X into Y, reusing the caller-owned
// cache's buffers across calls.
func (ln *LayerNorm) ForwardInto(X, Y *Mat, c *lnCache) {
	EnsureMat(&c.xhat, X.R, X.C)
	if cap(c.invStd) < X.R {
		c.invStd = make([]float64, X.R)
	}
	c.invStd = c.invStd[:X.R]
	for i := 0; i < X.R; i++ {
		row := X.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		vari := 0.0
		for _, v := range row {
			d := v - mean
			vari += d * d
		}
		vari /= float64(len(row))
		inv := 1 / math.Sqrt(vari+lnEps)
		c.invStd[i] = inv
		xh := c.xhat.Row(i)
		yr := Y.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			yr[j] = xh[j]*ln.Gain[j] + ln.Bias[j]
		}
	}
}

// BackwardInto accumulates gain/bias gradients and writes dX into the
// caller-owned matrix; dxh is caller scratch of width dY.C.
func (ln *LayerNorm) BackwardInto(c *lnCache, dY, dX *Mat, dxh []float64) {
	n := float64(dY.C)
	for i := 0; i < dY.R; i++ {
		dyr, xh := dY.Row(i), c.xhat.Row(i)
		// dxhat = dy * gain
		sumDx, sumDxXh := 0.0, 0.0
		for j := range dyr {
			ln.dGain[j] += dyr[j] * xh[j]
			ln.dBias[j] += dyr[j]
			dxh[j] = dyr[j] * ln.Gain[j]
			sumDx += dxh[j]
			sumDxXh += dxh[j] * xh[j]
		}
		inv := c.invStd[i]
		dxr := dX.Row(i)
		for j := range dxr {
			dxr[j] = inv / n * (n*dxh[j] - sumDx - xh[j]*sumDxXh)
		}
	}
}

// SoftmaxInto writes the numerically stabilized softmax of logits into
// the caller-owned out (same length) and returns it.
func SoftmaxInto(out, logits []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SoftmaxLogSoftmaxInto fills probs (bit-identical to
// SoftmaxInto(probs, logits)) and the log-probabilities logp for one
// logits row, sharing the exponential evaluations — the PPO surrogate
// needs both per sample, and exp dominates the per-sample epilogue cost.
func SoftmaxLogSoftmaxInto(probs, logp, logits []float64) {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		probs[i] = math.Exp(v - max)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	lse := max + math.Log(sum)
	for i, v := range logits {
		logp[i] = v - lse
	}
}

// Entropy returns the Shannon entropy of a probability vector.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// SampleCategorical draws an index from the probability vector.
func SampleCategorical(p []float64, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, v := range p {
		acc += v
		if u <= acc {
			return i
		}
	}
	return len(p) - 1
}

// Argmax returns the index of the largest element (ties to the lowest
// index), the greedy action used for deterministic replay.
func Argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
