package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// testObsBatch builds a batch with the hot path's sparsity flavor:
// mostly zeros with one-hot-ish runs, plus dense noise rows.
func testObsBatch(rng *rand.Rand, rows, cols int) *Mat {
	X := NewMat(rows, cols)
	for r := 0; r < rows; r++ {
		row := X.Row(r)
		if r%3 == 0 {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			continue
		}
		for j := range row {
			if rng.Float64() < 0.25 {
				row[j] = 1
			}
		}
	}
	return X
}

func mlpForKernels(seed int64) *MLPPolicy { return mlpWithActions(11, seed) }

func mlpWithActions(actions int, seed int64) *MLPPolicy {
	return NewMLP(MLPConfig{ObsDim: 64, Actions: actions, Hidden: []int{64, 64}, Seed: seed})
}

// runBatchPass runs one ApplyBatch + GradBatch + Adam step and returns
// the logits, values, and final parameters.
func runBatchPass(net *MLPPolicy, X *Mat) (logits *Mat, values []float64, params [][]float64) {
	logits = NewMat(X.R, net.NumActions())
	values = make([]float64, X.R)
	net.ApplyBatch(X, logits, values)
	dL := NewMat(X.R, net.NumActions())
	dV := make([]float64, X.R)
	for i := range dL.Data {
		dL.Data[i] = math.Sin(float64(i)) * 0.01
	}
	for i := range dV {
		dV[i] = math.Cos(float64(i)) * 0.01
	}
	ZeroGrads(net.Params())
	net.GradBatch(X, dL, dV)
	opt := NewAdam(net.Params(), 1e-2)
	opt.Step()
	for _, p := range net.Params() {
		params = append(params, append([]float64(nil), p.Val...))
	}
	return logits, values, params
}

func bitsEqualSlice(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: bit divergence at %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestVectorKernelsMatchPureGo pins the AVX micro-kernels to the
// pure-Go blocked kernels bit-for-bit across a full forward, backward,
// and optimizer step, for a wide policy head and every narrow one.
func TestVectorKernelsMatchPureGo(t *testing.T) {
	if !useVecKernels {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(3))
	X := testObsBatch(rng, 33, 64)

	for _, actions := range append([]int{11}, narrowActions...) {
		vecL, vecV, vecP := runBatchPass(mlpWithActions(actions, 9), X)
		useVecKernels = false
		goL, goV, goP := runBatchPass(mlpWithActions(actions, 9), X)
		useVecKernels = true

		name := fmt.Sprintf("actions=%d", actions)
		bitsEqualSlice(t, name+" logits", vecL.Data, goL.Data)
		bitsEqualSlice(t, name+" values", vecV, goV)
		for i := range vecP {
			bitsEqualSlice(t, name+" params", vecP[i], goP[i])
		}
	}
}

// TestLayerKernelsEdgeValues drives the narrow-layer kernels and the
// column-blocked weight-gradient tiles directly with inputs the nets
// rarely produce: exact zeros (skipped), -0 and NaN inputs, infinite
// weights behind zero inputs, and -0 or NaN chain starts (which must
// leave the branch-free narrow kernels). Widths cover every narrow
// head, a single 8-column tile, tiles plus a remainder, and 32-column
// tiles. Every output and gradient must match the pure-Go kernels bit
// for bit.
func TestLayerKernelsEdgeValues(t *testing.T) {
	if !useVecKernels {
		t.Skip("no vector kernels on this machine")
	}
	negZero := math.Copysign(0, -1)
	run := func(out int, poison bool) (Y, dX *Mat, dW []float64) {
		rng := rand.New(rand.NewSource(int64(out)))
		l := NewLinear("edge", 10, out, rng)
		X := randBatch(rng, 11, 10)
		for i := range X.Data {
			switch i % 7 {
			case 0:
				X.Data[i] = 0
			case 3:
				X.Data[i] = negZero
			}
		}
		X.Data[5] = math.NaN()
		for r := 0; r < X.R; r++ {
			X.Data[r*X.C] = 0 // input 0 is zero in every row
		}
		for i := range X.Row(1) {
			X.Row(1)[i] = 0 // row 1 keeps only its bias
		}
		for j := 0; j < out; j++ {
			l.W.Data[0*out+j] = math.Inf(1) // only ever behind a zero input
			l.B[j] = negZero
			l.dW.Data[j] = negZero
		}
		if !poison {
			for j := 0; j < out; j++ {
				l.B[j], l.dW.Data[j] = 0.5, 0.25
			}
		} else {
			l.dW.Data[out] = math.NaN()
		}
		Y = NewMat(X.R, out)
		l.ApplyBatchInto(X, Y)
		dY := randBatch(rng, X.R, out)
		dX = NewMat(X.R, 10)
		l.BackwardRowsInto(X, dY, dX)
		return Y, dX, l.dW.Data
	}
	for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 40, 64} {
		for _, poison := range []bool{false, true} {
			vY, vdX, vdW := run(out, poison)
			useVecKernels = false
			gY, gdX, gdW := run(out, poison)
			useVecKernels = true
			name := fmt.Sprintf("out=%d poison=%v", out, poison)
			bitsEqualSlice(t, name+" Y", vY.Data, gY.Data)
			bitsEqualSlice(t, name+" dX", vdX.Data, gdX.Data)
			bitsEqualSlice(t, name+" dW", vdW, gdW)
		}
	}
}

// TestKernelWorkerCountInvariance pins batched results across kernel
// worker pool sizes: row-partitioned execution must never change a bit.
func TestKernelWorkerCountInvariance(t *testing.T) {
	defer SetKernelWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	X := testObsBatch(rng, 40, 64)
	var refL *Mat
	var refV, refP []float64
	for _, workers := range []int{1, 2, runtime.NumCPU() + 2} {
		SetKernelWorkers(workers)
		L, V, P := runBatchPass(mlpForKernels(11), X)
		flat := []float64{}
		for _, p := range P {
			flat = append(flat, p...)
		}
		if refL == nil {
			refL, refV, refP = L, V, flat
			continue
		}
		bitsEqualSlice(t, "logits", L.Data, refL.Data)
		bitsEqualSlice(t, "values", V, refV)
		bitsEqualSlice(t, "params", flat, refP)
	}
}

// TestCloneSharedMatchesClone pins the weight-aliased shard clones to
// an independent same-seed net: same forward bits, same accumulated
// gradients.
func TestCloneSharedMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X := testObsBatch(rng, 20, 64)
	master := mlpForKernels(13)

	deep := mlpForKernels(13)
	shared := master.CloneShared()
	master.SyncSharedScratch() // CloneShared contract before shard passes

	for name, net := range map[string]PolicyValueNet{"deep": deep, "shared": shared} {
		L := NewMat(X.R, net.NumActions())
		V := make([]float64, X.R)
		net.ApplyBatch(X, L, V)
		wantL := NewMat(X.R, master.NumActions())
		wantV := make([]float64, X.R)
		master.ApplyBatch(X, wantL, wantV)
		bitsEqualSlice(t, name+" logits", L.Data, wantL.Data)
		bitsEqualSlice(t, name+" values", V, wantV)
	}

	dL := NewMat(X.R, master.NumActions())
	dV := make([]float64, X.R)
	for i := range dL.Data {
		dL.Data[i] = 0.01
	}
	ZeroGrads(deep.Params())
	deep.GradBatch(X, dL, dV)
	ZeroGrads(shared.Params())
	shared.GradBatch(X, dL, dV)
	dp, sp := deep.Params(), shared.Params()
	for i := range dp {
		bitsEqualSlice(t, "grad "+dp[i].Name, sp[i].Grad, dp[i].Grad)
	}
}

// TestTransformerApplyBatchParallel pins the transformer's row-parallel
// batched forward to one-row batches across worker counts.
func TestTransformerApplyBatchParallel(t *testing.T) {
	defer SetKernelWorkers(runtime.GOMAXPROCS(0))
	cfg := TransformerConfig{Window: 6, Features: 9, Actions: 7, Model: 16, Heads: 2, Seed: 4}
	rng := rand.New(rand.NewSource(21))
	X := testObsBatch(rng, 24, 6*9)
	want := NewMat(X.R, cfg.Actions)
	wantV := make([]float64, X.R)
	ref := NewTransformer(cfg)
	for i := 0; i < X.R; i++ {
		logits, v := applyRow(ref, X.Row(i))
		copy(want.Row(i), logits)
		wantV[i] = v
	}
	for _, workers := range []int{1, 3} {
		SetKernelWorkers(workers)
		net := NewTransformer(cfg)
		got := NewMat(X.R, cfg.Actions)
		gotV := make([]float64, X.R)
		net.ApplyBatch(X, got, gotV)
		bitsEqualSlice(t, "logits", got.Data, want.Data)
		bitsEqualSlice(t, "values", gotV, wantV)
	}
}

// TestNestedDispatchDoesNotDeadlock reproduces the fresh-process state
// of a many-core machine — a wide token pool with no workers spawned
// yet — and runs the transformer's row-parallel forward, whose chunks
// nest further kernel dispatches from inside pool workers. parDispatch
// must provision capacity-1 workers (in-flight tasks are token-bounded
// to capacity-1), or the nested waits starve the pool and this test
// hangs.
func TestNestedDispatchDoesNotDeadlock(t *testing.T) {
	defer SetKernelWorkers(runtime.GOMAXPROCS(0))
	// Widen the token pool WITHOUT SetKernelWorkers, which would
	// pre-spawn workers and mask the bug.
	compute.mu.Lock()
	compute.cap = 16
	compute.mu.Unlock()
	cfg := TransformerConfig{Window: 16, Features: 8, Actions: 5, Model: 64, FF: 256, Heads: 4, Seed: 2}
	net := NewTransformer(cfg)
	rng := rand.New(rand.NewSource(33))
	X := testObsBatch(rng, 32, cfg.Window*cfg.Features)
	want := NewMat(X.R, cfg.Actions)
	wantV := make([]float64, X.R)
	for i := 0; i < X.R; i++ {
		logits, v := applyRow(net, X.Row(i))
		copy(want.Row(i), logits)
		wantV[i] = v
	}
	got := NewMat(X.R, cfg.Actions)
	gotV := make([]float64, X.R)
	for pass := 0; pass < 4; pass++ {
		net.ApplyBatch(X, got, gotV)
		bitsEqualSlice(t, "logits", got.Data, want.Data)
		bitsEqualSlice(t, "values", gotV, wantV)
	}
}

// TestAdamVectorMatchesScalar pins the vectorized Adam update to the
// scalar loop on awkward lengths (tails, non-multiples of 4).
func TestAdamVectorMatchesScalar(t *testing.T) {
	if !useVecKernels {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 3, 4, 7, 64, 130} {
		val := make([]float64, n)
		grad := make([]float64, n)
		m := make([]float64, n)
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			val[i], grad[i] = rng.NormFloat64(), rng.NormFloat64()
			m[i], v[i] = rng.NormFloat64(), math.Abs(rng.NormFloat64())
		}
		val2 := append([]float64(nil), val...)
		grad2 := append([]float64(nil), grad...)
		m2 := append([]float64(nil), m...)
		v2 := append([]float64(nil), v...)

		adamUpdate(val, grad, m, v, 0.9, 0.999, 0.3, 0.2, 1e-3, 1e-8)
		useVecKernels = false
		adamUpdate(val2, grad2, m2, v2, 0.9, 0.999, 0.3, 0.2, 1e-3, 1e-8)
		useVecKernels = true

		bitsEqualSlice(t, "val", val, val2)
		bitsEqualSlice(t, "m", m, m2)
		bitsEqualSlice(t, "v", v, v2)
	}
}

// TestDenseTileMatchesAxpy pins the three dense kernel tiers to each
// other bit for bit: pure Go, the AVX axpy kernels, and the AVX-512
// register tile on top of them. It drives ApplyBatchInto (bias-first),
// ForwardInto (products-first) and backwardDX of dense layers over
// heights that leave every remainder of the four-row blocks, widths
// below, at and around the 16-column tile, and inner dimensions of 1,
// 7 and 64. Inputs are dense in tanh range except for exact zeros
// planted in single rows, whose blocks must leave the tile on the
// zero-skipping forward paths; some bias entries are -0 or NaN, so the
// forward chains start there. Row 2 is all zeros and bias 0 is -0 over
// a positive weight, so a block that took the tile anyway would turn
// ApplyBatchInto's -0 into +0.
func TestDenseTileMatchesAxpy(t *testing.T) {
	defer func(v, z bool) { useVecKernels, useZMMKernels = v, z }(useVecKernels, useZMMKernels)
	type tier struct {
		name     string
		vec, zmm bool
	}
	tiers := []tier{{"purego", false, false}}
	switch {
	case !useVecKernels:
		t.Log("no vector kernels on this machine; checking the pure-Go kernels only")
	case !useZMMKernels:
		t.Log("no AVX-512 on this machine; checking pure Go against the AVX axpy kernels only")
		tiers = append(tiers, tier{"avx", true, false})
	default:
		tiers = append(tiers, tier{"avx", true, false}, tier{"avx512", true, true})
	}
	negZero := math.Copysign(0, -1)
	run := func(in, out, rows int) (apply, fwd, dX []float64) {
		rng := rand.New(rand.NewSource(int64(1000*in + 10*out + rows)))
		l := NewLinear("tile", in, out, rng)
		for j := range l.B {
			l.B[j] = 0.5 * rng.NormFloat64()
		}
		l.B[0] = negZero
		l.B[out-1] = math.NaN()
		l.W.Data[0] = math.Abs(l.W.Data[0])
		X := NewMat(rows, in)
		for i := range X.Data {
			X.Data[i] = math.Tanh(rng.NormFloat64())
		}
		if rows > 2 {
			clear(X.Row(2))
		}
		if rows > 5 {
			X.Row(5)[in-1] = negZero
		}
		if rows > 31 {
			X.Row(31)[0] = 0
		}
		Y := NewMat(rows, out)
		l.ApplyBatchInto(X, Y)
		F := NewMat(rows, out)
		l.ForwardInto(X, F)
		dY := randBatch(rng, rows, out)
		if rows > 3 {
			dY.Row(3)[out/2] = 0
		}
		D := NewMat(rows, in)
		l.backwardDX(dY, D)
		return Y.Data, F.Data, D.Data
	}
	for _, in := range []int{1, 7, 64} {
		for _, out := range []int{8, 15, 16, 17, 64, 65} {
			for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33} {
				var refA, refF, refD []float64
				for _, tr := range tiers {
					useVecKernels, useZMMKernels = tr.vec, tr.zmm
					a, f, d := run(in, out, rows)
					if refA == nil {
						refA, refF, refD = a, f, d
						continue
					}
					name := fmt.Sprintf("%s in=%d out=%d rows=%d", tr.name, in, out, rows)
					bitsEqualSlice(t, name+" ApplyBatchInto", a, refA)
					bitsEqualSlice(t, name+" ForwardInto", f, refF)
					bitsEqualSlice(t, name+" backwardDX", d, refD)
				}
			}
		}
	}
}

// TestAllNonzeroVec pins the tile's block check to the scalar x != 0
// over every length up to 40 (full opmask lanes plus every tail), with
// one ±0 at each position and a NaN, which counts as nonzero.
func TestAllNonzeroVec(t *testing.T) {
	if !useZMMKernels {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 40; n++ {
		for z := -1; z < n; z++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if n > 2 {
				x[n-2] = math.NaN()
			}
			if z >= 0 {
				x[z] = math.Copysign(0, float64(z%2*2-1))
			}
			if got, want := allNonzeroVec(x), z < 0; got != want {
				t.Fatalf("n=%d zero at %d: allNonzeroVec = %v, want %v", n, z, got, want)
			}
		}
	}
}
