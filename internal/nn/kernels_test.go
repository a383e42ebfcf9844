package nn

import (
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

func mlpForKernels(seed int64) *MLPPolicy {
	return NewMLP(MLPConfig{ObsDim: 64, Actions: 11, Hidden: []int{64, 64}, Seed: seed})
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
// and optimizer step.
func TestVectorKernelsMatchPureGo(t *testing.T) {
	if !useVecKernels {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(3))
	X := testObsBatch(rng, 33, 64)

	vecL, vecV, vecP := runBatchPass(mlpForKernels(9), X)
	useVecKernels = false
	goL, goV, goP := runBatchPass(mlpForKernels(9), X)
	useVecKernels = true

	bitsEqualSlice(t, "logits", vecL.Data, goL.Data)
	bitsEqualSlice(t, "values", vecV, goV)
	for i := range vecP {
		bitsEqualSlice(t, "params", vecP[i], goP[i])
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
