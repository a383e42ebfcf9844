package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulShapesAndValues(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})  // 3x2
	b := FromRows([][]float64{{7, 8, 9}, {10, 11, 12}}) // 2x3
	c := NewMat(3, 3)
	MatMulInto(c, a, b)
	want := [][]float64{{27, 30, 33}, {61, 68, 75}, {95, 106, 117}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMat(4, 3)
	b := NewMat(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// MatMulATBInto(a, b) == aᵀ·b.
	at := NewMat(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want, got := NewMat(3, 5), NewMat(3, 5)
	MatMulInto(want, at, b)
	MatMulATBInto(got, a, b)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatal("MatMulATBInto mismatch")
		}
	}
	// MatMulABTInto(x, y) == x·yᵀ.
	x := NewMat(2, 3)
	y := NewMat(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	yt := NewMat(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			yt.Set(j, i, y.At(i, j))
		}
	}
	want, got = NewMat(2, 5), NewMat(2, 5)
	MatMulInto(want, x, yt)
	MatMulABTInto(got, x, y)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatal("MatMulABTInto mismatch")
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Bound inputs to avoid quick's infinities.
		logits := []float64{math.Mod(a, 50), math.Mod(b, 50), math.Mod(c, 50)}
		p := SoftmaxInto(make([]float64, len(logits)), logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// SoftmaxLogSoftmaxInto, the PPO surrogate's epilogue, must produce
// SoftmaxInto's probabilities bit-for-bit and their logarithms.
func TestLogSoftmaxConsistency(t *testing.T) {
	logits := []float64{1.5, -2, 0.25, 7}
	want := SoftmaxInto(make([]float64, len(logits)), logits)
	p := make([]float64, len(logits))
	lp := make([]float64, len(logits))
	SoftmaxLogSoftmaxInto(p, lp, logits)
	for i := range p {
		if math.Float64bits(p[i]) != math.Float64bits(want[i]) {
			t.Fatalf("probs[%d] = %v, SoftmaxInto gives %v", i, p[i], want[i])
		}
		if math.Abs(math.Log(p[i])-lp[i]) > 1e-9 {
			t.Fatalf("log softmax inconsistent at %d", i)
		}
	}
}

func TestEntropyBounds(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if h := Entropy(uniform); math.Abs(h-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform entropy = %v, want ln4", h)
	}
	if h := Entropy([]float64{1, 0, 0, 0}); h != 0 {
		t.Fatalf("deterministic entropy = %v, want 0", h)
	}
}

// EntropyLogInto must return Entropy's bits and log p_k (0 for p_k <= 0).
func TestEntropyLogInto(t *testing.T) {
	for _, p := range [][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.7, 0.2, 0.1, 0, 0},
		{1, 0, 0},
		{0.5, math.NaN(), 0.5},
		{1e-300, 1 - 1e-300},
	} {
		logp := make([]float64, len(p))
		h := EntropyLogInto(logp, p)
		bitsEqualSlice(t, "entropy", []float64{h}, []float64{Entropy(p)})
		for k, v := range p {
			want := 0.0
			if !(v <= 0) {
				want = math.Log(v)
			}
			bitsEqualSlice(t, "log p", logp[k:k+1], []float64{want})
		}
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[SampleCategorical(p, rng)]++
	}
	if counts[0] < 6500 || counts[0] > 7500 {
		t.Fatalf("p=0.7 sampled %d/10000", counts[0])
	}
	if counts[2] > 1500 {
		t.Fatalf("p=0.1 sampled %d/10000", counts[2])
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{2, 2, 1}) != 0 {
		t.Fatal("argmax tie should pick lowest index")
	}
}

// scalarLoss is a deterministic scalar function of (logits, value) used for
// finite-difference gradient checking: L = Σ cᵢ·logitᵢ + 0.5·value².
func scalarLoss(logits []float64, value float64) float64 {
	l := 0.0
	for i, v := range logits {
		l += float64(i+1) * 0.3 * v
	}
	return l + 0.5*value*value
}

// dScalarLoss returns the analytic upstream gradients of scalarLoss.
func dScalarLoss(logits []float64, value float64) ([]float64, float64) {
	d := make([]float64, len(logits))
	for i := range d {
		d[i] = float64(i+1) * 0.3
	}
	return d, value
}

// applyRow runs one observation through the net as a one-row batch.
func applyRow(net PolicyValueNet, obs []float64) ([]float64, float64) {
	logits := NewMat(1, net.NumActions())
	var v [1]float64
	net.ApplyBatch(&Mat{R: 1, C: len(obs), Data: obs}, logits, v[:])
	return logits.Data, v[0]
}

// gradRow accumulates one observation's gradients as a one-row batch.
func gradRow(net PolicyValueNet, obs, dLogits []float64, dValue float64) {
	dv := [1]float64{dValue}
	net.GradBatch(&Mat{R: 1, C: len(obs), Data: obs},
		&Mat{R: 1, C: len(dLogits), Data: dLogits}, dv[:])
}

// gradCheck verifies one-row GradBatch against central finite
// differences of one-row ApplyBatch on every parameter of the network.
func gradCheck(t *testing.T, net PolicyValueNet, obs []float64, tol float64) {
	t.Helper()
	ZeroGrads(net.Params())
	logits, value := applyRow(net, obs)
	dl, dv := dScalarLoss(logits, value)
	gradRow(net, obs, dl, dv)

	const eps = 1e-5
	checked := 0
	for _, p := range net.Params() {
		stride := len(p.Val)/5 + 1 // spot-check a subset of each tensor
		for j := 0; j < len(p.Val); j += stride {
			orig := p.Val[j]
			p.Val[j] = orig + eps
			l1, v1 := applyRow(net, obs)
			p.Val[j] = orig - eps
			l2, v2 := applyRow(net, obs)
			p.Val[j] = orig
			num := (scalarLoss(l1, v1) - scalarLoss(l2, v2)) / (2 * eps)
			ana := p.Grad[j]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > tol {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", p.Name, j, num, ana)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("grad check exercised no parameters")
	}
}

func TestMLPGradCheck(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 7, Actions: 5, Hidden: []int{8, 6}, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	obs := make([]float64, 7)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	gradCheck(t, net, obs, 1e-5)
}

func TestTransformerGradCheck(t *testing.T) {
	net := NewTransformer(TransformerConfig{
		Window: 5, Features: 6, Actions: 4, Model: 8, Heads: 2, FF: 12, Seed: 5,
	})
	rng := rand.New(rand.NewSource(6))
	obs := make([]float64, net.ObsDim())
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	gradCheck(t, net, obs, 1e-4)
}

func TestLayerNormGradCheck(t *testing.T) {
	// Standalone finite-difference check of LayerNorm input gradients.
	ln := NewLayerNorm("t", 6)
	rng := rand.New(rand.NewSource(7))
	X := NewMat(3, 6)
	for i := range X.Data {
		X.Data[i] = rng.NormFloat64() * 2
	}
	Y := NewMat(3, 6)
	var c lnCache
	loss := func(X *Mat) float64 {
		ln.ForwardInto(X, Y, &c)
		s := 0.0
		for i, v := range Y.Data {
			s += float64(i%4) * 0.1 * v
		}
		return s
	}
	ln.ForwardInto(X, Y, &c)
	dY := NewMat(3, 6)
	for i := range dY.Data {
		dY.Data[i] = float64(i%4) * 0.1
	}
	dX := NewMat(3, 6)
	ln.BackwardInto(&c, dY, dX, make([]float64, 6))
	const eps = 1e-6
	for j := 0; j < len(X.Data); j += 3 {
		orig := X.Data[j]
		X.Data[j] = orig + eps
		l1 := loss(X)
		X.Data[j] = orig - eps
		l2 := loss(X)
		X.Data[j] = orig
		num := (l1 - l2) / (2 * eps)
		if math.Abs(num-dX.Data[j]) > 1e-5 {
			t.Fatalf("layernorm dX[%d]: numeric %v vs analytic %v", j, num, dX.Data[j])
		}
	}
}

// narrowActions are policy-head widths below narrowOut (the value head
// is always 1 wide): the train scenarios' 4 and 5 plus the edges of the
// 4x4 and 4x1 kernel tiling.
var narrowActions = []int{1, 4, 5, 7}

// batchNets builds one MLP and one Transformer sized for the batch
// equivalence tests, plus MLPs at hidden width 64 with every narrow
// policy-head width.
func batchNets() []PolicyValueNet {
	nets := []PolicyValueNet{
		NewMLP(MLPConfig{ObsDim: 12, Actions: 5, Hidden: []int{10, 8}, Seed: 11}),
		NewTransformer(TransformerConfig{Window: 4, Features: 3, Actions: 5, Model: 8, Heads: 2, FF: 12, Seed: 11}),
	}
	for _, a := range narrowActions {
		nets = append(nets, NewMLP(MLPConfig{ObsDim: 12, Actions: a, Hidden: []int{64, 64}, Seed: 11}))
	}
	return nets
}

// forEachKernelSet runs f with vector kernels on (where the machine has
// them) and off, restoring the setting afterwards.
func forEachKernelSet(t *testing.T, f func(vec bool)) {
	t.Helper()
	defer func(v bool) { useVecKernels = v }(useVecKernels)
	for _, vec := range []bool{true, false} {
		if vec && !useVecKernels {
			t.Log("no vector kernels on this machine; checking the pure-Go kernels only")
			continue
		}
		useVecKernels = vec
		f(vec)
	}
}

func randBatch(rng *rand.Rand, rows, dim int) *Mat {
	X := NewMat(rows, dim)
	for i := range X.Data {
		X.Data[i] = rng.NormFloat64()
	}
	return X
}

// Every row of a tall ApplyBatch must equal a one-row ApplyBatch of that
// row, bit for bit, on both backbones and both kernel sets. Greedy replay
// runs one row per step and the lockstep rollout one row per live env,
// so neither may see a result that depends on the batch height. Heights
// 64 and 65 with vector kernels off reach the dot-form kernels
// (dotFormMinRows), which a one-row batch never takes.
func TestApplyBatchHeightInvariance(t *testing.T) {
	forEachKernelSet(t, func(vec bool) {
		for _, net := range batchNets() {
			// Trained nets have non-zero biases; fresh ones would hide
			// a bias-first/bias-last order mismatch.
			rng := rand.New(rand.NewSource(31))
			for _, p := range net.Params() {
				for i := range p.Val {
					p.Val[i] += 0.1 * rng.NormFloat64()
				}
			}
			for _, rows := range []int{1, 7, dotFormMinRows, dotFormMinRows + 1} {
				name := fmt.Sprintf("%T vec=%v rows=%d", net, vec, rows)
				X := testObsBatch(rand.New(rand.NewSource(int64(rows))), rows, net.ObsDim())
				logits := NewMat(rows, net.NumActions())
				values := make([]float64, rows)
				net.ApplyBatch(X, logits, values)
				for i := 0; i < rows; i++ {
					l, v := applyRow(net, X.Row(i))
					bitsEqualSlice(t, fmt.Sprintf("%s row %d logits", name, i), logits.Row(i), l)
					bitsEqualSlice(t, fmt.Sprintf("%s row %d value", name, i), values[i:i+1], []float64{v})
				}
			}
		}
	})
}

// One tall GradBatch must reproduce the sequence of one-row GradBatch
// calls on a same-seed net bit-for-bit — the property the golden-trace
// training test relies on. Heights 6 and 13 leave partial four-row
// blocks for the narrow-head kernels.
func TestGradBatchMatchesPerSampleGrad(t *testing.T) {
	forEachKernelSet(t, func(vec bool) {
		singles := batchNets()
		for k, batched := range batchNets() {
			single := singles[k]
			for _, rows := range []int{6, 13} {
				rng := rand.New(rand.NewSource(22))
				X := randBatch(rng, rows, batched.ObsDim())
				dL := randBatch(rng, rows, batched.NumActions())
				dV := make([]float64, rows)
				for i := range dV {
					dV[i] = rng.NormFloat64()
				}
				ZeroGrads(batched.Params())
				ZeroGrads(single.Params())
				batched.GradBatch(X, dL, dV)
				for i := 0; i < rows; i++ {
					gradRow(single, X.Row(i), dL.Row(i), dV[i])
				}
				bp, sp := batched.Params(), single.Params()
				for p := range bp {
					bitsEqualSlice(t, fmt.Sprintf("%T actions=%d vec=%v rows=%d grad %s",
						batched, batched.NumActions(), vec, rows, bp[p].Name), bp[p].Grad, sp[p].Grad)
				}
			}
		}
	})
}

// The batched MLP forward must not allocate once its scratch is warm.
func TestMLPApplyBatchZeroAllocs(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 272, Actions: 11, Seed: 1})
	rng := rand.New(rand.NewSource(23))
	X := randBatch(rng, 32, 272)
	logits := NewMat(32, 11)
	values := make([]float64, 32)
	net.ApplyBatch(X, logits, values) // warm scratch
	avg := testing.AllocsPerRun(200, func() {
		net.ApplyBatch(X, logits, values)
	})
	if avg != 0 {
		t.Fatalf("ApplyBatch allocates %.2f objects per call in steady state, want 0", avg)
	}
}

// The batched MLP backward must not allocate either.
func TestMLPGradBatchZeroAllocs(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 272, Actions: 11, Seed: 1})
	rng := rand.New(rand.NewSource(24))
	X := randBatch(rng, 32, 272)
	dL := randBatch(rng, 32, 11)
	dV := make([]float64, 32)
	net.GradBatch(X, dL, dV) // warm scratch
	avg := testing.AllocsPerRun(100, func() {
		net.GradBatch(X, dL, dV)
	})
	if avg != 0 {
		t.Fatalf("GradBatch allocates %.2f objects per call in steady state, want 0", avg)
	}
}

// The transformer's batched passes must not allocate either: a one-row
// ApplyBatch is every greedy-replay step, and GradBatch runs row by row.
func TestTransformerBatchZeroAllocs(t *testing.T) {
	net := NewTransformer(TransformerConfig{Window: 16, Features: 17, Actions: 11, Model: 32, Heads: 4, Seed: 1})
	rng := rand.New(rand.NewSource(25))
	X := randBatch(rng, 4, net.ObsDim())
	dL := randBatch(rng, 4, 11)
	dV := make([]float64, 4)
	row := &Mat{R: 1, C: X.C, Data: X.Row(0)}
	logits := NewMat(1, 11)
	var value [1]float64
	net.ApplyBatch(row, logits, value[:]) // warm scratch
	if avg := testing.AllocsPerRun(100, func() { net.ApplyBatch(row, logits, value[:]) }); avg != 0 {
		t.Fatalf("one-row ApplyBatch allocates %.2f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { net.GradBatch(X, dL, dV) }); avg != 0 {
		t.Fatalf("GradBatch allocates %.2f objects per call, want 0", avg)
	}
}

func TestAdamReducesQuadraticLoss(t *testing.T) {
	// Minimize f(w) = Σ (w_i - target_i)² with Adam using exact grads.
	target := []float64{1, -2, 3}
	w := []float64{0, 0, 0}
	g := make([]float64, 3)
	p := []*Param{{Name: "w", Val: w, Grad: g}}
	opt := NewAdam(p, 0.05)
	for step := 0; step < 2000; step++ {
		for i := range w {
			g[i] = 2 * (w[i] - target[i])
		}
		opt.Step()
		ZeroGrads(p)
	}
	for i := range w {
		if math.Abs(w[i]-target[i]) > 0.01 {
			t.Fatalf("Adam did not converge: w=%v", w)
		}
	}
}

func TestClipGrads(t *testing.T) {
	p := []*Param{{Name: "a", Val: make([]float64, 2), Grad: []float64{3, 4}}}
	norm := ClipGrads(p, 1)
	if math.Abs(norm-5) > 1e-9 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if got := GradNorm(p); math.Abs(got-1) > 1e-6 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// Below the threshold: untouched.
	p[0].Grad[0], p[0].Grad[1] = 0.3, 0.4
	ClipGrads(p, 1)
	if p[0].Grad[0] != 0.3 {
		t.Fatal("clip must not change small gradients")
	}
}

func TestAddGrads(t *testing.T) {
	a := []*Param{{Name: "x", Val: make([]float64, 2), Grad: []float64{1, 2}}}
	b := []*Param{{Name: "x", Val: make([]float64, 2), Grad: []float64{10, 20}}}
	AddGrads(a, b)
	if a[0].Grad[0] != 11 || a[0].Grad[1] != 22 {
		t.Fatalf("AddGrads result %v", a[0].Grad)
	}
}

func TestTransformerRejectsBadHeadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Model not divisible by Heads should panic")
		}
	}()
	NewTransformer(TransformerConfig{Window: 4, Features: 4, Actions: 2, Model: 10, Heads: 4})
}

func TestMLPInitialPolicyNearUniform(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 10, Actions: 7, Seed: 10})
	rng := rand.New(rand.NewSource(11))
	obs := make([]float64, 10)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	logits, _ := applyRow(net, obs)
	p := SoftmaxInto(make([]float64, len(logits)), logits)
	for _, v := range p {
		if v < 0.05 || v > 0.35 {
			t.Fatalf("initial policy too peaked: %v", p)
		}
	}
}
