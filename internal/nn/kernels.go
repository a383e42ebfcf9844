package nn

// Register-blocked GEMM micro-kernels behind the batched forward and
// backward paths. Every kernel preserves the exact per-output-element
// floating-point summation order of the scalar loop it replaces —
// blocking and vectorization change how many independent accumulation
// streams are in flight, never the order of additions into any single
// output — so a row's result never depends on the batch height or the
// kernel path (the golden-trace contract, see DESIGN.md "Hot path &
// data layout").
//
// Layouts:
//
//   - axpy form: walk inputs i in order, streaming W's row i into the
//     output row (unit stride both sides). Zero inputs skip the whole
//     stream, so this is also the layout for sparse activations (the
//     one-hot-heavy observation rows entering the first layer). Four
//     input rows fold per pass when their coefficients allow, cutting
//     output load/store traffic 4x; on amd64 the inner loops run the
//     AVX kernels in axpy_amd64.s (vectorized across output elements,
//     separate mul/add — single-rounding FMA would change the bits).
//   - dot form: walk four output columns at a time against a
//     pre-transposed weight copy, keeping four accumulators in
//     registers. Without vector kernels this beats the scalar axpy on
//     tall dense batches (dotFormMinRows); with them the axpy form wins
//     everywhere, so the dot form is the portable fallback.
//   - backward: dX = dY·Wᵀ reuses the transposed weight copy in axpy
//     form (unit-stride rows of Wᵀ, vector-kernel friendly) when the
//     batch is tall, and four independent dot-product chains otherwise;
//     dW += XᵀdY folds sample rows in blocks of four with the same
//     r-ascending per-element order as the row-by-row fold.

// dotFormMinRows is the batch height at which the dense layers switch
// to the transposed dot-form kernels when vector kernels are
// unavailable; below it the per-call transpose costs more than it saves
// over the blocked axpy (minibatch shards and rollout lockstep batches
// stay on axpy).
const dotFormMinRows = 64

// dxAxpyMinRows is the batch height at which the backward input
// gradient switches from the dot form to the transposed axpy form.
const dxAxpyMinRows = 8

const (
	dotBiasFirst = iota // t starts at bias[j] (ApplyBatchInto's order)
	dotBiasLast         // t starts at 0, bias added last (ForwardInto's order)
)

// axpy4Span accumulates y[j] += c0·w[j] + c1·w[s+j] + c2·w[2s+j] +
// c3·w[3s+j] — four consecutive stride-s rows of w folded into y with
// the additions in c0..c3 order per element. No zero skipping.
func axpy4Span(y, w []float64, stride int, c0, c1, c2, c3 float64) {
	n := 0
	if useVecKernels {
		n = len(y) &^ 3
		if n > 0 {
			cs := [4]float64{c0, c1, c2, c3}
			axpy4Vec(y[:n], w, stride, &cs)
			if n == len(y) {
				return
			}
		}
	}
	w0 := w[:len(y)]
	w1 := w[stride : stride+len(y)]
	w2 := w[2*stride : 2*stride+len(y)]
	w3 := w[3*stride : 3*stride+len(y)]
	for j := n; j < len(y); j++ {
		t := y[j]
		t += c0 * w0[j]
		t += c1 * w1[j]
		t += c2 * w2[j]
		t += c3 * w3[j]
		y[j] = t
	}
}

// axpy1Span accumulates y[j] += c·w[j].
func axpy1Span(y, w []float64, c float64) {
	n := 0
	if useVecKernels {
		n = len(y) &^ 3
		if n > 0 {
			axpy1Vec(y[:n], w, c)
			if n == len(y) {
				return
			}
		}
	}
	wr := w[:len(y)]
	for j := n; j < len(y); j++ {
		y[j] += c * wr[j]
	}
}

// axpyBlocked accumulates y += Σ_i x[i]·w[i,:] (w row-major In×Out,
// out == len(y)) with the i-ascending per-element order of the scalar
// loop; zero coefficients are skipped exactly as the scalar loop does.
// Eight (vector kernels) or four input rows fold per pass when their
// coefficients are all nonzero.
func axpyBlocked(y, x, w []float64, out int) {
	i := 0
	if useVecKernels && len(y) >= 8 {
		for ; i+8 <= len(x); i += 8 {
			if x[i] != 0 && x[i+1] != 0 && x[i+2] != 0 && x[i+3] != 0 &&
				x[i+4] != 0 && x[i+5] != 0 && x[i+6] != 0 && x[i+7] != 0 {
				cs := [8]float64{x[i], x[i+1], x[i+2], x[i+3], x[i+4], x[i+5], x[i+6], x[i+7]}
				n := len(y) &^ 3
				axpy8Vec(y[:n], w[i*out:], out, &cs)
				for j := n; j < len(y); j++ {
					t := y[j]
					for k := 0; k < 8; k++ {
						t += cs[k] * w[(i+k)*out+j]
					}
					y[j] = t
				}
				continue
			}
			axpyBlock4(y, x, w, out, i)
			axpyBlock4(y, x, w, out, i+4)
		}
	}
	for ; i+4 <= len(x); i += 4 {
		axpyBlock4(y, x, w, out, i)
	}
	for ; i < len(x); i++ {
		if xv := x[i]; xv != 0 {
			axpy1Span(y, w[i*out:], xv)
		}
	}
}

// axpyBlock4 folds input rows i..i+3 into y with zero skipping, in
// i-ascending per-element order.
func axpyBlock4(y, x, w []float64, out, i int) {
	x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
	if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
		axpy4Span(y, w[i*out:], out, x0, x1, x2, x3)
		return
	}
	if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
		return
	}
	for k := i; k < i+4; k++ {
		if xv := x[k]; xv != 0 {
			axpy1Span(y, w[k*out:], xv)
		}
	}
}

// axpySparse is axpyBlocked for mostly-zero inputs: one zero check per
// input, no block bookkeeping. With vector kernels the nonzero rows are
// gathered four at a time (the rows are rarely adjacent, so the fixed
// stride of axpy4Vec does not apply), folding them into y in one pass.
// Identical per-element order (i-ascending with zeros skipped), so all
// variants are interchangeable bit-for-bit.
func axpySparse(y, x, w []float64, out int) {
	if !useVecKernels || len(y) < 8 {
		for i, xv := range x {
			if xv != 0 {
				axpy1Span(y, w[i*out:], xv)
			}
		}
		return
	}
	n := len(y) &^ 3
	var cs [4]float64
	var rows [4]int
	cnt := 0
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		cs[cnt], rows[cnt] = xv, i
		cnt++
		if cnt < 4 {
			continue
		}
		w0 := w[rows[0]*out:]
		w1 := w[rows[1]*out:]
		w2 := w[rows[2]*out:]
		w3 := w[rows[3]*out:]
		axpy4VecG(y[:n], w0, w1, w2, w3, &cs)
		for j := n; j < len(y); j++ {
			t := y[j]
			t += cs[0] * w0[j]
			t += cs[1] * w1[j]
			t += cs[2] * w2[j]
			t += cs[3] * w3[j]
			y[j] = t
		}
		cnt = 0
	}
	for k := 0; k < cnt; k++ {
		axpy1Span(y, w[rows[k]*out:], cs[k])
	}
}

// axpyAll folds every row of w into y without zero skipping — the
// semantics of the dot-product form (MatMulABTInto never skips), in the
// vector-friendly axpy layout.
func axpyAll(y, x, w []float64, stride int) {
	i := 0
	if useVecKernels && len(y) >= 8 {
		for ; i+8 <= len(x); i += 8 {
			cs := [8]float64{x[i], x[i+1], x[i+2], x[i+3], x[i+4], x[i+5], x[i+6], x[i+7]}
			n := len(y) &^ 3
			axpy8Vec(y[:n], w[i*stride:], stride, &cs)
			for j := n; j < len(y); j++ {
				t := y[j]
				for k := 0; k < 8; k++ {
					t += cs[k] * w[(i+k)*stride+j]
				}
				y[j] = t
			}
		}
	}
	for ; i+4 <= len(x); i += 4 {
		axpy4Span(y, w[i*stride:], stride, x[i], x[i+1], x[i+2], x[i+3])
	}
	for ; i < len(x); i++ {
		axpy1Span(y, w[i*stride:], x[i])
	}
}

// dotRow computes one output row y from input row x against the
// transposed weights wt (row-major Out×In), four output columns per
// pass. Each output's additions run i-ascending with zero inputs
// skipped — the axpy per-element order exactly.
func dotRow(y, x, wt, bias []float64, in int, mode int) {
	j := 0
	for ; j+4 <= len(y); j += 4 {
		var t0, t1, t2, t3 float64
		if mode == dotBiasFirst {
			t0, t1, t2, t3 = bias[j], bias[j+1], bias[j+2], bias[j+3]
		}
		w0 := wt[j*in : j*in+in][:len(x)]
		w1 := wt[(j+1)*in : (j+1)*in+in][:len(x)]
		w2 := wt[(j+2)*in : (j+2)*in+in][:len(x)]
		w3 := wt[(j+3)*in : (j+3)*in+in][:len(x)]
		for i, xv := range x {
			if xv == 0 {
				continue
			}
			t0 += xv * w0[i]
			t1 += xv * w1[i]
			t2 += xv * w2[i]
			t3 += xv * w3[i]
		}
		if mode == dotBiasLast {
			t0 += bias[j]
			t1 += bias[j+1]
			t2 += bias[j+2]
			t3 += bias[j+3]
		}
		y[j], y[j+1], y[j+2], y[j+3] = t0, t1, t2, t3
	}
	for ; j < len(y); j++ {
		var t float64
		if mode == dotBiasFirst {
			t = bias[j]
		}
		wr := wt[j*in : j*in+in][:len(x)]
		for i, xv := range x {
			if xv == 0 {
				continue
			}
			t += xv * wr[i]
		}
		if mode == dotBiasLast {
			t += bias[j]
		}
		y[j] = t
	}
}

// transposeInto fills wt (length In·Out) with Wᵀ in row-major Out×In.
func transposeInto(wt []float64, w *Mat) {
	in, out := w.R, w.C
	for i := 0; i < in; i++ {
		row := w.Data[i*out : i*out+out]
		for j, v := range row {
			wt[j*in+i] = v
		}
	}
}

// --- row-range kernels (parPlan/parDispatch bodies) ---

// kApplyRows: Y rows [lo,hi) = bias-first axpy of X rows through W
// (g.a=X, g.dst=Y, g.b=W, g.v1=bias) — ApplyBatchInto's summation order.
// g.sparse selects the one-check-per-input variant.
func kApplyRows(g *gemmArgs, lo, hi int) {
	x, y, w, bias := g.a, g.dst, g.b, g.v1
	out := w.C
	for r := lo; r < hi; r++ {
		xr := x.Data[r*x.C : r*x.C+x.C]
		yr := y.Data[r*out : r*out+out]
		copy(yr, bias)
		if g.sparse {
			axpySparse(yr, xr, w.Data, out)
		} else {
			axpyBlocked(yr, xr, w.Data, out)
		}
	}
}

// kApplyDotRows: the dot-form dual of kApplyRows over the transposed
// weights g.wt; bit-identical output.
func kApplyDotRows(g *gemmArgs, lo, hi int) {
	x, y := g.a, g.dst
	in, out := x.C, y.C
	for r := lo; r < hi; r++ {
		dotRow(y.Data[r*out:r*out+out], x.Data[r*in:r*in+in], g.wt, g.v1, in, dotBiasFirst)
	}
}

// kForwardRows: Y rows [lo,hi) = products-first X·W with the bias added
// last per element — ForwardInto's summation order (MatMulInto + bias
// pass).
func kForwardRows(g *gemmArgs, lo, hi int) {
	x, y, w, bias := g.a, g.dst, g.b, g.v1
	out := w.C
	for r := lo; r < hi; r++ {
		xr := x.Data[r*x.C : r*x.C+x.C]
		yr := y.Data[r*out : r*out+out]
		for j := range yr {
			yr[j] = 0
		}
		if g.sparse {
			axpySparse(yr, xr, w.Data, out)
		} else {
			axpyBlocked(yr, xr, w.Data, out)
		}
		for j := range yr {
			yr[j] += bias[j]
		}
	}
}

// kForwardDotRows: the dot-form dual of kForwardRows.
func kForwardDotRows(g *gemmArgs, lo, hi int) {
	x, y := g.a, g.dst
	in, out := x.C, y.C
	for r := lo; r < hi; r++ {
		dotRow(y.Data[r*out:r*out+out], x.Data[r*in:r*in+in], g.wt, g.v1, in, dotBiasLast)
	}
}

// kMatMulRows: dst rows [lo,hi) = a·b (zeroed first), k-ascending per
// element.
func kMatMulRows(g *gemmArgs, lo, hi int) {
	a, b, dst := g.a, g.b, g.dst
	n := b.C
	for r := lo; r < hi; r++ {
		ar := a.Data[r*a.C : r*a.C+a.C]
		or := dst.Data[r*n : r*n+n]
		for j := range or {
			or[j] = 0
		}
		axpyBlocked(or, ar, b.Data, n)
	}
}

// kABTRows: dst rows [lo,hi) = a·bᵀ, four independent accumulator
// chains per pass (the scalar loop is one latency-bound chain); each
// output element keeps the k-ascending order.
func kABTRows(g *gemmArgs, lo, hi int) {
	a, b, dst := g.a, g.b, g.dst
	k, n := a.C, b.R
	for r := lo; r < hi; r++ {
		ar := a.Data[r*k : r*k+k]
		or := dst.Data[r*n : r*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : j*k+k][:len(ar)]
			b1 := b.Data[(j+1)*k : (j+1)*k+k][:len(ar)]
			b2 := b.Data[(j+2)*k : (j+2)*k+k][:len(ar)]
			b3 := b.Data[(j+3)*k : (j+3)*k+k][:len(ar)]
			var s0, s1, s2, s3 float64
			for i, av := range ar {
				s0 += av * b0[i]
				s1 += av * b1[i]
				s2 += av * b2[i]
				s3 += av * b3[i]
			}
			or[j], or[j+1], or[j+2], or[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			br := b.Data[j*k : j*k+k][:len(ar)]
			var s float64
			for i, av := range ar {
				s += av * br[i]
			}
			or[j] = s
		}
	}
}

// kABTAxpyRows: the axpy-form dual of kABTRows over the transposed
// weights g.wt (rows of Wᵀ are unit-stride): dst row r accumulates
// Σ_k a[r][k]·wt[k][:] in k-ascending order with no zero skipping —
// bit-identical to the dot form.
func kABTAxpyRows(g *gemmArgs, lo, hi int) {
	a, dst := g.a, g.dst
	k, n := a.C, dst.C
	for r := lo; r < hi; r++ {
		ar := a.Data[r*k : r*k+k]
		or := dst.Data[r*n : r*n+n]
		for j := range or {
			or[j] = 0
		}
		axpyAll(or, ar, g.wt, n)
	}
}

// kATBAccRows accumulates dst rows [lo,hi) of dst += aᵀ·b, folding
// sample rows of a/b four at a time. Per dst element the additions run
// r-ascending with zero coefficients skipped — exactly the row-by-row
// per-sample fold (matMulATBAcc's contract).
func kATBAccRows(g *gemmArgs, lo, hi int) {
	a, b, dst := g.a, g.b, g.dst
	k, out := a.C, b.C
	rtot := a.R
	r := 0
	for ; r+4 <= rtot; r += 4 {
		a0 := a.Data[r*k : r*k+k]
		a1 := a.Data[(r+1)*k : (r+1)*k+k]
		a2 := a.Data[(r+2)*k : (r+2)*k+k]
		a3 := a.Data[(r+3)*k : (r+3)*k+k]
		bbase := b.Data[r*out:]
		b0 := bbase[:out]
		b1 := b.Data[(r+1)*out : (r+1)*out+out]
		b2 := b.Data[(r+2)*out : (r+2)*out+out]
		b3 := b.Data[(r+3)*out : (r+3)*out+out]
		for i := lo; i < hi; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			or := dst.Data[i*out : i*out+out]
			if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
				axpy4Span(or, bbase, out, v0, v1, v2, v3)
				continue
			}
			if v0 != 0 {
				axpy1Span(or, b0, v0)
			}
			if v1 != 0 {
				axpy1Span(or, b1, v1)
			}
			if v2 != 0 {
				axpy1Span(or, b2, v2)
			}
			if v3 != 0 {
				axpy1Span(or, b3, v3)
			}
		}
	}
	for ; r < rtot; r++ {
		ar := a.Data[r*k : r*k+k]
		br := b.Data[r*out : r*out+out]
		for i := lo; i < hi; i++ {
			av := ar[i]
			if av == 0 {
				continue
			}
			axpy1Span(dst.Data[i*out:i*out+out], br, av)
		}
	}
}
