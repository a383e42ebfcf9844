package nn

import (
	"math"
	"math/rand"

	"autocat/internal/rng"
)

// TransformerConfig sizes the single-layer Transformer-encoder backbone
// (the paper's: Transformer encoder + average pooling over steps, §IV-C).
// Our default dimensions are scaled down from the paper's (128-d, 8 heads,
// 2048-d FFN) to CPU-trainable sizes; the architecture is identical.
type TransformerConfig struct {
	Window   int // sequence length W
	Features int // per-step feature width F
	Actions  int
	// Model is the embedding dimension D; zero defaults to 32.
	Model int
	// Heads is the attention head count; zero defaults to 4. Must divide
	// Model.
	Heads int
	// FF is the feed-forward hidden width; zero defaults to 4×Model.
	FF   int
	Seed int64
}

func (c TransformerConfig) withDefaults() TransformerConfig {
	if c.Model == 0 {
		c.Model = 32
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.FF == 0 {
		c.FF = 4 * c.Model
	}
	return c
}

// TransformerPolicy is a pre-LN single-layer Transformer encoder over the
// W×F observation sequence, mean-pooled into policy and value heads.
type TransformerPolicy struct {
	cfg TransformerConfig

	embed          *Linear
	ln1, ln2       *LayerNorm
	wq, wk, wv, wo *Linear
	ff1, ff2       *Linear
	pHead, vHead   *Linear
	params         []*Param
	scratch        *tfScratch
	fwdPool        []*tfScratch // per-chunk forward scratches for row-parallel ApplyBatch
}

// NewTransformer builds the network; it panics when Heads does not divide
// Model.
func NewTransformer(cfg TransformerConfig) *TransformerPolicy {
	cfg = cfg.withDefaults()
	if cfg.Model%cfg.Heads != 0 {
		panic("nn: transformer Model must be divisible by Heads")
	}
	rng := rand.New(rng.New(cfg.Seed + 0x7f))
	d := cfg.Model
	t := &TransformerPolicy{
		cfg:   cfg,
		embed: NewLinear("embed", cfg.Features, d, rng),
		ln1:   NewLayerNorm("ln1", d),
		ln2:   NewLayerNorm("ln2", d),
		wq:    NewLinear("wq", d, d, rng),
		wk:    NewLinear("wk", d, d, rng),
		wv:    NewLinear("wv", d, d, rng),
		wo:    NewLinear("wo", d, d, rng),
		ff1:   NewLinear("ff1", d, cfg.FF, rng),
		ff2:   NewLinear("ff2", cfg.FF, d, rng),
		pHead: NewLinear("policy", d, cfg.Actions, rng),
		vHead: NewLinear("value", d, 1, rng),
	}
	for i := range t.pHead.W.Data {
		t.pHead.W.Data[i] *= 0.01
	}
	t.embed.MarkSparseInput() // observation rows are one-hot-heavy
	for _, l := range []*Linear{t.embed, t.wq, t.wk, t.wv, t.wo, t.ff1, t.ff2, t.pHead, t.vHead} {
		t.params = append(t.params, l.Params()...)
	}
	t.params = append(t.params, t.ln1.Params()...)
	t.params = append(t.params, t.ln2.Params()...)
	t.scratch = newTfScratch(cfg)
	return t
}

// NumActions returns the policy head width.
func (t *TransformerPolicy) NumActions() int { return t.cfg.Actions }

// ObsDim returns the flattened observation size W×F.
func (t *TransformerPolicy) ObsDim() int { return t.cfg.Window * t.cfg.Features }

// Params returns all trainable tensors.
func (t *TransformerPolicy) Params() []*Param { return t.params }

// CloneShared returns a network aliasing t's weights but owning fresh
// gradient accumulators and scratch; see PolicyValueNet.
func (t *TransformerPolicy) CloneShared() PolicyValueNet {
	out := &TransformerPolicy{
		cfg:   t.cfg,
		embed: t.embed.CloneShared(),
		ln1:   t.ln1.CloneShared(),
		ln2:   t.ln2.CloneShared(),
		wq:    t.wq.CloneShared(),
		wk:    t.wk.CloneShared(),
		wv:    t.wv.CloneShared(),
		wo:    t.wo.CloneShared(),
		ff1:   t.ff1.CloneShared(),
		ff2:   t.ff2.CloneShared(),
		pHead: t.pHead.CloneShared(),
		vHead: t.vHead.CloneShared(),
	}
	for _, l := range []*Linear{out.embed, out.wq, out.wk, out.wv, out.wo, out.ff1, out.ff2, out.pHead, out.vHead} {
		out.params = append(out.params, l.Params()...)
	}
	out.params = append(out.params, out.ln1.Params()...)
	out.params = append(out.params, out.ln2.Params()...)
	out.scratch = newTfScratch(out.cfg)
	return out
}

// SyncSharedScratch refreshes the transposed weight copies aliased by
// CloneShared clones: the encoder layers whose backward input-gradient
// kernel reads Wᵀ over the window-tall gradient batches.
func (t *TransformerPolicy) SyncSharedScratch() {
	for _, l := range [...]*Linear{t.wq, t.wk, t.wv, t.wo, t.ff1, t.ff2} {
		l.syncWt()
	}
}

// tfScratch carries every intermediate of the forward and backward pass
// for one sequence. All matrices have shapes fixed by the configuration,
// so one scratch is allocated per exclusive user and reused for every
// sample of every minibatch.
type tfScratch struct {
	// forward
	E       *Mat // embedded W×D
	N1      *Mat
	ln1c    lnCache
	Q, K, V *Mat
	P       []*Mat // per-head W×W attention weights (post-softmax)
	qh      *Mat   // per-head column slices, reused across heads
	kh, vh  *Mat
	scores  *Mat
	oh      *Mat
	O       *Mat // concatenated attention output
	AOut    *Mat // after wo
	H1      *Mat // E + AOut
	N2      *Mat
	ln2c    lnCache
	F1      *Mat // ff1 pre-activation
	R       *Mat // relu(F1)
	F2      *Mat
	H2      *Mat // H1 + F2
	pool    []float64
	logits  []float64
	value   float64
	obsX    Mat // W×F header over the current observation row

	// backward
	dL, dV           Mat        // 1-row headers over the upstream logit/value gradients
	dv               [1]float64 // backing store of dV
	poolMat          *Mat
	dPool, dPoolV    *Mat
	dH2, dR, dF1     *Mat
	dN2, dH1, dO     *Mat
	dQ, dK, dV2      *Mat
	dOh, dP, dS      *Mat
	dVh, dQh, dKh    *Mat
	dN1, dN1k, dN1v  *Mat
	dE, dX           *Mat
	dxh              []float64
	dWpartD, dWpartF *Mat // part-then-add scratch: max(In×Out) shapes
	dWpartE          *Mat
}

// newTfForwardScratch allocates the forward-pass buffers only — all a
// row-parallel ApplyBatch chunk beyond the first needs (chunk 0 reuses
// the full training scratch).
func newTfForwardScratch(cfg TransformerConfig) *tfScratch {
	w, d, ff := cfg.Window, cfg.Model, cfg.FF
	dh := d / cfg.Heads
	s := &tfScratch{
		E: NewMat(w, d), N1: NewMat(w, d),
		Q: NewMat(w, d), K: NewMat(w, d), V: NewMat(w, d),
		qh: NewMat(w, dh), kh: NewMat(w, dh), vh: NewMat(w, dh),
		scores: NewMat(w, w), oh: NewMat(w, dh),
		O: NewMat(w, d), AOut: NewMat(w, d), H1: NewMat(w, d),
		N2: NewMat(w, d), F1: NewMat(w, ff), R: NewMat(w, ff),
		F2: NewMat(w, d), H2: NewMat(w, d),
		pool: make([]float64, d), logits: make([]float64, cfg.Actions),
	}
	for h := 0; h < cfg.Heads; h++ {
		s.P = append(s.P, NewMat(w, w))
	}
	return s
}

// newTfScratch allocates forward plus backward buffers for the exclusive
// training user of the net.
func newTfScratch(cfg TransformerConfig) *tfScratch {
	w, d, ff := cfg.Window, cfg.Model, cfg.FF
	dh := d / cfg.Heads
	s := newTfForwardScratch(cfg)
	s.poolMat = &Mat{R: 1, C: d}
	s.dPool, s.dPoolV = NewMat(1, d), NewMat(1, d)
	s.dH2, s.dR, s.dF1 = NewMat(w, d), NewMat(w, ff), NewMat(w, ff)
	s.dN2, s.dH1, s.dO = NewMat(w, d), NewMat(w, d), NewMat(w, d)
	s.dQ, s.dK, s.dV2 = NewMat(w, d), NewMat(w, d), NewMat(w, d)
	s.dOh, s.dP, s.dS = NewMat(w, dh), NewMat(w, w), NewMat(w, w)
	s.dVh, s.dQh, s.dKh = NewMat(w, dh), NewMat(w, dh), NewMat(w, dh)
	s.dN1, s.dN1k, s.dN1v = NewMat(w, d), NewMat(w, d), NewMat(w, d)
	s.dE, s.dX = NewMat(w, d), NewMat(w, cfg.Features)
	s.dxh = make([]float64, d)
	// Weight-gradient part scratch, one per distinct shape family:
	// D-wide outputs (embed/wq/wk/wv/wo/ff2), the FF-wide ff1, and the
	// heads.
	s.dWpartD = NewMat(max(cfg.Features, d, ff), d)
	s.dWpartF = NewMat(d, ff)
	s.dWpartE = NewMat(d, max(cfg.Actions, 1))
	return s
}

// partD reslices the D-wide part scratch for an in×out layer.
func (s *tfScratch) partD(in, out int) *Mat {
	s.dWpartD.R, s.dWpartD.C = in, out
	s.dWpartD.Data = s.dWpartD.Data[:in*out]
	return s.dWpartD
}

// colSliceInto copies columns [lo,hi) of m into dst.
func colSliceInto(dst, m *Mat, lo, hi int) {
	for i := 0; i < m.R; i++ {
		copy(dst.Row(i), m.Row(i)[lo:hi])
	}
}

// addColSlice accumulates src into columns starting at lo of dst.
func addColSlice(dst *Mat, src *Mat, lo int) {
	for i := 0; i < src.R; i++ {
		drow := dst.Row(i)
		for j, v := range src.Row(i) {
			drow[lo+j] += v
		}
	}
}

// forwardInto runs the full network for one observation sequence through
// the given scratch.
func (t *TransformerPolicy) forwardInto(obs []float64, s *tfScratch) {
	cfg := t.cfg
	s.obsX = Mat{R: cfg.Window, C: cfg.Features, Data: obs}
	t.embed.ForwardSharedInto(&s.obsX, s.E)
	t.ln1.ForwardInto(s.E, s.N1, &s.ln1c)
	t.wq.ForwardSharedInto(s.N1, s.Q)
	t.wk.ForwardSharedInto(s.N1, s.K)
	t.wv.ForwardSharedInto(s.N1, s.V)
	dh := cfg.Model / cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))
	s.O.Zero()
	for h := 0; h < cfg.Heads; h++ {
		lo, hi := h*dh, (h+1)*dh
		colSliceInto(s.qh, s.Q, lo, hi)
		colSliceInto(s.kh, s.K, lo, hi)
		colSliceInto(s.vh, s.V, lo, hi)
		MatMulABTInto(s.scores, s.qh, s.kh)
		for i := range s.scores.Data {
			s.scores.Data[i] *= scale
		}
		P := s.P[h]
		for i := 0; i < s.scores.R; i++ {
			SoftmaxInto(P.Row(i), s.scores.Row(i))
		}
		MatMulInto(s.oh, P, s.vh)
		addColSlice(s.O, s.oh, lo)
	}
	t.wo.ForwardSharedInto(s.O, s.AOut)
	for i := range s.H1.Data {
		s.H1.Data[i] = s.E.Data[i] + s.AOut.Data[i]
	}
	t.ln2.ForwardInto(s.H1, s.N2, &s.ln2c)
	t.ff1.ForwardSharedInto(s.N2, s.F1)
	ReLUInto(s.F1, s.R)
	t.ff2.ForwardSharedInto(s.R, s.F2)
	for i := range s.H2.Data {
		s.H2.Data[i] = s.H1.Data[i] + s.F2.Data[i]
	}
	for j := range s.pool {
		s.pool[j] = 0
	}
	for i := 0; i < cfg.Window; i++ {
		row := s.H2.Row(i)
		for j := range s.pool {
			s.pool[j] += row[j]
		}
	}
	for j := range s.pool {
		s.pool[j] /= float64(cfg.Window)
	}
	t.pHead.ApplyInto(s.pool, s.logits)
	var v [1]float64
	t.vHead.ApplyInto(s.pool, v[:])
	s.value = v[0]
}

// ApplyBatch runs the forward pass for each row of the B×(W·F) batch,
// writing logits and values into caller-owned storage. Requires
// exclusive use of the net. Rows partition across the kernel worker
// pool, each chunk on its own forward scratch; every row is
// bit-identical to a one-row ApplyBatch regardless of batch height and
// worker count.
func (t *TransformerPolicy) ApplyBatch(X *Mat, logits *Mat, values []float64) {
	if len(t.fwdPool) == 0 {
		// Chunk 0 runs on the caller and reuses the training scratch;
		// extra chunks get forward-only scratches, grown lazily below
		// only when a dispatch actually fans out.
		t.fwdPool = append(t.fwdPool, t.scratch)
	}
	cfg := t.cfg
	perRow := cfg.Window*(4*cfg.Model*cfg.Model+2*cfg.Model*cfg.FF) +
		2*cfg.Window*cfg.Window*cfg.Model // rough attention + FFN cost
	g := gemmArgs{ctx: t, a: X, dst: logits, v1: values}
	if extra := parPlan(X.R, X.R*perRow); extra == 0 {
		kTfApplyRows(&g, 0, X.R)
	} else {
		for len(t.fwdPool) <= extra {
			t.fwdPool = append(t.fwdPool, newTfForwardScratch(t.cfg))
		}
		parDispatch(kTfApplyRows, g, X.R, extra)
	}
}

// kTfApplyRows forwards observation rows [lo,hi) through the chunk's
// scratch (g.ctx is the *TransformerPolicy, g.idx selects the scratch).
func kTfApplyRows(g *gemmArgs, lo, hi int) {
	t := g.ctx.(*TransformerPolicy)
	s := t.fwdPool[g.idx]
	X, logits, values := g.a, g.dst, g.v1
	for i := lo; i < hi; i++ {
		t.forwardInto(X.Row(i), s)
		copy(logits.Row(i), s.logits)
		values[i] = s.value
	}
}

// GradBatch accumulates gradients for each row of the batch in row order,
// reproducing a sequence of one-row GradBatch calls bit-for-bit.
func (t *TransformerPolicy) GradBatch(X *Mat, dLogits *Mat, dValues []float64) {
	for i := 0; i < X.R; i++ {
		t.gradInto(X.Row(i), dLogits.Row(i), dValues[i], t.scratch)
	}
}

// gradInto recomputes the forward pass for one sample and accumulates
// parameter gradients. Every weight gradient is accumulated
// part-then-add (the XᵀdY total computed first, then added to dW as one
// term), the order the transformer golden trace pins.
func (t *TransformerPolicy) gradInto(obs []float64, dLogits []float64, dValue float64, s *tfScratch) {
	cfg := t.cfg
	t.forwardInto(obs, s)
	s.poolMat.Data = s.pool
	s.dL = Mat{R: 1, C: len(dLogits), Data: dLogits}
	s.dv[0] = dValue
	s.dV = Mat{R: 1, C: 1, Data: s.dv[:]}
	t.pHead.BackwardPartInto(s.poolMat, &s.dL, s.dPool, s.partHead(cfg.Actions))
	t.vHead.BackwardPartInto(s.poolMat, &s.dV, s.dPoolV, s.partHead(1))
	for i := range s.dPool.Data {
		s.dPool.Data[i] += s.dPoolV.Data[i]
	}
	// Mean pool: every row of H2 receives dPool / W.
	for i := 0; i < cfg.Window; i++ {
		row := s.dH2.Row(i)
		for j := range row {
			row[j] = s.dPool.Data[j] / float64(cfg.Window)
		}
	}
	// H2 = H1 + F2.
	t.ff2.BackwardPartInto(s.R, s.dH2, s.dR, s.partD(cfg.FF, cfg.Model))
	ReLUBackwardInto(s.F1, s.dR, s.dF1)
	t.ff1.BackwardPartInto(s.N2, s.dF1, s.dN2, s.dWpartF)
	t.ln2.BackwardInto(&s.ln2c, s.dN2, s.dH1, s.dxh)
	for i := range s.dH1.Data {
		s.dH1.Data[i] += s.dH2.Data[i] // residual
	}
	// H1 = E + AOut.
	t.wo.BackwardPartInto(s.O, s.dH1, s.dO, s.partD(cfg.Model, cfg.Model))
	dh := cfg.Model / cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))
	s.dQ.Zero()
	s.dK.Zero()
	s.dV2.Zero()
	for h := 0; h < cfg.Heads; h++ {
		lo, hi := h*dh, (h+1)*dh
		colSliceInto(s.dOh, s.dO, lo, hi)
		P := s.P[h]
		colSliceInto(s.vh, s.V, lo, hi)
		colSliceInto(s.qh, s.Q, lo, hi)
		colSliceInto(s.kh, s.K, lo, hi)
		MatMulABTInto(s.dP, s.dOh, s.vh)
		MatMulATBInto(s.dVh, P, s.dOh)
		// Softmax backward per row.
		for i := 0; i < P.R; i++ {
			pr, dpr, dsr := P.Row(i), s.dP.Row(i), s.dS.Row(i)
			dot := 0.0
			for j := range pr {
				dot += pr[j] * dpr[j]
			}
			for j := range pr {
				dsr[j] = pr[j] * (dpr[j] - dot)
			}
		}
		for i := range s.dS.Data {
			s.dS.Data[i] *= scale
		}
		MatMulInto(s.dQh, s.dS, s.kh)
		MatMulATBInto(s.dKh, s.dS, s.qh)
		addColSlice(s.dQ, s.dQh, lo)
		addColSlice(s.dK, s.dKh, lo)
		addColSlice(s.dV2, s.dVh, lo)
	}
	t.wq.BackwardPartInto(s.N1, s.dQ, s.dN1, s.partD(cfg.Model, cfg.Model))
	t.wk.BackwardPartInto(s.N1, s.dK, s.dN1k, s.partD(cfg.Model, cfg.Model))
	t.wv.BackwardPartInto(s.N1, s.dV2, s.dN1v, s.partD(cfg.Model, cfg.Model))
	for i := range s.dN1.Data {
		s.dN1.Data[i] += s.dN1k.Data[i] + s.dN1v.Data[i]
	}
	t.ln1.BackwardInto(&s.ln1c, s.dN1, s.dE, s.dxh)
	for i := range s.dE.Data {
		s.dE.Data[i] += s.dH1.Data[i] // residual into E
	}
	t.embed.BackwardPartInto(&s.obsX, s.dE, nil, s.partD(cfg.Features, cfg.Model))
}

// partHead reslices the head part scratch for a D×out head layer.
func (s *tfScratch) partHead(out int) *Mat {
	s.dWpartE.R, s.dWpartE.C = s.dPool.C, out
	s.dWpartE.Data = s.dWpartE.Data[:s.dPool.C*out]
	return s.dWpartE
}
