package nn

import "math/rand"

// PolicyValueNet is the network contract the PPO trainer and greedy
// replay consume: a policy head producing action logits and a value head
// estimating the state value.
//
// There is one way to run a network: ApplyBatch and GradBatch take whole
// batches (observations flattened row-major into a B×ObsDim matrix) and
// run them through preallocated per-net scratch, so they allocate
// nothing in steady state and require exclusive use of the net. A single
// observation is a one-row batch. Concurrent gradient workers each run
// on their own CloneShared.
type PolicyValueNet interface {
	// ApplyBatch writes action logits into the caller-owned B×Actions
	// matrix and state values into the caller-owned length-B slice for a
	// B×ObsDim batch of observations. Every row is bit-identical to a
	// one-row ApplyBatch of that row, whatever the batch height.
	ApplyBatch(X *Mat, logits *Mat, values []float64)
	// GradBatch recomputes the forward pass for the batch and accumulates
	// parameter gradients for the given upstream logit/value gradients.
	// The accumulation order matches a sequence of one-row GradBatch
	// calls in row order bit-for-bit.
	GradBatch(X *Mat, dLogits *Mat, dValues []float64)
	Params() []*Param
	NumActions() int
	ObsDim() int
	// CloneShared returns a network aliasing this one's weights but
	// owning fresh gradient accumulators and scratch. Gradient shard
	// workers run on such clones concurrently with each other (weights
	// are read-only during a shard pass) and see the master's optimizer
	// steps without any weight copying.
	CloneShared() PolicyValueNet
	// SyncSharedScratch refreshes the kernel scratch the clones alias
	// (transposed weight copies). After any weight update and before the
	// next shard pass the caller must invoke it on the master; clones
	// never refresh it themselves, because concurrent shard passes would
	// race on it.
	SyncSharedScratch()
}

// MLPConfig sizes an MLP policy/value network.
type MLPConfig struct {
	ObsDim  int
	Actions int
	// Hidden lists the trunk layer widths. Zero length defaults to
	// [64, 64].
	Hidden []int
	Seed   int64
}

// mlpScratch holds the preallocated forward/backward buffers for one
// exclusive user of the network. Batch size varies per call; ensureMat
// grows the buffers on demand and reuses them afterwards.
type mlpScratch struct {
	acts []*Mat // activations per trunk layer (batch kernels)
	vals *Mat   // value-head output column
	dh   []*Mat // upstream gradients entering each trunk boundary
	dz   []*Mat // pre-activation gradients per trunk layer
	dhv  *Mat   // value-head contribution to the last hidden gradient
	dV   Mat    // reusable header aliasing the caller's dValues column
}

// MLPPolicy is a tanh MLP trunk with linear policy and value heads, the
// fast default backbone (the paper notes MLP also finds attacks, §VI-B).
type MLPPolicy struct {
	cfg     MLPConfig
	trunk   []*Linear
	pHead   *Linear
	vHead   *Linear
	params  []*Param
	scratch mlpScratch
}

// NewMLP builds the network with Xavier initialization. The final policy
// layer is scaled down so the initial policy is near-uniform, which keeps
// early PPO exploration broad.
func NewMLP(cfg MLPConfig) *MLPPolicy {
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64, 64}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x11a))
	m := &MLPPolicy{cfg: cfg}
	in := cfg.ObsDim
	for i, h := range cfg.Hidden {
		m.trunk = append(m.trunk, NewLinear(sprintfName("trunk", i), in, h, rng))
		in = h
	}
	// Observations are one-hot-heavy; the first layer stays on the
	// zero-skipping axpy kernels (deeper layers see dense tanh
	// activations and use the transposed dot-form kernels on tall
	// batches).
	m.trunk[0].MarkSparseInput()
	m.pHead = NewLinear("policy", in, cfg.Actions, rng)
	m.vHead = NewLinear("value", in, 1, rng)
	for i := range m.pHead.W.Data {
		m.pHead.W.Data[i] *= 0.01
	}
	for _, l := range m.trunk {
		m.params = append(m.params, l.Params()...)
	}
	m.params = append(m.params, m.pHead.Params()...)
	m.params = append(m.params, m.vHead.Params()...)
	m.scratch = mlpScratch{
		acts: make([]*Mat, len(m.trunk)),
		dh:   make([]*Mat, len(m.trunk)),
		dz:   make([]*Mat, len(m.trunk)),
	}
	return m
}

func sprintfName(base string, i int) string {
	return base + "." + string(rune('0'+i))
}

// NumActions returns the policy head width.
func (m *MLPPolicy) NumActions() int { return m.cfg.Actions }

// ObsDim returns the expected observation size.
func (m *MLPPolicy) ObsDim() int { return m.cfg.ObsDim }

// Params returns all trainable tensors.
func (m *MLPPolicy) Params() []*Param { return m.params }

// ApplyBatch runs the forward pass for a B×ObsDim batch through the
// preallocated scratch buffers, writing logits (B×Actions) and values
// (length B) into caller-owned storage, in the bias-first summation
// order.
func (m *MLPPolicy) ApplyBatch(X *Mat, logits *Mat, values []float64) {
	s := &m.scratch
	h := X
	for li, l := range m.trunk {
		z := EnsureMat(&s.acts[li], X.R, l.Out)
		l.ApplyBatchInto(h, z)
		TanhInto(z.Data, z.Data)
		h = z
	}
	m.pHead.ApplyBatchInto(h, logits)
	vals := EnsureMat(&s.vals, X.R, 1)
	m.vHead.ApplyBatchInto(h, vals)
	for i := 0; i < X.R; i++ {
		values[i] = vals.Data[i]
	}
}

// GradBatch recomputes the forward pass for the batch (ForwardInto's
// products-first order) and accumulates gradients. Weight gradients fold
// in sample-row by sample-row, reproducing a sequence of one-row
// GradBatch calls exactly.
func (m *MLPPolicy) GradBatch(X *Mat, dLogits *Mat, dValues []float64) {
	s := &m.scratch
	h := X
	for li, l := range m.trunk {
		z := EnsureMat(&s.acts[li], X.R, l.Out)
		l.ForwardInto(h, z)
		TanhInto(z.Data, z.Data)
		h = z
	}
	s.dV = Mat{R: X.R, C: 1, Data: dValues}
	dV := &s.dV
	last := len(m.trunk) - 1
	dh := EnsureMat(&s.dh[last], X.R, m.trunk[last].Out)
	m.pHead.BackwardRowsInto(h, dLogits, dh)
	dhv := EnsureMat(&s.dhv, X.R, m.trunk[last].Out)
	m.vHead.BackwardRowsInto(h, dV, dhv)
	axpy1Span(dh.Data, dhv.Data, 1) // dh += dhv, exactly
	for i := last; i >= 0; i-- {
		act := s.acts[i]
		dz := EnsureMat(&s.dz[i], X.R, m.trunk[i].Out)
		TanhBackwardInto(act, dh, dz)
		if i == 0 {
			m.trunk[0].BackwardRowsInto(X, dz, nil)
			break
		}
		dnext := EnsureMat(&s.dh[i-1], X.R, m.trunk[i-1].Out)
		m.trunk[i].BackwardRowsInto(s.acts[i-1], dz, dnext)
		dh = dnext
	}
}

// CloneShared returns a network aliasing m's weights but owning fresh
// gradient accumulators and scratch; see PolicyValueNet.
func (m *MLPPolicy) CloneShared() PolicyValueNet {
	out := &MLPPolicy{cfg: m.cfg}
	for _, l := range m.trunk {
		out.trunk = append(out.trunk, l.CloneShared())
	}
	out.pHead = m.pHead.CloneShared()
	out.vHead = m.vHead.CloneShared()
	for _, l := range out.trunk {
		out.params = append(out.params, l.Params()...)
	}
	out.params = append(out.params, out.pHead.Params()...)
	out.params = append(out.params, out.vHead.Params()...)
	out.scratch = mlpScratch{
		acts: make([]*Mat, len(out.trunk)),
		dh:   make([]*Mat, len(out.trunk)),
		dz:   make([]*Mat, len(out.trunk)),
	}
	return out
}

// SyncSharedScratch refreshes the transposed weight copies aliased by
// CloneShared clones: the dense layers whose backward input-gradient
// kernel reads Wᵀ (the sparse first layer never produces a dX).
func (m *MLPPolicy) SyncSharedScratch() {
	for _, l := range m.trunk[1:] {
		l.syncWt()
	}
	m.pHead.syncWt()
	m.vHead.syncWt()
}
