// Package rl implements the AutoCAT RL engine: proximal policy
// optimization (PPO) with generalized advantage estimation, parallel
// rollout actors, convergence tracking, and deterministic greedy replay
// for attack-sequence extraction (§IV-C). It replaces the RLMeta
// asynchronous-PPO stack with a synchronous parallel implementation; the
// paper itself uses synchronous PPO for its real-hardware experiments.
package rl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"autocat/internal/env"
	"autocat/internal/nn"
	"autocat/internal/obs"
)

// PPOConfig carries the trainer hyperparameters. Zero values select the
// defaults listed on each field.
type PPOConfig struct {
	// StepsPerEpoch is the number of environment steps collected per
	// training epoch. Default 3000, matching the paper's "one epoch is
	// 3000 training steps" (Table V footnote).
	StepsPerEpoch int
	// UpdateEpochs is the number of PPO passes over each batch. Default 8.
	UpdateEpochs int
	// MinibatchSize is the SGD minibatch size. Default 128.
	MinibatchSize int
	// Gamma is the discount factor. Default 0.99.
	Gamma float64
	// Lambda is the GAE parameter. Default 0.95.
	Lambda float64
	// ClipEps is the PPO clipping radius. Default 0.2.
	ClipEps float64
	// EntCoef weights the entropy bonus. Default 0.02.
	EntCoef float64
	// EntCoefInit optionally starts the entropy bonus higher and anneals
	// it linearly down to EntCoef over EntAnnealEpochs epochs; sustained
	// early exploration is what lets the agent escape the
	// "guess-immediately" local optimum on larger action spaces.
	// Default 0.1 when EntAnnealEpochs > 0.
	EntCoefInit float64
	// EntAnnealEpochs is the annealing horizon. Default 0 (no annealing).
	EntAnnealEpochs int
	// ExploreEps mixes the behavior policy with a uniform distribution
	// during collection: μ = (1-ε)π + ε·U. The stored log-probabilities
	// are those of μ, so the PPO ratio π_new/μ stays well-defined. The
	// mix anneals to zero over EntAnnealEpochs. Default 0.
	ExploreEps float64
	// VfCoef weights the value loss. Default 0.5.
	VfCoef float64
	// LR is the Adam learning rate. Default 3e-3 (the networks are small
	// and the epoch budget is CPU-scale; see DESIGN.md).
	LR float64
	// MaxGradNorm clips the global gradient norm. Default 0.5.
	MaxGradNorm float64
	// MaxEpochs bounds training. Default 100.
	MaxEpochs int
	// TargetAccuracy is the guess accuracy that counts as converged.
	// Default 0.95.
	TargetAccuracy float64
	// ConvergeEpochs is how many consecutive epochs must meet the target
	// before training stops. Default 2.
	ConvergeEpochs int
	// EvalEpisodes is the number of greedy episodes replayed after each
	// epoch to test convergence (the paper's deterministic replay,
	// §IV-C). Default 64.
	EvalEpisodes int
	// Workers is the gradient shard count. The shards set the gradient
	// reduction grouping, so the count is part of the math: a fixed
	// default keeps one seed's trajectory the same on every machine.
	// Execution parallelism is governed separately by the nn
	// compute-token pool. Default 4.
	Workers int
	// Seed drives action sampling and minibatch shuffling.
	Seed int64
	// DisableClip turns the PPO clipped surrogate into a plain policy
	// gradient (an ablation; see bench_test.go).
	DisableClip bool
}

func (c PPOConfig) withDefaults() PPOConfig {
	if c.StepsPerEpoch == 0 {
		c.StepsPerEpoch = 3000
	}
	if c.UpdateEpochs == 0 {
		c.UpdateEpochs = 8
	}
	if c.MinibatchSize == 0 {
		c.MinibatchSize = 128
	}
	if c.Gamma == 0 {
		c.Gamma = 0.99
	}
	if c.Lambda == 0 {
		c.Lambda = 0.95
	}
	if c.ClipEps == 0 {
		c.ClipEps = 0.2
	}
	if c.EntCoef == 0 {
		c.EntCoef = 0.02
	}
	if c.EntAnnealEpochs > 0 && c.EntCoefInit == 0 {
		c.EntCoefInit = 0.1
	}
	if c.VfCoef == 0 {
		c.VfCoef = 0.5
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 0.5
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 100
	}
	if c.TargetAccuracy == 0 {
		c.TargetAccuracy = 0.95
	}
	if c.ConvergeEpochs == 0 {
		c.ConvergeEpochs = 2
	}
	if c.EvalEpisodes == 0 {
		c.EvalEpisodes = 64
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	return c
}

// EpochStats summarizes one training epoch.
type EpochStats struct {
	Epoch       int
	Episodes    int
	Steps       int     // transitions collected this epoch
	MeanReward  float64 // mean episode return
	MeanLength  float64 // mean episode length (steps)
	Accuracy    float64 // correct guesses / total guesses
	GuessRate   float64 // guesses / steps (the bit-rate proxy of §V-D)
	UselessRate float64 // useless-classified steps / steps (reward shaping)
	Entropy     float64 // mean policy entropy over collected steps
	PolicyLoss  float64
	ValueLoss   float64
}

// Result is the outcome of a full training run.
type Result struct {
	Converged        bool
	Epochs           int // epochs executed
	EpochsToConverge int // first epoch meeting the target (1-based), 0 if never
	Stats            []EpochStats
	// FinalAccuracy and FinalLength come from the last greedy evaluation
	// (deterministic replay), matching how the paper reports accuracy
	// and episode length.
	FinalAccuracy float64
	FinalLength   float64
}

// Trainer owns the policy network, the lockstep rollout environments,
// and the optimizer state for one training run. All rollout and update
// buffers are preallocated and reused across epochs, so the steady-state
// hot path allocates nothing (see DESIGN.md "Hot path & data layout").
type Trainer struct {
	cfg  PPOConfig
	net  nn.PolicyValueNet
	envs []*env.Env
	rngs []*rand.Rand
	opt  *nn.Adam
	rng  *rand.Rand

	curEnt  float64             // entropy coefficient for the current epoch
	curEps  float64             // exploration mix for the current epoch
	workers []nn.PolicyValueNet // weight-aliased gradient shard clones

	actorBufs []actorBuf      // per-actor transition + observation storage
	batch     []transition    // reusable epoch batch
	wscratch  []workerScratch // per-gradient-worker minibatch buffers
	inlineW   []int           // shard indices run inline (no token free)

	// lockstep-collector state, reused across epochs
	active  env.ActiveSet
	results []actorResult
	obsX    *nn.Mat     // gathered observations of the live envs
	logitsX *nn.Mat     // batched policy logits
	valuesX []float64   // batched value estimates
	cur     [][]float64 // per-env current-observation arena slot
}

// actorBuf is one rollout environment's reusable storage: its transition
// slice, a flat arena holding every observation of the epoch (slot i
// backs trans[i].obs), and the in-flight episode bookkeeping the
// lockstep collector needs, so stepping allocates nothing.
type actorBuf struct {
	trans   []transition
	arena   []float64
	probs   []float64
	epStart int     // index of the running episode's first transition
	epRet   float64 // running episode return
}

// workerScratch is one gradient worker's reusable minibatch storage: the
// gathered observation batch, the forward outputs, the upstream gradients,
// and the per-shard loss sums.
type workerScratch struct {
	X       *nn.Mat
	logits  *nn.Mat
	dLogits *nn.Mat
	values  []float64
	dValues []float64
	lp      []float64
	probs   []float64
	lnp     []float64 // math.Log of probs (0 where p_k <= 0): the entropy's and its gradient's
	pl, vl  float64
}

// ensureFloats grows a float scratch slice to length n.
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// NewTrainer wires a policy network to a set of parallel environments.
// Every environment must share the action/observation layout of the
// network; the first mismatch is reported as an error.
func NewTrainer(net nn.PolicyValueNet, envs []*env.Env, cfg PPOConfig) (*Trainer, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("rl: need at least one environment")
	}
	cfg = cfg.withDefaults()
	for i, e := range envs {
		if e.NumActions() != net.NumActions() {
			return nil, fmt.Errorf("rl: env %d has %d actions, net expects %d", i, e.NumActions(), net.NumActions())
		}
		if e.ObsDim() != net.ObsDim() {
			return nil, fmt.Errorf("rl: env %d obs dim %d, net expects %d", i, e.ObsDim(), net.ObsDim())
		}
	}
	t := &Trainer{
		cfg:    cfg,
		net:    net,
		envs:   envs,
		opt:    nn.NewAdam(net.Params(), cfg.LR),
		rng:    rand.New(rand.NewSource(cfg.Seed + 0x990)),
		curEnt: cfg.EntCoef,
	}
	for i := range envs {
		t.rngs = append(t.rngs, rand.New(rand.NewSource(cfg.Seed+int64(i)*7907+13)))
	}
	// Weight-aliased shard clones: no per-minibatch weight copy, and the
	// weight arrays stay hot across workers.
	for w := 0; w < cfg.Workers; w++ {
		t.workers = append(t.workers, net.CloneShared())
	}
	t.actorBufs = make([]actorBuf, len(envs))
	t.wscratch = make([]workerScratch, cfg.Workers)
	return t, nil
}

// Net returns the trained policy network.
func (t *Trainer) Net() nn.PolicyValueNet { return t.net }

// transition is one stored environment step.
type transition struct {
	obs     []float64
	action  int
	logp    float64
	value   float64
	reward  float64
	adv     float64
	ret     float64
	entropy float64
}

// actorResult is one actor's rollout slice plus its episode statistics.
type actorResult struct {
	trans    []transition
	episodes int
	sumRet   float64
	sumLen   int
	guesses  int
	correct  int
	useless  int // steps classified useless across completed episodes
}

// collect gathers ~StepsPerEpoch transitions by stepping every
// environment in lockstep: one ApplyBatch over the live environments'
// observations per timestep, then one env step each. Each environment
// keeps its own RNG stream, arena, and episode/budget bookkeeping, so
// its trajectory is bit-identical to the per-actor rollout it replaces
// (an ApplyBatch row does not depend on the batch height); environments
// that meet their budget drop out of the batch through the compact
// active-index set. The final episode of each environment always
// completes, so GAE never needs a bootstrap value. No allocations in
// steady state.
func (t *Trainer) collect() []actorResult {
	perActor := (t.cfg.StepsPerEpoch + len(t.envs) - 1) / len(t.envs)
	n := len(t.envs)
	obsDim := t.net.ObsDim()
	acts := t.net.NumActions()
	if t.results == nil {
		t.results = make([]actorResult, n)
	}
	if t.cur == nil {
		t.cur = make([][]float64, n)
	}
	X := nn.EnsureMat(&t.obsX, n, obsDim)
	logits := nn.EnsureMat(&t.logitsX, n, acts)
	t.valuesX = ensureFloats(t.valuesX, n)
	for i := 0; i < n; i++ {
		t.results[i] = actorResult{}
		e := t.envs[i]
		buf := &t.actorBufs[i]
		// The loop exits once the budget is met and the final episode
		// adds at most MaxSteps transitions, plus one trailing slot for
		// the post-terminal observation — a provable arena bound, so the
		// arena never reallocates (which would dangle earlier
		// trans[i].obs slices).
		slots := perActor + e.MaxSteps() + 1
		if cap(buf.arena) < slots*obsDim {
			buf.arena = make([]float64, slots*obsDim)
		}
		buf.arena = buf.arena[:slots*obsDim]
		buf.probs = ensureFloats(buf.probs, acts)
		buf.trans = buf.trans[:0]
		buf.epStart, buf.epRet = 0, 0
		t.cur[i] = buf.arena[:obsDim]
		e.Reset()
		e.ObsInto(t.cur[i])
	}
	t.active.Reset(n)
	for t.active.Len() > 0 {
		idx := t.active.Indices()
		a := len(idx)
		X.R, X.Data = a, X.Data[:a*obsDim]
		logits.R, logits.Data = a, logits.Data[:a*acts]
		values := t.valuesX[:a]
		for k, i := range idx {
			copy(X.Row(k), t.cur[i])
		}
		t.net.ApplyBatch(X, logits, values)
		for k, i := range idx {
			t.stepLockstep(i, perActor, obsDim, logits.Row(k), values[k])
		}
		t.active.Compact(func(i int) bool { return t.results[i].trans == nil })
	}
	return t.results
}

// stepLockstep advances environment i by one action sampled from the
// batched logits row, handling episode termination, GAE, and
// retirement once the budget is met (marked by setting the result's
// trans slice). The math per environment is exactly the pre-lockstep
// per-actor loop.
func (t *Trainer) stepLockstep(i, budget, obsDim int, lrow []float64, value float64) {
	e := t.envs[i]
	buf := &t.actorBufs[i]
	probs := buf.probs
	nn.SoftmaxInto(probs, lrow)
	// Behavior policy: μ = (1-ε)π + ε·uniform.
	if eps := t.curEps; eps > 0 {
		u := 1 / float64(len(probs))
		for k := range probs {
			probs[k] = (1-eps)*probs[k] + eps*u
		}
	}
	action := nn.SampleCategorical(probs, t.rngs[i])
	next := buf.arena[(len(buf.trans)+1)*obsDim : (len(buf.trans)+2)*obsDim]
	reward, done := e.Step(action)
	if !done {
		// A finished episode's observation is never read: the reset
		// below encodes into the same slot, or the actor retires.
		e.ObsInto(next)
	}
	buf.trans = append(buf.trans, transition{
		obs: t.cur[i], action: action,
		logp: math.Log(probs[action]), value: value, reward: reward,
		entropy: nn.Entropy(probs),
	})
	buf.epRet += reward
	t.cur[i] = next
	if !done {
		return
	}
	res := &t.results[i]
	correct, guesses := e.EpisodeGuesses()
	res.episodes++
	res.sumRet += buf.epRet
	res.sumLen += len(buf.trans) - buf.epStart
	res.guesses += guesses
	res.correct += correct
	res.useless += e.EpisodeUseless()
	t.gae(buf.trans[buf.epStart:])
	if len(buf.trans) >= budget {
		res.trans = buf.trans // retired: drops out of the active set
		return
	}
	buf.epStart = len(buf.trans)
	buf.epRet = 0
	// t.cur[i] is next's slot: the new episode's first observation.
	e.Reset()
	e.ObsInto(t.cur[i])
}

// CollectSteps runs one lockstep collection pass — no PPO update — and
// returns the number of transitions gathered. It advances the
// environments and their RNG streams exactly like the collection phase
// of an epoch; cmd/autocat-bench uses it to meter raw vectorized
// rollout throughput.
func (t *Trainer) CollectSteps() int {
	t.curEnt = t.cfg.EntCoef
	t.curEps = 0
	n := 0
	for i := range t.collect() {
		n += len(t.results[i].trans)
	}
	return n
}

// gae fills advantages and returns for one completed episode (terminal
// value 0).
func (t *Trainer) gae(ep []transition) {
	adv := 0.0
	for i := len(ep) - 1; i >= 0; i-- {
		nextV := 0.0
		if i+1 < len(ep) {
			nextV = ep[i+1].value
		}
		delta := ep[i].reward + t.cfg.Gamma*nextV - ep[i].value
		adv = delta + t.cfg.Gamma*t.cfg.Lambda*adv
		ep[i].adv = adv
		ep[i].ret = adv + ep[i].value
	}
}

// entCoefAt returns the annealed entropy coefficient for an epoch.
func (t *Trainer) entCoefAt(epoch int) float64 {
	if t.cfg.EntAnnealEpochs <= 0 || epoch >= t.cfg.EntAnnealEpochs {
		return t.cfg.EntCoef
	}
	frac := float64(epoch-1) / float64(t.cfg.EntAnnealEpochs)
	return t.cfg.EntCoefInit + (t.cfg.EntCoef-t.cfg.EntCoefInit)*frac
}

// exploreEpsAt returns the annealed uniform-mix fraction for an epoch.
func (t *Trainer) exploreEpsAt(epoch int) float64 {
	if t.cfg.ExploreEps <= 0 {
		return 0
	}
	if t.cfg.EntAnnealEpochs <= 0 || epoch >= t.cfg.EntAnnealEpochs {
		return 0
	}
	frac := float64(epoch-1) / float64(t.cfg.EntAnnealEpochs)
	return t.cfg.ExploreEps * (1 - frac)
}

// Epoch runs one collect + update cycle and returns its statistics. The
// epoch's own goroutine is the implicit compute consumer (a campaign
// worker running it already holds a token); the gradient shards below
// only take *extra* tokens, so the pool is never double-booked.
func (t *Trainer) Epoch(epochIdx int) EpochStats {
	tm := obs.StartTimer(obs.PPOEpochNs)
	t.curEnt = t.entCoefAt(epochIdx)
	t.curEps = t.exploreEpsAt(epochIdx)
	results := t.collect()
	batch := t.batch[:0]
	st := EpochStats{Epoch: epochIdx}
	entSum := 0.0
	useless := 0
	for _, r := range results {
		batch = append(batch, r.trans...)
		st.Episodes += r.episodes
		st.MeanReward += r.sumRet
		st.MeanLength += float64(r.sumLen)
		st.GuessRate += float64(r.guesses)
		st.Accuracy += float64(r.correct)
		useless += r.useless
	}
	for _, tr := range batch {
		entSum += tr.entropy
	}
	if st.Episodes > 0 {
		st.MeanReward /= float64(st.Episodes)
		st.MeanLength /= float64(st.Episodes)
	}
	if st.GuessRate > 0 {
		st.Accuracy /= st.GuessRate // correct / guesses
	}
	st.Steps = len(batch)
	if len(batch) > 0 {
		st.GuessRate /= float64(len(batch)) // guesses / steps
		st.UselessRate = float64(useless) / float64(len(batch))
		st.Entropy = entSum / float64(len(batch))
	}

	t.batch = batch // keep the grown buffer for the next epoch
	t.normalizeAdvantages(batch)
	pl, vl := t.update(batch)
	st.PolicyLoss, st.ValueLoss = pl, vl
	obs.PPOEpochs.Inc()
	obs.PPOSteps.Add(uint64(len(batch)))
	tm.Stop()
	return st
}

// normalizeAdvantages standardizes advantages across the whole batch.
func (t *Trainer) normalizeAdvantages(batch []transition) {
	if len(batch) < 2 {
		return
	}
	mean := 0.0
	for _, tr := range batch {
		mean += tr.adv
	}
	mean /= float64(len(batch))
	vari := 0.0
	for _, tr := range batch {
		d := tr.adv - mean
		vari += d * d
	}
	std := math.Sqrt(vari/float64(len(batch))) + 1e-8
	for i := range batch {
		batch[i].adv = (batch[i].adv - mean) / std
	}
}

// update performs UpdateEpochs PPO passes over the batch and returns the
// mean policy and value losses of the final pass.
func (t *Trainer) update(batch []transition) (policyLoss, valueLoss float64) {
	idx := make([]int, len(batch))
	for i := range idx {
		idx[i] = i
	}
	for pass := 0; pass < t.cfg.UpdateEpochs; pass++ {
		t.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		passPL, passVL, passN := 0.0, 0.0, 0
		for lo := 0; lo < len(idx); lo += t.cfg.MinibatchSize {
			hi := lo + t.cfg.MinibatchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			pl, vl := t.minibatch(batch, idx[lo:hi])
			passPL += pl * float64(hi-lo)
			passVL += vl * float64(hi-lo)
			passN += hi - lo
		}
		if pass == t.cfg.UpdateEpochs-1 && passN > 0 {
			policyLoss = passPL / float64(passN)
			valueLoss = passVL / float64(passN)
		}
	}
	return policyLoss, valueLoss
}

// minibatch computes PPO gradients for one minibatch, sharded across the
// gradient workers (worker w takes samples w, w+nw, … of the minibatch,
// preserving the reduction order of the per-sample implementation), then
// applies clipping and one Adam step and returns the mean losses. Each
// worker gathers its shard into a preallocated observation batch and runs
// it through the policy's batched forward/backward path.
//
// The shard count is fixed by cfg.Workers (it is part of the gradient
// reduction grouping, so it must not depend on the machine), but shard
// *execution* adapts to the compute-token pool: extra shards run on
// goroutines only when spare tokens exist, and inline on the caller
// otherwise — identical results either way, and a saturated machine
// (every token held by campaign workers) runs everything inline with
// zero scheduling overhead.
func (t *Trainer) minibatch(batch []transition, mb []int) (policyLoss, valueLoss float64) {
	nw := len(t.workers)
	if nw > len(mb) {
		nw = len(mb)
	}
	// One transpose-scratch refresh on the master covers every
	// weight-aliased shard clone (the CloneShared contract).
	t.net.SyncSharedScratch()
	for w := 0; w < nw; w++ {
		nn.ZeroGrads(t.workers[w].Params())
	}
	var wg sync.WaitGroup
	t.inlineW = t.inlineW[:0]
	for w := 1; w < nw; w++ {
		if nn.TryAcquireExtraToken() {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer nn.ReleaseComputeToken()
				t.workerShard(t.workers[w], &t.wscratch[w], batch, mb, w, nw)
			}(w)
		} else {
			t.inlineW = append(t.inlineW, w)
		}
	}
	if nw > 0 {
		t.workerShard(t.workers[0], &t.wscratch[0], batch, mb, 0, nw)
	}
	for _, w := range t.inlineW {
		t.workerShard(t.workers[w], &t.wscratch[w], batch, mb, w, nw)
	}
	wg.Wait()
	nn.ZeroGrads(t.net.Params())
	for w := 0; w < nw; w++ {
		nn.AddGrads(t.net.Params(), t.workers[w].Params())
		policyLoss += t.wscratch[w].pl
		valueLoss += t.wscratch[w].vl
	}
	nn.ClipGrads(t.net.Params(), t.cfg.MaxGradNorm)
	t.opt.Step()
	policyLoss /= float64(len(mb))
	valueLoss /= float64(len(mb))
	return policyLoss, valueLoss
}

// workerShard runs one gradient worker's strided share of the minibatch
// through the batched forward/backward path, accumulating gradients on
// net and loss sums in ws.
func (t *Trainer) workerShard(net nn.PolicyValueNet, ws *workerScratch, batch []transition, mb []int, w, nw int) {
	m := (len(mb) - w + nw - 1) / nw // samples in this shard
	obsDim := net.ObsDim()
	acts := net.NumActions()
	X := nn.EnsureMat(&ws.X, m, obsDim)
	logits := nn.EnsureMat(&ws.logits, m, acts)
	dLogits := nn.EnsureMat(&ws.dLogits, m, acts)
	ws.values = ensureFloats(ws.values, m)
	ws.dValues = ensureFloats(ws.dValues, m)
	ws.lp = ensureFloats(ws.lp, acts)
	ws.probs = ensureFloats(ws.probs, acts)
	ws.lnp = ensureFloats(ws.lnp, acts)
	ws.pl, ws.vl = 0, 0
	for row, k := 0, w; k < len(mb); row, k = row+1, k+nw {
		copy(X.Row(row), batch[mb[k]].obs)
	}
	net.ApplyBatch(X, logits, ws.values)
	batchSize := float64(len(mb))
	for row, k := 0, w; k < len(mb); row, k = row+1, k+nw {
		tr := batch[mb[k]]
		lrow := logits.Row(row)
		nn.SoftmaxLogSoftmaxInto(ws.probs, ws.lp, lrow)
		lp, probs := ws.lp, ws.probs
		logpNew := lp[tr.action]
		ratio := math.Exp(logpNew - tr.logp)

		// Clipped surrogate: L = -min(r·A, clip(r, 1±ε)·A).
		var pl, dLdLogp float64
		unclipped := ratio * tr.adv
		clipped := clip(ratio, 1-t.cfg.ClipEps, 1+t.cfg.ClipEps) * tr.adv
		if t.cfg.DisableClip {
			pl = -unclipped
			dLdLogp = -ratio * tr.adv
		} else if unclipped <= clipped {
			pl = -unclipped
			dLdLogp = -ratio * tr.adv // d(r)/d(logpNew) = r
		} else {
			pl = -clipped
			dLdLogp = 0 // clip active: no gradient through the policy term
		}

		// Entropy bonus: L -= entCoef·H; dH/dlogit_k = -p_k(log p_k + H).
		h := nn.EntropyLogInto(ws.lnp, probs)

		// Value loss: 0.5·(v - ret)².
		vErr := ws.values[row] - tr.ret
		ws.pl += pl
		ws.vl += 0.5 * vErr * vErr

		drow := dLogits.Row(row)
		for k := range drow {
			// Policy term: dlogp_a/dlogit_k = 1{k==a} - p_k.
			ind := 0.0
			if k == tr.action {
				ind = 1
			}
			drow[k] = dLdLogp * (ind - probs[k])
			// Entropy term: subtract entCoef · dH/dlogit.
			drow[k] += t.curEnt * probs[k] * (ws.lnp[k] + h)
			drow[k] /= batchSize
		}
		ws.dValues[row] = t.cfg.VfCoef * vErr / batchSize
	}
	net.GradBatch(X, dLogits, ws.dValues)
}

func clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Train runs epochs until the greedy policy (deterministic replay) meets
// the target accuracy with a positive mean return for ConvergeEpochs
// consecutive epochs, or MaxEpochs is reached. This mirrors the paper's
// procedure: train until the per-episode reward converges positive, then
// extract the attack by deterministic replay. The context is checked
// between epochs, so a cancelled campaign job stops after the epoch in
// flight instead of burning its whole budget; the partial result
// (epochs completed so far) is returned. With an undone context the
// epoch sequence does not depend on ctx.
func (t *Trainer) Train(ctx context.Context) Result {
	var res Result
	streak := 0
	// Telemetry attribution rides the context (obs.Scope), not the
	// trainer config: PPOConfig feeds ParamsHash and must stay fixed.
	scope := obs.ScopeFrom(ctx)
	for epoch := 1; epoch <= t.cfg.MaxEpochs; epoch++ {
		if ctx.Err() != nil {
			return res
		}
		t0 := time.Now()
		st := t.Epoch(epoch)
		scope.Emit(obs.Event{
			Kind:  obs.EvPPOEpoch,
			DurMS: float64(time.Since(t0).Nanoseconds()) / 1e6,
			Data:  st,
		})
		res.Stats = append(res.Stats, st)
		res.Epochs = epoch
		e := t.envs[0]
		ev := Evaluate(e, t.cfg.EvalEpisodes, Greedy(t.net, e))
		res.FinalAccuracy = ev.Accuracy
		res.FinalLength = ev.MeanLength
		converged := ev.Accuracy >= t.cfg.TargetAccuracy && ev.MeanReturn > 0
		if converged {
			if streak == 0 {
				res.EpochsToConverge = epoch
			}
			streak++
			if streak >= t.cfg.ConvergeEpochs {
				res.Converged = true
				return res
			}
		} else {
			streak = 0
			res.EpochsToConverge = 0
		}
	}
	return res
}
