package env

import (
	"fmt"
	"math/rand"

	"autocat/internal/cache"
	"autocat/internal/detect"
	"autocat/internal/obs"
)

// NoAccess is the sentinel secret meaning "the victim makes no access when
// triggered" (the paper's addr_secret = E).
const NoAccess cache.Addr = -1

// latency observation categories (the S_lat subspace of §IV-C).
const (
	latNA = iota // no timing information for this step
	latHit
	latMiss
)

// TraceStep records one executed step for analysis, replay, and the
// detectors' event trains.
type TraceStep struct {
	Action  int
	Kind    ActionKind
	Addr    cache.Addr // target address of access/flush/guess actions
	Hit     bool       // attacker access outcome (valid for KindAccess)
	Latency int        // cycles charged to the step
	Reward  float64
	GuessOK bool // valid when Kind is KindGuess
}

// Env is one cache guessing game instance. It is not safe for concurrent
// use; parallel RL actors each own an Env.
type Env struct {
	cfg     Config
	target  Target
	rng     *rand.Rand
	actions actionTable

	// episode state
	secret    cache.Addr
	triggered bool
	steps     int
	done      bool
	guesses   int
	hits      int // correct guesses this episode

	// Useless-action classification state (reward shaping). known[i]
	// records whether the attacker already knows address AttackerLo+i is
	// resident: set by the attacker's own accesses, cleared by flushes
	// and by evictions of attacker-range lines. Classification always
	// runs (the counters feed useless_action_rate); the penalties apply
	// only when cfg.Shaping.Enable is set and the env is not in eval
	// mode.
	known                             []bool
	evalMode                          bool // suppress shaping penalties (rl.Evaluate, rl.ExtractAttack)
	epNoOps, epRedFlush, epWastedTrig int  // per-episode classification counts
	epPenalized                       int  // steps that actually received a shaping penalty

	window      int
	history     []stepFeature // preallocated to MaxSteps, reused across Reset
	trace       []TraceStep   // preallocated to MaxSteps, reused across Reset
	lastVerdict detect.Verdict
	hasVerdict  bool

	// caches memoizes the target's cache enumeration for replay keys
	// (see replay.go); nil until first use, empty-but-checked when the
	// target is not built from the simulator.
	caches        []*cache.Cache
	cachesChecked bool
}

// stepFeature is the per-step observation record before numeric encoding.
type stepFeature struct {
	lat     int // latNA / latHit / latMiss
	action  int // action index, -1 for empty history slots
	stepIdx int
	trig    bool
}

// New validates cfg and builds the environment.
func New(cfg Config) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The zero value means "unset" and selects the paper defaults. An
	// intentionally all-zero scheme sets Rewards.Explicit, which makes the
	// struct non-zero and skips the substitution.
	if cfg.Rewards == (Rewards{}) {
		cfg.Rewards = DefaultRewards()
	}
	// Disabled shaping collapses to the zero value; Enable with only
	// zero penalties selects the defaults.
	cfg.Shaping = cfg.Shaping.Normalize()
	target := cfg.Target
	if target == nil {
		cc := cfg.Cache
		if cc.AddrSpace == 0 {
			hi := cfg.AttackerHi
			if cfg.VictimHi > hi {
				hi = cfg.VictimHi
			}
			cc.AddrSpace = int(hi) + 1
		}
		target = simTarget{c: cache.New(cc)}
	}
	window := cfg.WindowSize
	if window == 0 {
		blocks := cfg.Cache.NumBlocks
		if blocks == 0 {
			blocks = 4
		}
		window = 4*blocks + 4
	}
	e := &Env{
		cfg:     cfg,
		target:  target,
		rng:     rand.New(rand.NewSource(cfg.Seed + 0xe11)),
		actions: buildActions(cfg),
		window:  window,
	}
	// Episodes never exceed MaxSteps, so the history and trace buffers are
	// sized once here and reused across every Reset (no steady-state
	// allocation in the step hot path).
	e.history = make([]stepFeature, 0, e.MaxSteps())
	e.trace = make([]TraceStep, 0, e.MaxSteps())
	e.known = make([]bool, int(cfg.AttackerHi-cfg.AttackerLo)+1)
	e.resetState()
	return e, nil
}

// Sibling builds an env with e's Config on an independent target: a
// fresh simulator cache, or a fresh hierarchy of the same
// HierarchyConfig, so the two envs can step concurrently. Foreign targets
// (e.g. black-box hardware models) cannot be rebuilt and return an
// error; they never support replay keys either. The sibling starts
// from a new episode and its own RNG streams, seeded as e's were.
func (e *Env) Sibling() (*Env, error) {
	cfg := e.cfg
	switch t := e.target.(type) {
	case simTarget:
		// cfg.Target is nil: New builds a fresh cache from cfg.Cache.
	case HierarchyTarget:
		cfg.Target = HierarchyTarget{H: cache.NewHierarchy(t.H.Config())}
	default:
		return nil, fmt.Errorf("env: cannot build a sibling of a %T target", e.target)
	}
	return New(cfg)
}

// Config returns the environment's validated configuration.
func (e *Env) Config() Config { return e.cfg }

// NumActions returns the size of the discrete action space.
func (e *Env) NumActions() int { return e.actions.total }

// Window returns the observation window size W, which is also the episode
// length limit in single-guess mode.
func (e *Env) Window() int { return e.window }

// FeatureDim returns the per-step feature width F.
func (e *Env) FeatureDim() int {
	// latency one-hot (3) + action one-hot (+1 "none") + step scalar +
	// triggered flag.
	return 3 + e.actions.total + 1 + 2
}

// ObsDim returns the flattened observation size W×F consumed by the MLP
// backbone.
func (e *Env) ObsDim() int { return e.window * e.FeatureDim() }

// MaxSteps returns the episode length limit.
func (e *Env) MaxSteps() int {
	if e.cfg.EpisodeSteps > 0 {
		return e.cfg.EpisodeSteps
	}
	return e.window
}

// Secret exposes the current episode's secret address (NoAccess when the
// victim makes no access). Tests and scripted agents use it; the RL agent
// of course never sees it.
func (e *Env) Secret() cache.Addr { return e.secret }

// ForceSecret overrides the current episode's secret. The brute-force
// search baseline (§VI-A) uses it to check whether a candidate sequence
// distinguishes every secret; it is not part of the attack surface.
func (e *Env) ForceSecret(a cache.Addr) {
	if a != NoAccess && (a < e.cfg.VictimLo || a > e.cfg.VictimHi) {
		panic(fmt.Sprintf("env: secret %d outside victim range [%d,%d]", a, e.cfg.VictimLo, e.cfg.VictimHi))
	}
	if a == NoAccess && !e.cfg.VictimNoAccess {
		panic("env: NoAccess secret requires VictimNoAccess")
	}
	e.secret = a
}

// Secrets enumerates every possible secret value for the configuration.
func (e *Env) Secrets() []cache.Addr {
	var out []cache.Addr
	for a := e.cfg.VictimLo; a <= e.cfg.VictimHi; a++ {
		out = append(out, a)
	}
	if e.cfg.VictimNoAccess {
		out = append(out, NoAccess)
	}
	return out
}

// Trace returns the steps executed so far in the current episode. The
// slice is reused by the next Reset; callers that keep a trace across
// episodes must copy it.
func (e *Env) Trace() []TraceStep { return e.trace }

// SignatureChar classifies the most recent step for a hit/miss
// signature: 'n' for a non-access action, 'h'/'m' for an attacker access
// that hit/missed. The search predicate and the decision tables built
// from its finds read the same characters. The episode must have taken
// at least one step.
func (e *Env) SignatureChar() byte {
	last := &e.trace[len(e.trace)-1]
	switch {
	case last.Kind != KindAccess:
		return 'n'
	case last.Hit:
		return 'h'
	default:
		return 'm'
	}
}

// EpisodeGuesses returns (correct, total) guesses in the current episode.
func (e *Env) EpisodeGuesses() (correct, total int) { return e.hits, e.guesses }

// EpisodeUseless returns the number of steps classified useless this
// episode (no-op accesses + redundant flushes + wasted victim triggers).
// Classification runs whether or not shaping penalties are enabled, so
// shaped and plain runs report comparable useless-action rates.
func (e *Env) EpisodeUseless() int { return e.epNoOps + e.epRedFlush + e.epWastedTrig }

// SetShapingEvalMode suppresses (true) or restores (false) shaping
// penalties without touching the configuration. rl.Evaluate and
// rl.ExtractAttack bracket every evaluated episode with it, whatever
// plays it, which is the mechanical half of the
// training-reward-only contract: eval returns are those of the unshaped
// game even when the training env shapes. Classification counters keep
// running either way.
func (e *Env) SetShapingEvalMode(eval bool) { e.evalMode = eval }

// shapingActive reports whether shaping penalties currently apply.
func (e *Env) shapingActive() bool { return e.cfg.Shaping.Enable && !e.evalMode }

// forgetEvicted clears the attacker's residency knowledge for every
// attacker-range line an access displaced. Runs on the step hot path;
// evs is almost always empty or tiny.
func (e *Env) forgetEvicted(evs []cache.Eviction) {
	for _, ev := range evs {
		if ev.EvictedAddr >= e.cfg.AttackerLo && ev.EvictedAddr <= e.cfg.AttackerHi {
			e.known[int(ev.EvictedAddr-e.cfg.AttackerLo)] = false
		}
	}
}

// forgetAll clears all residency knowledge (victim triggered: every
// line's state is uncertain until re-probed).
func (e *Env) forgetAll() {
	for i := range e.known {
		e.known[i] = false
	}
}

// resetState re-randomizes the secret, re-warms the cache, and clears the
// observation history.
func (e *Env) resetState() {
	e.target.Reset()
	if e.cfg.LockVictimLines {
		locker, ok := e.target.(Locker)
		if !ok {
			panic("env: LockVictimLines requires a Target implementing Locker")
		}
		for a := e.cfg.VictimLo; a <= e.cfg.VictimHi; a++ {
			locker.Lock(a, cache.DomainVictim)
		}
	}
	if d := e.cfg.Detector; d != nil {
		d.Reset()
	}
	e.lastVerdict, e.hasVerdict = detect.Verdict{}, false
	e.drawSecret()
	e.triggered = false
	e.steps = 0
	e.done = false
	e.guesses, e.hits = 0, 0
	e.trace = e.trace[:0]
	e.history = e.history[:0]
	e.forgetAll()
	e.epNoOps, e.epRedFlush, e.epWastedTrig, e.epPenalized = 0, 0, 0, 0
	e.warmup()
	if e.cfg.PreloadVictimLines {
		// Installed after warm-up so the lines are resident (though
		// evictable) when the episode begins.
		for a := e.cfg.VictimLo; a <= e.cfg.VictimHi; a++ {
			e.target.Access(a, cache.DomainVictim)
		}
	}
}

// drawSecret samples a new secret uniformly from the victim's address range
// plus (when enabled) the no-access outcome.
func (e *Env) drawSecret() {
	n := int(e.cfg.VictimHi - e.cfg.VictimLo + 1)
	if e.cfg.VictimNoAccess {
		n++
	}
	k := e.rng.Intn(n)
	if e.cfg.VictimNoAccess && k == n-1 {
		e.secret = NoAccess
		return
	}
	e.secret = e.cfg.VictimLo + cache.Addr(k)
}

// warmup performs the random initialization accesses of §VI-B with the
// unattributed domain so detectors see no cross-domain events.
func (e *Env) warmup() {
	n := e.cfg.Warmup
	if n < 0 {
		return
	}
	if n == 0 {
		n = e.cfg.Cache.NumBlocks
	}
	lo, hi := e.cfg.AttackerLo, e.cfg.AttackerHi
	if e.cfg.VictimLo < lo {
		lo = e.cfg.VictimLo
	}
	if e.cfg.VictimHi > hi {
		hi = e.cfg.VictimHi
	}
	span := int(hi - lo + 1)
	for i := 0; i < n; i++ {
		e.target.Access(lo+cache.Addr(e.rng.Intn(span)), cache.DomainNone)
	}
}

// Reset starts a new episode without materializing the observation;
// callers that feed a policy follow it with ObsInto.
func (e *Env) Reset() { e.resetState() }

// Step executes one action without materializing the observation and
// returns the reward and whether the episode ended. Calling it on a
// finished episode panics; the caller must Reset first. Callers that
// feed a policy follow it with ObsInto into a buffer they own, so
// rollout actors step with zero steady-state allocations; callers that
// read the trace rather than the observation (search, scripted agents,
// decision-table replays) skip the W×F encode, which dominates the
// per-step cost on wide windows.
func (e *Env) Step(action int) (reward float64, done bool) {
	if e.done {
		panic("env: Step called on finished episode")
	}
	if action < 0 || action >= e.actions.total {
		panic(fmt.Sprintf("env: action %d out of range [0,%d)", action, e.actions.total))
	}
	dec := e.actions.dec[action]
	// The step is filled field by field in its trace slot (the trace is
	// preallocated to MaxSteps). Appending a record built in a local
	// copies it once more, which profiled at about 8% of the
	// re-simulating scan's CPU. Every field is set before any call that
	// can panic, so a Step that panics leaves a last entry that holds
	// this action with a zero outcome, never a stale earlier one.
	e.trace = e.trace[:len(e.trace)+1]
	step := &e.trace[len(e.trace)-1]
	step.Action, step.Kind, step.Addr = action, dec.kind, dec.addr
	step.Hit, step.Latency, step.GuessOK, step.Reward = false, 0, false, 0
	lat := latNA

	switch dec.kind {
	case KindAccess:
		res := e.target.Access(dec.addr, cache.DomainAttacker)
		step.Hit, step.Latency = res.Hit, res.Latency
		if res.Hit {
			lat = latHit
		} else {
			lat = latMiss
		}
		reward = e.cfg.Rewards.Step
		// Useless-action classification: a hit that changed no cache
		// state on a line whose residency was already known observed
		// nothing and moved nothing.
		ki := int(dec.addr - e.cfg.AttackerLo)
		if res.Hit && !res.StateChanged && e.known[ki] {
			e.epNoOps++
			if e.shapingActive() {
				reward += e.cfg.Shaping.NoOpAccess
				e.epPenalized++
			}
		}
		e.known[ki] = res.Hit || res.StateChanged
		e.forgetEvicted(res.Evictions)
		if d := e.cfg.Detector; d != nil {
			d.Record(detect.Access{
				Dom: cache.DomainAttacker, Addr: dec.addr,
				Set: e.target.SetOf(dec.addr), Hit: res.Hit, Evictions: res.Evictions,
			})
		}
	case KindFlush:
		resident := e.target.Flush(dec.addr)
		reward = e.cfg.Rewards.Step
		if !resident {
			// Redundant flush: the line was not cached, nothing was
			// invalidated.
			e.epRedFlush++
			if e.shapingActive() {
				reward += e.cfg.Shaping.RedundantFlush
				e.epPenalized++
			}
		}
		e.known[int(dec.addr-e.cfg.AttackerLo)] = false
	case KindVictim:
		reward = e.cfg.Rewards.Step
		if e.triggered {
			// Wasted trigger: the victim already ran and no guess re-armed
			// it; its secret-dependent access can only hit its own line.
			e.epWastedTrig++
			if e.shapingActive() {
				reward += e.cfg.Shaping.WastedVictim
				e.epPenalized++
			}
		}
		e.triggered = true
		// The victim may have run: every line's residency is stale from
		// the attacker's view until re-probed, so the first probe after a
		// trigger is never a no-op — it reads the channel. (Clearing only
		// the victim's actual evictions would leak oracle state into the
		// classifier: on idle-secret episodes nothing would be forgotten
		// and the information-bearing probe hit would be penalized.)
		e.forgetAll()
		if e.secret != NoAccess {
			res := e.target.Access(e.secret, cache.DomainVictim)
			step.Latency = res.Latency
			step.Hit = res.Hit // recorded for analysis; never observed by the agent
			if d := e.cfg.Detector; d != nil {
				d.Record(detect.Access{
					Dom: cache.DomainVictim, Addr: e.secret,
					Set: e.target.SetOf(e.secret), Hit: res.Hit, Evictions: res.Evictions,
				})
			}
		}
	case KindGuess, KindGuessNone:
		e.guesses++
		correct := (dec.kind == KindGuessNone && e.secret == NoAccess) ||
			(dec.kind == KindGuess && e.secret == dec.addr)
		step.GuessOK = correct
		if correct {
			e.hits++
			reward = e.cfg.Rewards.CorrectGuess
			lat = latHit // guess feedback (multi-guess episodes observe it)
		} else {
			reward = e.cfg.Rewards.WrongGuess
			lat = latMiss
		}
		if e.cfg.EpisodeSteps > 0 {
			// Multi-secret episode: draw the next secret and continue.
			e.drawSecret()
			e.triggered = false
		} else {
			e.done = true
		}
	}

	e.steps++
	e.history = append(e.history, stepFeature{lat: lat, action: action, stepIdx: e.steps, trig: e.triggered})

	// Online detection (the miss-based scheme terminates episodes).
	if d := e.cfg.Detector; d != nil && e.cfg.TerminateOnDetect && d.Detected() && !e.done {
		reward += e.cfg.Rewards.Detection
		e.done = true
		e.lastVerdict, e.hasVerdict = detect.Verdict{Detected: true}, true
	}

	// Episode length limits.
	if !e.done && e.steps >= e.MaxSteps() {
		if e.cfg.EpisodeSteps > 0 {
			e.done = true
			if e.guesses == 0 {
				reward += e.cfg.Rewards.NoGuess
			}
		} else {
			reward += e.cfg.Rewards.LengthViolation
			e.done = true
		}
	}

	// Offline end-of-episode screening (CC-Hunter, Cyclone).
	if d := e.cfg.Detector; d != nil && e.done && !e.cfg.TerminateOnDetect {
		v := d.Finalize()
		if v.Detected {
			reward += e.cfg.Rewards.Detection
		}
		reward += e.cfg.DetectPenaltyCoef * v.Penalty
		e.lastVerdict, e.hasVerdict = v, true
	}

	step.Reward = reward
	if e.done {
		e.flushObs()
	}
	return reward, e.done
}

// flushObs publishes the finished episode's totals to the obs registry,
// together with the target caches' local counts (ObsFlusher). Only
// completed episodes count — an env reset mid-episode (e.g. a discarded
// eval) contributes nothing of its own — so the totals are a pure
// function of the episodes played, identical for every kernel-worker
// and actor-scheduling configuration. Runs once per episode, keeping
// atomics out of the per-step path.
func (e *Env) flushObs() {
	e.FlushTargetObs()
	if !obs.Enabled() {
		return
	}
	obs.EnvSteps.Add(uint64(e.steps))
	obs.EnvEpisodes.Inc()
	obs.EnvGuesses.Add(uint64(e.guesses))
	obs.EnvCorrectGuesses.Add(uint64(e.hits))
	obs.EnvNoOpAccesses.Add(uint64(e.epNoOps))
	obs.EnvRedundantFlush.Add(uint64(e.epRedFlush))
	obs.EnvWastedTriggers.Add(uint64(e.epWastedTrig))
	obs.EnvShapingPenalty.Add(uint64(e.epPenalized))
}

// FlushTargetObs publishes the target caches' locally held counts
// (ObsFlusher) without counting an episode. Every completed episode does
// it on its own; a flow that drops an env mid-episode calls it once
// before letting go, or the counts below cache.ObsBatch are lost.
func (e *Env) FlushTargetObs() {
	if f, ok := e.target.(ObsFlusher); ok {
		f.FlushObs()
	}
}

// Verdict returns the detector's end-of-episode verdict. The boolean is
// false until the episode finishes (or, for online detectors, fires).
func (e *Env) Verdict() (detect.Verdict, bool) { return e.lastVerdict, e.hasVerdict }

// ObsInto writes the flattened W×F observation into dst, which must have
// length ObsDim: the most recent W steps, newest first, zero-padded
// when the episode is younger than the window.
func (e *Env) ObsInto(dst []float64) {
	w, f := e.window, e.FeatureDim()
	if len(dst) != w*f {
		panic(fmt.Sprintf("env: ObsInto buffer has length %d, want %d", len(dst), w*f))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < w; i++ {
		slot := dst[i*f : (i+1)*f]
		h := len(e.history) - 1 - i
		if h < 0 {
			// Empty slot: latency N.A., action "none".
			slot[latNA] = 1
			continue
		}
		sf := e.history[h]
		slot[sf.lat] = 1
		slot[3+sf.action] = 1
		slot[3+e.actions.total] = float64(sf.stepIdx) / float64(e.MaxSteps())
		if sf.trig {
			slot[3+e.actions.total+1] = 1
		} else {
			slot[3+e.actions.total+2] = 1
		}
	}
}
