package env

import (
	"encoding/binary"

	"autocat/internal/cache"
	"autocat/internal/detect"
	"autocat/internal/rngstate"
)

// Snapshot is a caller-owned capture of an Env's full mid-episode state:
// one cache.Snapshot per cache level in the target, the env's own RNG
// stream (when the step path can consume it), the episode counters, the
// attacker residency map, shaping classification counts, and the
// history/trace/prefetch-arena contents.
//
// Contract: after RestoreFrom, the env's subsequent StepLite/StepInto
// stream — rewards, done flags, trace records, observations — is
// byte-identical to what it would have produced from the captured state.
// The contract covers the remainder of the episode (and, in multi-secret
// mode, subsequent secrets drawn within it); Reset() draws from the live
// RNG stream wherever it currently is, exactly as it does without
// snapshots (see cache.Cache.Reset's determinism contract).
//
// Buffers grow on first use and are reused afterwards, so steady-state
// SnapshotInto/RestoreFrom are allocation-free.
type Snapshot struct {
	valid  bool
	caches []cache.Snapshot

	rng rngstate.State // captured only when EpisodeSteps > 0 (guess redraws the secret)

	secret    cache.Addr
	triggered bool
	steps     int
	done      bool
	guesses   int
	hits      int

	known                             []bool
	evalMode                          bool
	epNoOps, epRedFlush, epWastedTrig int
	epPenalized                       int

	history []stepFeature
	trace   []TraceStep
	pfArena []cache.Addr

	lastVerdict detect.Verdict
	hasVerdict  bool
}

// Valid reports whether s holds a captured state.
func (s *Snapshot) Valid() bool { return s.valid }

// targetCaches enumerates the simulated caches behind the env's target,
// memoized for the env's lifetime. It returns nil for targets that are
// not built from the in-repo simulator (e.g. black-box hardware models),
// which SnapshotSupported reports as unsupported.
func (e *Env) targetCaches() []*cache.Cache {
	if !e.snapChecked {
		e.snapChecked = true
		switch t := e.target.(type) {
		case simTarget:
			e.snapCaches = []*cache.Cache{t.c}
		case HierarchyTarget:
			n := t.H.Cores()
			e.snapCaches = make([]*cache.Cache, 0, n+1)
			for core := 0; core < n; core++ {
				e.snapCaches = append(e.snapCaches, t.H.L1(core))
			}
			e.snapCaches = append(e.snapCaches, t.H.L2())
		}
	}
	return e.snapCaches
}

// SnapshotSupported reports whether this env can be snapshotted: the
// target must be built from the in-repo cache simulator and no detector
// may be attached (detector state is not captured).
func (e *Env) SnapshotSupported() bool {
	return e.cfg.Detector == nil && len(e.targetCaches()) > 0
}

// ReplayDeterministic reports whether episode outcomes on this env are a
// pure function of (config, forced secret, action sequence) — i.e. no
// RNG stream that survives Reset is consumed mid-episode. Search
// strategies that reorder or skip episode evaluations relative to a
// plain sequential scan may only do so when this holds.
func (e *Env) ReplayDeterministic() bool {
	for _, c := range e.targetCaches() {
		if !c.ReplayDeterministic() {
			return false
		}
	}
	return true
}

// SnapshotInto captures the env's state into s. It panics if the env is
// not snapshot-capable; gate on SnapshotSupported first.
func (e *Env) SnapshotInto(s *Snapshot) {
	caches := e.targetCaches()
	if len(caches) == 0 || e.cfg.Detector != nil {
		panic("env: SnapshotInto on a non-snapshottable env (foreign target or detector attached)")
	}
	if cap(s.caches) < len(caches) {
		s.caches = make([]cache.Snapshot, len(caches))
	}
	s.caches = s.caches[:len(caches)]
	for i, c := range caches {
		c.Snapshot(&s.caches[i])
	}

	// The env's own stream is consumed mid-episode only by the
	// multi-secret guess path (drawSecret after a guess); single-guess
	// episodes never touch it between Reset and done.
	if e.cfg.EpisodeSteps > 0 {
		rngstate.Capture(&s.rng, e.rng)
	}

	s.secret = e.secret
	s.triggered = e.triggered
	s.steps = e.steps
	s.done = e.done
	s.guesses = e.guesses
	s.hits = e.hits

	if cap(s.known) < len(e.known) {
		s.known = make([]bool, len(e.known))
	}
	s.known = s.known[:len(e.known)]
	copy(s.known, e.known)
	s.evalMode = e.evalMode
	s.epNoOps, s.epRedFlush, s.epWastedTrig = e.epNoOps, e.epRedFlush, e.epWastedTrig
	s.epPenalized = e.epPenalized

	s.lastVerdict, s.hasVerdict = e.lastVerdict, e.hasVerdict

	if cap(s.history) < len(e.history) {
		s.history = append(s.history[:cap(s.history)], make([]stepFeature, len(e.history)-cap(s.history))...)
	}
	s.history = s.history[:len(e.history)]
	copy(s.history, e.history)

	if cap(s.trace) < len(e.trace) {
		s.trace = append(s.trace[:cap(s.trace)], make([]TraceStep, len(e.trace)-cap(s.trace))...)
	}
	s.trace = s.trace[:len(e.trace)]
	copy(s.trace, e.trace)

	if cap(s.pfArena) < len(e.pfArena) {
		s.pfArena = append(s.pfArena[:cap(s.pfArena)], make([]cache.Addr, len(e.pfArena)-cap(s.pfArena))...)
	}
	s.pfArena = s.pfArena[:len(e.pfArena)]
	copy(s.pfArena, e.pfArena)

	s.valid = true
}

// RestoreFrom rewinds the env to a previously captured state. The
// snapshot must come from this env or one built from an identical
// Config. Trace prefetch slices are re-aliased into the restored arena,
// so the restored trace is self-consistent even if the arena's backing
// array moved between capture and restore.
func (e *Env) RestoreFrom(s *Snapshot) {
	if !s.valid {
		panic("env: RestoreFrom of an empty Snapshot")
	}
	caches := e.targetCaches()
	if len(caches) != len(s.caches) {
		panic("env: RestoreFrom snapshot shape mismatch")
	}
	for i, c := range caches {
		c.Restore(&s.caches[i])
	}

	rngstate.Restore(&s.rng, e.rng)

	e.secret = s.secret
	e.triggered = s.triggered
	e.steps = s.steps
	e.done = s.done
	e.guesses = s.guesses
	e.hits = s.hits

	copy(e.known, s.known)
	e.evalMode = s.evalMode
	e.epNoOps, e.epRedFlush, e.epWastedTrig = s.epNoOps, s.epRedFlush, s.epWastedTrig
	e.epPenalized = s.epPenalized

	e.history = e.history[:0]
	e.history = append(e.history, s.history...)

	e.trace = e.trace[:0]
	e.trace = append(e.trace, s.trace...)

	e.pfArena = e.pfArena[:0]
	e.pfArena = append(e.pfArena, s.pfArena...)

	// Re-alias each trace step's Prefetched slice into the restored
	// arena. The arena is appended to in strict step order, so a single
	// cursor walk reconstructs every slice header.
	cursor := 0
	for i := range e.trace {
		if n := len(e.trace[i].Prefetched); n > 0 {
			e.trace[i].Prefetched = e.pfArena[cursor : cursor+n : cursor+n]
			cursor += n
		}
	}

	e.lastVerdict, e.hasVerdict = s.lastVerdict, s.hasVerdict
}

// AppendReplayState appends the env's replay key to b and returns the
// extended slice: the secret, then every target cache's
// cache.AppendReplayState. Where the incremental search may run
// (snapshot-capable, ReplayDeterministic, warm-up off), the key
// determines every later step's signature character, so two envs with
// equal keys answer every continuation alike. The trigger flag, the
// residency map and the shaping and guess counters are left out: they
// change rewards and telemetry, never signature characters. It panics
// on an env that is not snapshot-capable.
func (e *Env) AppendReplayState(b []byte) []byte {
	caches := e.targetCaches()
	if len(caches) == 0 {
		panic("env: AppendReplayState on a foreign target")
	}
	b = binary.AppendVarint(b, int64(e.secret))
	for _, c := range caches {
		b = c.AppendReplayState(b)
	}
	return b
}

// LoadReplayState puts the env at a state AppendReplayState encoded on
// an env built from the same Config: the encoded secret and cache
// contents, at step 0 of an unfinished episode with an empty trace,
// history and prefetch arena. Zeroing the step count keeps MaxSteps from
// ending an episode that re-expands a state first reached deep in
// another one. The state outside the key keeps whatever values it had.
// It panics on a malformed encoding.
func (e *Env) LoadReplayState(b []byte) {
	v, n := binary.Varint(b)
	if n <= 0 {
		panic("env: malformed replay state")
	}
	e.secret = cache.Addr(v)
	b = b[n:]
	for _, c := range e.targetCaches() {
		b = c.LoadReplayState(b)
	}
	if len(b) != 0 {
		panic("env: replay state longer than the target's caches")
	}
	e.steps = 0
	e.done = false
	e.trace = e.trace[:0]
	e.history = e.history[:0]
	e.pfArena = e.pfArena[:0]
}
