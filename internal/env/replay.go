package env

import (
	"encoding/binary"

	"autocat/internal/cache"
)

// targetCaches enumerates the simulated caches behind the env's target,
// memoized for the env's lifetime. It returns nil for targets that are
// not built from the in-repo simulator (e.g. black-box hardware models),
// which ReplaySupported reports as unsupported.
func (e *Env) targetCaches() []*cache.Cache {
	if !e.cachesChecked {
		e.cachesChecked = true
		switch t := e.target.(type) {
		case simTarget:
			e.caches = []*cache.Cache{t.c}
		case HierarchyTarget:
			n := t.H.Cores()
			e.caches = make([]*cache.Cache, 0, n+1)
			for core := 0; core < n; core++ {
				e.caches = append(e.caches, t.H.L1(core))
			}
			e.caches = append(e.caches, t.H.L2())
		}
	}
	return e.caches
}

// ReplaySupported reports whether this env's state can be captured as a
// replay key: the target must be built from the in-repo cache simulator
// and no detector may be attached (the key holds no detector state).
func (e *Env) ReplaySupported() bool {
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

// AppendReplayState appends the env's replay key to b and returns the
// extended slice: the secret, then every target cache's
// cache.AppendReplayState. Where the incremental search may run
// (ReplaySupported, ReplayDeterministic, warm-up off), the key
// determines every later step's signature character, so two envs with
// equal keys answer every continuation alike. The trigger flag, the
// residency map and the shaping and guess counters are left out: they
// change rewards and telemetry, never signature characters. It panics
// on a foreign target.
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
}
