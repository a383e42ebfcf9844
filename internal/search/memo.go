package search

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"strings"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
)

// Memo is the transition memo of one search exploration. On a
// replay-deterministic env a cache set is a Mealy machine: a secret's
// next signature character and state are a pure function of its state
// (the env's replay key: secret plus cache contents) and the action,
// never of the candidate length. So one Memo serves every length an
// exploration searches, and a transition simulated at one length is a
// table lookup at the next.
//
// The memo keeps one table per worker slot: worker i of every search on
// the memo uses slot i, so workers never share a table and need no
// locks. Searches on one Memo must not run concurrently.
type Memo struct {
	e       *env.Env // siblings are built from it; it is never stepped
	pool    []int
	col     []int // col[a] is action a's index in pool
	secrets []cache.Addr
	slots   []*memoSlot
}

// NewMemo builds an empty memo for searches on e, which must pass
// Incremental. Slots, and their scratch envs, are built on first use.
func NewMemo(e *env.Env) *Memo {
	m := &Memo{e: e, pool: nonGuessActions(e), col: make([]int, e.NumActions()), secrets: e.Secrets()}
	for i, a := range m.pool {
		m.col[a] = i
	}
	return m
}

// walkers returns n walkers of the given length, walker i on slot i,
// creating the slots it lacks.
func (m *Memo) walkers(n, length int) []*walker {
	for len(m.slots) < n {
		sim, err := m.e.Sibling()
		if err != nil {
			panic(fmt.Sprintf("search: walker on a non-simulator target: %v", err))
		}
		m.slots = append(m.slots, &memoSlot{
			offs:  []uint32{0},
			index: make([]int32, 1024),
			seed:  maphash.MakeSeed(),
			width: len(m.pool),
			sim:   sim,
		})
	}
	ws := make([]*walker, n)
	for i := range ws {
		ws[i] = newWalker(m, m.slots[i], length)
	}
	return ws
}

// memoSlot is one worker slot's table. It holds no pointers but the
// scratch env: state id's replay key is arena[offs[id]:offs[id+1]], ids
// are assigned in insertion order, and index is an open-addressed hash
// of the keys (linear probing, id+1 per bucket, 0 empty, at most half
// full). edges[id·width+ai] holds the child state and signature char of
// action pool[ai] from state id; roots[i] is secret i's post-Reset state.
type memoSlot struct {
	_     cacheLinePad
	arena []byte
	offs  []uint32
	index []int32
	seed  maphash.Seed
	edges []edge
	width int
	roots []int32

	sim *env.Env // scratch env, the only one the memo steps
	buf []byte

	simulated int // StepLite calls run on memo misses
	published int // the part of simulated already published
	_         cacheLinePad
}

// cacheLinePad starts and ends the structs a worker writes on every step
// (its walker) or every memo miss (its slot): workers run on separate
// cores, and a field sharing a cache line with another worker's struct
// would bounce the line between them.
type cacheLinePad [64]byte

// cacheLineInt32s is the int32 count of one cache line.
const cacheLineInt32s = 64 / 4

// edge is one memo transition.
type edge struct {
	child int32 // child state id + 1; 0 until simulated
	char  int32 // signature char index of the step
}

// memoCap bounds the states one slot interns. Past it the slot is
// rebuilt at the next restart (a shard or batch boundary), which changes
// how many steps are simulated but never a Result. A variable only so
// tests can force rebuilds.
var memoCap = 1 << 16

// states is the number of interned states.
func (s *memoSlot) states() int { return len(s.offs) - 1 }

// key returns state id's replay key, aliasing the arena.
func (s *memoSlot) key(id int32) []byte { return s.arena[s.offs[id]:s.offs[id+1]] }

// intern returns the id of the state encoded in b, adding it to the memo
// when it is new. Finding an existing key allocates nothing.
func (s *memoSlot) intern(b []byte) int32 {
	mask := uint64(len(s.index) - 1)
	i := maphash.Bytes(s.seed, b) & mask
	for ; s.index[i] != 0; i = (i + 1) & mask {
		if id := s.index[i] - 1; bytes.Equal(s.key(id), b) {
			return id
		}
	}
	id := int32(s.states())
	s.index[i] = id + 1
	s.arena = append(s.arena, b...)
	s.offs = append(s.offs, uint32(len(s.arena)))
	s.edges = append(s.edges, make([]edge, s.width)...)
	if 2*s.states() > len(s.index) {
		s.grow()
	}
	return id
}

// grow doubles the index and rehashes every key into it.
func (s *memoSlot) grow() {
	s.index = make([]int32, 2*len(s.index))
	mask := uint64(len(s.index) - 1)
	for id := range int32(s.states()) {
		i := maphash.Bytes(s.seed, s.key(id)) & mask
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = id + 1
	}
}

// simulate fills edge k, action a from state id, with one StepLite on
// the scratch env.
func (s *memoSlot) simulate(id int32, a, k int) {
	s.sim.LoadReplayState(s.key(id))
	s.sim.StepLite(a) // one step from step 0 never reaches MaxSteps
	s.simulated++
	c := int32(strings.IndexByte("nhm", s.sim.SignatureChar()))
	s.buf = s.sim.AppendReplayState(s.buf[:0])
	s.edges[k] = edge{child: s.intern(s.buf) + 1, char: c}
}

// ready makes the slot usable at a restart: a new slot, or one grown
// past memoCap, is rebuilt from the roots, every secret's post-Reset
// state.
func (s *memoSlot) ready(secrets []cache.Addr) {
	if n := s.states(); n > 0 && n <= memoCap {
		return
	}
	s.arena, s.offs, s.edges, s.roots = s.arena[:0], s.offs[:1], s.edges[:0], s.roots[:0]
	clear(s.index)
	for _, sec := range secrets {
		s.sim.Reset()
		s.sim.ForceSecret(sec)
		s.buf = s.sim.AppendReplayState(s.buf[:0])
		s.roots = append(s.roots, s.intern(s.buf))
	}
}

// publish adds the scratch env's cache counts and the steps simulated
// since the last publish to the telemetry counters. The env never
// finishes an episode, so nothing else would.
func (s *memoSlot) publish() {
	s.sim.FlushTargetObs()
	obs.SearchSimulated.Add(uint64(s.simulated - s.published))
	s.published = s.simulated
}
