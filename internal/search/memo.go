package search

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
)

// The transition memo. On a replay-deterministic env a cache set is a
// Mealy machine: a secret's next signature character and state are a
// pure function of its state (the env's replay key: secret plus cache
// contents) and the action, never of the candidate length. So one memo
// serves every length a Searcher searches, and a transition simulated,
// or a joint node refined, at one length is a table lookup at the next.
//
// The memo keeps one slot of tables per worker: worker i of every
// search on the Searcher uses slot i, so workers never share a table
// and need no locks.

// memoBuffers is what a Searcher allocates that a later one can reuse:
// its slots' tables, its random-search generator and its candidate
// buffers. Release hands them on through bufferPool. A slot's tables
// grow to about a megabyte, and allocating them afresh for every job of
// a screening campaign cost it about a quarter of its throughput, most
// of it in garbage collection.
type memoBuffers struct {
	tables []slotTables // tables[i] is slot i's, emptied
	rng    *rand.Rand
	cands  []int
}

var bufferPool sync.Pool

// Release hands the searcher's buffers to searchers built later and
// leaves it empty, as NewSearcher built it. Call it when an exploration
// is done.
func (s *Searcher) Release() {
	b := s.bufs
	for i, sl := range s.slots {
		sl.state.reset()
		sl.node.reset()
		if i < len(b.tables) {
			b.tables[i] = sl.slotTables
		} else {
			b.tables = append(b.tables, sl.slotTables)
		}
	}
	bufferPool.Put(b)
	s.slots, s.bufs = nil, new(memoBuffers)
}

// walkers returns n walkers of the given length, walker i on slot i,
// creating the slots it lacks.
func (s *Searcher) walkers(n, length int) []*walker {
	for i := len(s.slots); i < n; i++ {
		sim, err := s.e.Sibling()
		if err != nil {
			panic(fmt.Sprintf("search: walker on a non-simulator target: %v", err))
		}
		sl := &memoSlot{sim: sim}
		if i < len(s.bufs.tables) {
			sl.slotTables = s.bufs.tables[i]
		} else {
			seed := maphash.MakeSeed()
			sl.state = newInternTable[byte, edge](func(b []byte) uint64 { return maphash.Bytes(seed, b) })
			sl.node = newInternTable[int32, int32](hashPairs)
		}
		sl.state.width, sl.node.width = len(s.pool), len(s.pool)
		s.slots = append(s.slots, sl)
	}
	ws := make([]*walker, n)
	for i := range ws {
		ws[i] = newWalker(s, s.slots[i], length)
	}
	return ws
}

// rand returns the searcher's random-search generator, seeded with
// seed: the stream of rand.New(rand.NewSource(seed)).
func (s *Searcher) rand(seed int64) *rand.Rand {
	if s.bufs.rng == nil {
		s.bufs.rng = rand.New(rand.NewSource(seed))
	} else {
		s.bufs.rng.Seed(seed)
	}
	return s.bufs.rng
}

// candidates returns n ints of the searcher's candidate buffer.
func (s *Searcher) candidates(n int) []int {
	if cap(s.bufs.cands) < n {
		s.bufs.cands = make([]int, n)
	}
	return s.bufs.cands[:n]
}

// memoSlot is one worker slot: its tables, its root ids and its scratch
// env. roots[i] is secret i's post-Reset state, and root is the joint
// node every restart starts at.
type memoSlot struct {
	_ cacheLinePad
	slotTables
	roots []int32
	root  int32

	sim  *env.Env // scratch env, the only one the memo steps
	buf  []byte   // replay-key scratch
	pair []int32  // joint-node key scratch

	slotCounts
	published slotCounts // the part of slotCounts already published
	_         cacheLinePad
}

// slotTables are a slot's two tables. Both hold no pointers but their
// hash. The state table interns replay keys: its value [id·width+ai] is
// the edge of action pool[ai] from state id. The node table interns
// joint nodes, a walker position: the (state id, class id) pairs of the
// live secrets, in secret order. Its value [id·width+ai] is the child
// node + 1 of action pool[ai] from node id, 0 until refined.
type slotTables struct {
	state internTable[byte, edge]
	node  internTable[int32, int32]
}

// slotCounts are a slot's plain telemetry counters, flushed by publish.
type slotCounts struct {
	simulated  int // StepLite calls run on state-edge misses
	descends   int // node-edge lookups, one per walker descend
	nodeMisses int // node-edge misses, each refined secret by secret
}

// cacheLinePad starts and ends the structs a worker writes on every step
// (its walker and its slot): workers run on separate cores, and a field
// sharing a cache line with another worker's struct would bounce the line
// between them.
type cacheLinePad [64]byte

// cacheLineInt32s is the int32 count of one cache line.
const cacheLineInt32s = 64 / 4

// edge is one memo transition.
type edge struct {
	child int32 // child state id + 1; 0 until simulated
	char  int32 // signature char index of the step
}

// memoCap bounds the states and the joint nodes one slot interns. Past
// it in either table the slot is rebuilt at the next restart (a shard or
// batch boundary), which changes how many steps are simulated but never
// a Result. A variable only so tests can force rebuilds.
var memoCap = 1 << 16

// internTable interns keys, slices of K, as dense ids in insertion order,
// each with width values, zero when it is added: key id is
// arena[offs[id]:offs[id+1]], its values vals[id·width:(id+1)·width], and
// index is an open-addressed hash of the keys (linear probing, id+1 per
// bucket, 0 empty, at most half full).
type internTable[K byte | int32, V edge | int32] struct {
	arena []K
	offs  []uint32
	index []int32
	vals  []V
	width int
	hash  func([]K) uint64
}

func newInternTable[K byte | int32, V edge | int32](hash func([]K) uint64) internTable[K, V] {
	return internTable[K, V]{offs: []uint32{0}, index: make([]int32, 1024), hash: hash}
}

// len is the number of interned keys.
func (t *internTable[K, V]) len() int { return len(t.offs) - 1 }

// key returns key id, aliasing the arena.
func (t *internTable[K, V]) key(id int32) []K { return t.arena[t.offs[id]:t.offs[id+1]] }

// size is key id's length.
func (t *internTable[K, V]) size(id int32) int { return int(t.offs[id+1] - t.offs[id]) }

// intern returns the id of key b, adding it when it is new. Finding an
// existing key allocates nothing.
func (t *internTable[K, V]) intern(b []K) int32 {
	mask := uint64(len(t.index) - 1)
	i := t.hash(b) & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if id := t.index[i] - 1; slices.Equal(t.key(id), b) {
			return id
		}
	}
	id := int32(t.len())
	t.index[i] = id + 1
	t.arena = append(t.arena, b...)
	t.offs = append(t.offs, uint32(len(t.arena)))
	t.vals = append(t.vals, make([]V, t.width)...)
	if 2*t.len() > len(t.index) {
		t.grow()
	}
	return id
}

// grow doubles the index, rehashes every key into it, and doubles the
// capacity of the key and value arrays: growing them by append alone
// would copy them several times over as they pass a megabyte.
func (t *internTable[K, V]) grow() {
	t.index = make([]int32, 2*len(t.index))
	mask := uint64(len(t.index) - 1)
	for id := range int32(t.len()) {
		i := t.hash(t.key(id)) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = id + 1
	}
	t.arena = slices.Grow(t.arena, len(t.arena))
	t.offs = slices.Grow(t.offs, len(t.offs))
	t.vals = slices.Grow(t.vals, len(t.vals))
}

// reset empties the table, keeping its buffers.
func (t *internTable[K, V]) reset() {
	t.arena, t.offs, t.vals = t.arena[:0], t.offs[:1], t.vals[:0]
	clear(t.index)
}

// hashPairs hashes a joint-node key. Its quality only affects probe
// lengths: ids are assigned in insertion order, so results never depend
// on it.
func hashPairs(k []int32) uint64 {
	h := uint64(len(k)) * 0x9e3779b97f4a7c15
	for _, x := range k {
		h = bits.RotateLeft64(h^uint64(uint32(x))*0xc2b2ae3d27d4eb4f, 31) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// states is the number of interned states.
func (s *memoSlot) states() int { return s.state.len() }

// nodes is the number of interned joint nodes.
func (s *memoSlot) nodes() int { return s.node.len() }

// key returns state id's replay key, aliasing the arena.
func (s *memoSlot) key(id int32) []byte { return s.state.key(id) }

// intern returns the id of the state encoded in b, adding it when it is
// new.
func (s *memoSlot) intern(b []byte) int32 { return s.state.intern(b) }

// simulate fills edge k, action a from state id, with one StepLite on
// the scratch env.
func (s *memoSlot) simulate(id int32, a, k int) {
	s.sim.LoadReplayState(s.key(id))
	s.sim.StepLite(a) // one step from step 0 never reaches MaxSteps
	s.simulated++
	c := int32(strings.IndexByte("nhm", s.sim.SignatureChar()))
	s.buf = s.sim.AppendReplayState(s.buf[:0])
	s.state.vals[k] = edge{child: s.intern(s.buf) + 1, char: c}
}

// ready makes the slot usable at a restart. A new slot, or one with
// either table grown past memoCap, is rebuilt from the roots, every
// secret's post-Reset state. Joint nodes name state ids, so the two
// tables are only ever rebuilt together. The root node holds every
// secret in class 0; with a single secret it is empty, as any prefix
// distinguishes.
func (s *memoSlot) ready(secrets []cache.Addr) {
	if n := s.states(); n > 0 && n <= memoCap && s.nodes() <= memoCap {
		return
	}
	s.state.reset()
	s.node.reset()
	s.roots, s.pair = s.roots[:0], s.pair[:0]
	for _, sec := range secrets {
		s.sim.Reset()
		s.sim.ForceSecret(sec)
		s.buf = s.sim.AppendReplayState(s.buf[:0])
		id := s.intern(s.buf)
		s.roots = append(s.roots, id)
		if len(secrets) > 1 {
			s.pair = append(s.pair, id, 0)
		}
	}
	s.root = s.node.intern(s.pair)
}

// publish adds the scratch env's cache counts and the slot's counts
// since the last publish to the telemetry counters. The env never
// finishes an episode, so nothing else would.
func (s *memoSlot) publish() {
	s.sim.FlushTargetObs()
	obs.SearchSimulated.Add(uint64(s.simulated - s.published.simulated))
	obs.SearchNodes.Add(uint64(s.descends - s.published.descends))
	obs.SearchNodeMisses.Add(uint64(s.nodeMisses - s.published.nodeMisses))
	s.published = s.slotCounts
}
