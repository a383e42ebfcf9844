package search

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"autocat/internal/cache"
	"autocat/internal/env"
	"autocat/internal/obs"
)

// The transition memo. On a replay-deterministic env a cache set is a
// Mealy machine: a secret's next signature character and state are a
// pure function of its state (the env's replay key: secret plus cache
// contents) and the action, never of the candidate length or of the
// job's seed. So one memo serves every length a Searcher searches, and
// every later searcher of the same config: a transition simulated, or a
// joint node refined, at one length or in one job is a table lookup at
// the next.
//
// The memo keeps one slot of tables per worker: worker i of every
// search on the Searcher uses slot i, so workers never share a table
// and need no locks.

// memoBuffers is one entry of the memo pool: a walker searcher's slots
// (their tables, roots and scratch envs, that is its memo), its
// random-search generator and its candidate buffer. NewSearcher checks
// an entry out for the searcher's exclusive use and Release files it
// back. A slot's tables grow to about a megabyte, and allocating them
// afresh for every job of a screening campaign cost it about a quarter
// of its throughput, most of it in garbage collection.
type memoBuffers struct {
	key   env.Config // the memo's pool key (memoKey); zero on a spare
	slots []*memoSlot
	src   rand.Source
	cands []int

	bytes      int          // the slots' table capacity while filed
	prev, next *memoBuffers // the pool's recency list
}

// memoPoolCap bounds the table bytes the pool keeps filed. A variable
// only so tests can set it.
var memoPoolCap = 128 << 20

// memoPool is the process-wide pool of released memos. Filed entries
// sit on one list, least recently used first. A keyed entry holds the
// memo of its key's config; a spare holds buffers only (an emptied
// memo, or a scan's generator and candidate buffer) and is filed at the
// least recently used end, so a miss takes a spare before it empties a
// memo.
type memoPool struct {
	mu    sync.Mutex
	list  memoBuffers                   // sentinel: list.next is the least recently used entry
	byKey map[env.Config][]*memoBuffers // keyed entries, oldest first
	bytes int
}

var memos = newMemoPool()

func newMemoPool() *memoPool {
	p := &memoPool{byKey: map[env.Config][]*memoBuffers{}}
	p.list.prev, p.list.next = &p.list, &p.list
	return p
}

// memoKey is the pool key of e's walker memo: its config with the seeds
// the memo never reads zeroed, or the zero config, which nothing
// matches, where memos cannot be shared. Under the walker gate the
// env's Seed feeds only the secret draw, which the memo overrides with
// ForceSecret, and warm-up, which is off. The cache's Seed is zeroed
// only where the cache never reads it (cache.Config.ReadsSeed): a
// static CEASER key or a random mapping passes the gate, and a memo of
// one seed's mapping is wrong for another's, even though every seed's
// roots (an empty cache and a secret) look alike. Only simulator
// targets without a detector are keyed; a config holding a NaN never
// equals itself and is not keyed either.
func memoKey(e *env.Env) env.Config {
	cfg := e.Config()
	if cfg.Target != nil || cfg.Detector != nil {
		return env.Config{}
	}
	cfg.Seed = 0
	if !cfg.Cache.ReadsSeed() {
		cfg.Cache.Seed = 0
	}
	if cfg != cfg {
		return env.Config{}
	}
	return cfg
}

// checkout takes an entry for a new searcher. A walker takes the most
// recently filed entry of its key: a hit, memo intact. On a miss it
// takes the least recently used entry, emptied, when that is a spare or
// when one more entry of its size would pass memoPoolCap (an eviction),
// and new buffers otherwise. A scan takes a spare or new buffers.
func (p *memoPool) checkout(key env.Config, walk bool) *memoBuffers {
	p.mu.Lock()
	defer p.mu.Unlock()
	if walk {
		if es := p.byKey[key]; len(es) > 0 {
			b := es[len(es)-1]
			p.remove(b)
			obs.SearchMemoPoolHits.Inc()
			return b
		}
		obs.SearchMemoPoolMisses.Inc()
	}
	b := p.list.next
	switch {
	case b == &p.list:
		b = new(memoBuffers)
	case b.key == (env.Config{}):
		p.remove(b)
	case walk && p.bytes+b.bytes > memoPoolCap:
		p.remove(b)
		obs.SearchMemoPoolEvictions.Inc()
	default:
		b = new(memoBuffers)
	}
	if walk {
		b.empty()
	}
	b.key = key
	return b
}

// file files a released entry: a walker memo at the most recently used
// end under its key, anything else as a spare. It then evicts least
// recently used entries while the pool's tables pass memoPoolCap.
func (p *memoPool) file(b *memoBuffers) {
	if len(b.slots) == 0 {
		b.key = env.Config{}
	}
	b.bytes = 0
	for _, sl := range b.slots {
		b.bytes += sl.state.bytes() + sl.node.bytes()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	at := &p.list // a spare goes after the sentinel, a memo before it
	if b.key != (env.Config{}) {
		at = p.list.prev
		p.byKey[b.key] = append(p.byKey[b.key], b)
	}
	b.prev, b.next = at, at.next
	at.next.prev = b
	at.next = b
	p.bytes += b.bytes
	for p.bytes > memoPoolCap {
		p.remove(p.list.next)
		obs.SearchMemoPoolEvictions.Inc()
	}
	obs.SearchMemoPoolBytes.Set(int64(p.bytes))
}

// remove unlinks filed entry b.
func (p *memoPool) remove(b *memoBuffers) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
	p.bytes -= b.bytes
	if b.key != (env.Config{}) {
		es := p.byKey[b.key]
		if es = slices.DeleteFunc(es, func(x *memoBuffers) bool { return x == b }); len(es) == 0 {
			delete(p.byKey, b.key)
		} else {
			p.byKey[b.key] = es
		}
	}
	obs.SearchMemoPoolBytes.Set(int64(p.bytes))
}

// EmptyMemoPool forgets every filed memo and keeps the buffers, so the
// next searchers start cold, as the first searcher of a config does.
// Benchmarks of a cold memo call it between operations.
func EmptyMemoPool() {
	p := memos
	p.mu.Lock()
	defer p.mu.Unlock()
	for b := p.list.next; b != &p.list; b = b.next {
		b.key = env.Config{}
	}
	clear(p.byKey)
}

// empty forgets the entry's memo and keeps its buffers: every slot's
// tables are emptied and its scratch env dropped, so the next walkers
// rebuild the slot for their own config.
func (b *memoBuffers) empty() {
	for _, sl := range b.slots {
		sl.state.reset()
		sl.node.reset()
		sl.sim = nil
	}
}

// Release files the searcher's memo and buffers in the pool for the
// searchers built later, and leaves the searcher empty. On a walker the
// slots go in under the config's key with their tables, roots and
// scratch envs intact, so the next searcher of the same config starts
// warm. Call it when an exploration is done.
func (s *Searcher) Release() {
	s.bufs.slots = s.slots
	memos.file(s.bufs)
	s.slots, s.bufs = nil, new(memoBuffers)
}

// walkers returns n walkers of the given length, walker i on slot i,
// creating the slots it lacks and readying emptied ones for the
// searcher's config.
func (s *Searcher) walkers(n, length int) []*walker {
	for i := len(s.slots); i < n; i++ {
		seed := maphash.MakeSeed()
		s.slots = append(s.slots, &memoSlot{slotTables: slotTables{
			state: newInternTable[byte, edge](func(b []byte) uint64 { return maphash.Bytes(seed, b) }),
			node:  newInternTable[int32, int32](hashPairs),
		}})
	}
	ws := make([]*walker, n)
	for i, sl := range s.slots[:n] {
		if sl.sim == nil {
			sim, err := s.e.Sibling()
			if err != nil {
				panic(fmt.Sprintf("search: walker on a non-simulator target: %v", err))
			}
			sl.sim = sim
			sl.state.width, sl.node.width = len(s.pool), len(s.pool)
		}
		ws[i] = newWalker(s, sl, length)
	}
	return ws
}

// source returns the searcher's random-search generator, seeded with
// seed: the source of rand.New(rand.NewSource(seed)).
func (s *Searcher) source(seed int64) rand.Source {
	if s.bufs.src == nil {
		s.bufs.src = rand.NewSource(seed)
	} else {
		s.bufs.src.Seed(seed)
	}
	return s.bufs.src
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
	simulated  int // Step calls run on state-edge misses
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

// bytes is the capacity of the table's arrays in bytes.
func (t *internTable[K, V]) bytes() int {
	var k K
	var v V
	return cap(t.arena)*int(unsafe.Sizeof(k)) + 4*cap(t.offs) + 4*cap(t.index) + cap(t.vals)*int(unsafe.Sizeof(v))
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

// simulate fills edge k, action a from state id, with one Step on
// the scratch env.
func (s *memoSlot) simulate(id int32, a, k int) {
	s.sim.LoadReplayState(s.key(id))
	s.sim.Step(a) // one step from step 0 never reaches MaxSteps
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
