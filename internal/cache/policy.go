package cache

import "math/rand"

// policyBank is the replacement-policy state machine for every set of one
// cache. All policy metadata (LRU ages, PLRU tree bits, RRPV counters)
// lives in one contiguous per-cache array indexed by set, so the hot path
// touches flat memory instead of chasing a per-set interface pointer. Way
// indexes are 0-based positions within a set.
type policyBank interface {
	// OnHit updates policy state after a hit in the given way of set. It
	// reports whether any metadata actually changed — false means the hit
	// was a replacement-state no-op (the line was already in the position
	// the policy would move it to), the signal reward shaping uses to
	// classify useless accesses.
	OnHit(set, way int) bool
	// OnFill updates policy state after a new line is installed.
	OnFill(set, way int)
	// Victim returns the way to evict in set when every candidate way is
	// valid. The mask reports which ways are eligible (unlocked); at
	// least one entry is true. Victim must return an eligible way and
	// must not retain the mask.
	Victim(set int, eligible []bool) int
	// Reset restores the power-on policy state of every set.
	Reset()
	// State copies the raw policy metadata of one set (LRU ages, PLRU
	// tree bits, RRPVs) for diagrams such as the paper's Figure 4(d).
	State(set int) []int
	// metaInts exposes the bank's flat mutable metadata array (LRU ages,
	// PLRU bits, RRPVs) for the replay key. Banks without metadata
	// (random replacement) return nil. Callers read or overwrite it in
	// place; they never retain or resize the slice.
	metaInts() []int
}

// newPolicyBank constructs the bank named by kind for nsets sets of the
// given associativity. Only the random policy draws from a source, so
// only it builds one (seeded from the cache seed); the other policies
// are deterministic and pay for no generator.
func newPolicyBank(kind PolicyKind, nsets, ways int, seed int64) policyBank {
	switch kind {
	case PLRU:
		return newPLRUBank(nsets, ways)
	case RRIP:
		return newRRIPBank(nsets, ways)
	case Random:
		return &randomBank{ways: ways, rng: rand.New(rand.NewSource(seed + 0x5eed))}
	default:
		return newLRUBank(nsets, ways)
	}
}

// lruBank implements true LRU. ages[set*ways+w] is the recency rank of
// way w: 0 is most recently used, ways-1 is least recently used. Each
// set's ages always form a permutation of 0..ways-1.
type lruBank struct {
	ways int
	ages []int
}

func newLRUBank(nsets, ways int) *lruBank {
	p := &lruBank{ways: ways, ages: make([]int, nsets*ways)}
	p.Reset()
	return p
}

func (p *lruBank) touch(set, way int) bool {
	ages := p.ages[set*p.ways : (set+1)*p.ways]
	old := ages[way]
	if old == 0 {
		return false // already MRU: touching changes nothing
	}
	for w := range ages {
		if ages[w] < old {
			ages[w]++
		}
	}
	ages[way] = 0
	return true
}

func (p *lruBank) OnHit(set, way int) bool { return p.touch(set, way) }
func (p *lruBank) OnFill(set, way int)     { p.touch(set, way) }

func (p *lruBank) Victim(set int, eligible []bool) int {
	ages := p.ages[set*p.ways : (set+1)*p.ways]
	victim, worst := -1, -1
	for w, age := range ages {
		if eligible[w] && age > worst {
			victim, worst = w, age
		}
	}
	return victim
}

func (p *lruBank) Reset() {
	for s := 0; s < len(p.ages); s += p.ways {
		ages := p.ages[s : s+p.ways]
		for w := range ages {
			ages[w] = p.ways - 1 - w
		}
	}
}

func (p *lruBank) State(set int) []int {
	out := make([]int, p.ways)
	copy(out, p.ages[set*p.ways:(set+1)*p.ways])
	return out
}

// plruBank implements tree-based pseudo-LRU: per set, a binary tree of
// ways-1 bits stored contiguously in heap order (children of node i are
// 2i+1 and 2i+2). Each internal node bit points toward the
// pseudo-least-recently-used half (0 = left subtree is colder, 1 = right
// subtree is colder). On an access the bits along the path are flipped to
// point away from the touched way.
type plruBank struct {
	ways int
	bits []int // stride ways-1 per set
}

func newPLRUBank(nsets, ways int) *plruBank {
	return &plruBank{ways: ways, bits: make([]int, nsets*(ways-1))}
}

func (p *plruBank) update(set, way int) bool {
	bits := p.bits[set*(p.ways-1) : (set+1)*(p.ways-1)]
	// Walk from the root to the leaf, setting each bit to point away from
	// the accessed way.
	changed := false
	node, lo, hi := 0, 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			changed = changed || bits[node] != 1
			bits[node] = 1 // accessed left, cold side is right
			node, hi = 2*node+1, mid
		} else {
			changed = changed || bits[node] != 0
			bits[node] = 0 // accessed right, cold side is left
			node, lo = 2*node+2, mid
		}
	}
	return changed
}

func (p *plruBank) OnHit(set, way int) bool { return p.update(set, way) }
func (p *plruBank) OnFill(set, way int)     { p.update(set, way) }

// Victim follows the cold-pointer bits from the root. If the indicated
// way is ineligible (locked), it falls back to the first eligible way in
// tree order.
func (p *plruBank) Victim(set int, eligible []bool) int {
	if w := p.follow(set); eligible[w] {
		return w
	}
	for w := range eligible {
		if eligible[w] {
			return w
		}
	}
	return -1
}

func (p *plruBank) follow(set int) int {
	bits := p.bits[set*(p.ways-1) : (set+1)*(p.ways-1)]
	node, lo, hi := 0, 0, p.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] == 0 {
			node, hi = 2*node+1, mid
		} else {
			node, lo = 2*node+2, mid
		}
	}
	return lo
}

func (p *plruBank) Reset() {
	for i := range p.bits {
		p.bits[i] = 0
	}
}

func (p *plruBank) State(set int) []int {
	out := make([]int, p.ways-1)
	copy(out, p.bits[set*(p.ways-1):(set+1)*(p.ways-1)])
	return out
}

// rripBank implements 2-bit static RRIP [26]: each way keeps a
// re-reference prediction value (RRPV) in 0..3. New lines are installed
// with RRPV 2 ("long re-reference interval"); a hit promotes the line to
// RRPV 0. The victim is a way with RRPV 3; if none exists, all RRPVs age
// until one reaches 3.
type rripBank struct {
	ways int
	rrpv []int
}

const rripMax = 3
const rripInsert = 2

func newRRIPBank(nsets, ways int) *rripBank {
	p := &rripBank{ways: ways, rrpv: make([]int, nsets*ways)}
	p.Reset()
	return p
}

func (p *rripBank) OnHit(set, way int) bool {
	changed := p.rrpv[set*p.ways+way] != 0
	p.rrpv[set*p.ways+way] = 0
	return changed
}
func (p *rripBank) OnFill(set, way int) { p.rrpv[set*p.ways+way] = rripInsert }

func (p *rripBank) Victim(set int, eligible []bool) int {
	rrpv := p.rrpv[set*p.ways : (set+1)*p.ways]
	for {
		for w, v := range rrpv {
			if eligible[w] && v == rripMax {
				return w
			}
		}
		// Age every line and retry; locked lines age too, matching
		// hardware where the SRRIP aging sweep is oblivious to locks.
		for w := range rrpv {
			if rrpv[w] < rripMax {
				rrpv[w]++
			}
		}
	}
}

func (p *rripBank) Reset() {
	for i := range p.rrpv {
		p.rrpv[i] = rripMax
	}
}

func (p *rripBank) State(set int) []int {
	out := make([]int, p.ways)
	copy(out, p.rrpv[set*p.ways:(set+1)*p.ways])
	return out
}

// randomBank evicts a uniformly random eligible way, modelling the
// pseudo-random replacement found in ARM cores and studied in Table VI.
// All sets share the cache's RNG stream, exactly as the per-set policies
// shared it before the bank refactor.
type randomBank struct {
	ways int
	rng  *rand.Rand
}

// OnHit reports false: random replacement keeps no recency metadata, so
// a hit never changes policy state.
func (p *randomBank) OnHit(int, int) bool { return false }
func (p *randomBank) OnFill(int, int)     {}

func (p *randomBank) Victim(set int, eligible []bool) int {
	n := 0
	for _, e := range eligible {
		if e {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := p.rng.Intn(n)
	for w, e := range eligible {
		if e {
			if k == 0 {
				return w
			}
			k--
		}
	}
	return -1
}

func (p *randomBank) Reset() {}

func (p *randomBank) State(int) []int { return nil }

// metaInts implementations back the replay key: each returns the bank's
// live flat metadata slice, which Cache.AppendReplayState encodes and
// LoadReplayState overwrites in place.

func (p *lruBank) metaInts() []int    { return p.ages }
func (p *plruBank) metaInts() []int   { return p.bits }
func (p *rripBank) metaInts() []int   { return p.rrpv }
func (p *randomBank) metaInts() []int { return nil }
