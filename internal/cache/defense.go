package cache

import (
	"fmt"
	"math/rand"
)

// DefenseKind names an index-mapping/partitioning defense on the cache's
// set-lookup path. These are the randomized and partitioned cache
// families the paper attacks in §V: defenses that break the fixed
// address→set→way structure classical eviction attacks rely on.
type DefenseKind string

// Defenses available in Config.Defense.Kind.
const (
	// DefenseNone is the undefended baseline.
	DefenseNone DefenseKind = ""
	// DefenseCEASER applies a keyed permutation to addresses before set
	// indexing and periodically re-keys it (CEASER-style remapping).
	// Every Defense.RekeyPeriod demand accesses the permutation is
	// redrawn; resident lines whose set changes migrate to their new set
	// when it has a free way and are invalidated otherwise.
	DefenseCEASER DefenseKind = "ceaser"
	// DefenseSkew gives every way its own keyed index function
	// (ScatterCache-style skewed multi-hash): a line may live in way w
	// only at set h_w(addr), so no two addresses share a full eviction
	// set unless they collide in every way.
	DefenseSkew DefenseKind = "skew"
	// DefensePartition statically partitions the ways between the
	// security domains (DAWG/CAT-style): the victim fills and evicts
	// only ways [0, VictimWays), every other domain only the rest.
	DefensePartition DefenseKind = "partition"
)

// DefenseConfig selects and parameterizes an index-mapping defense.
// The zero value is the undefended baseline and marshals to nothing, so
// pre-defense campaign job IDs are unchanged.
type DefenseConfig struct {
	// Kind selects the defense.
	Kind DefenseKind
	// RekeyPeriod is the number of demand accesses per key epoch for
	// DefenseCEASER. Zero keeps the epoch-0 key forever (a static keyed
	// mapping); it is invalid for other kinds.
	RekeyPeriod int
	// VictimWays is the number of ways reserved for the victim domain
	// under DefensePartition (ways [0, VictimWays)); zero defaults to
	// NumWays/2. It is invalid for other kinds.
	VictimWays int
}

// validate checks the defense block against the cache geometry it will
// run on. It is called from Config.Validate with pre-default values.
func (d DefenseConfig) validate(c Config) error {
	switch d.Kind {
	case DefenseNone, DefenseCEASER, DefenseSkew, DefensePartition:
	default:
		return fmt.Errorf("cache: unknown defense %q", d.Kind)
	}
	if d.RekeyPeriod < 0 {
		return fmt.Errorf("cache: negative rekey period %d", d.RekeyPeriod)
	}
	if d.RekeyPeriod > 0 && d.Kind != DefenseCEASER {
		return fmt.Errorf("cache: RekeyPeriod applies only to the %q defense, got kind %q", DefenseCEASER, d.Kind)
	}
	if d.VictimWays != 0 && d.Kind != DefensePartition {
		return fmt.Errorf("cache: VictimWays applies only to the %q defense, got kind %q", DefensePartition, d.Kind)
	}
	switch d.Kind {
	case DefenseCEASER, DefenseSkew:
		if c.RandomMapping {
			return fmt.Errorf("cache: defense %q already randomizes the index; combining it with RandomMapping is a configuration error", d.Kind)
		}
		if c.AddrSpace == 0 {
			switch c.Prefetcher {
			case "", NoPrefetch:
			default:
				return fmt.Errorf("cache: defense %q with prefetcher %q needs an explicit AddrSpace so prefetch targets stay inside the keyed-mapping window", d.Kind, c.Prefetcher)
			}
		}
	case DefensePartition:
		if c.NumWays < 2 {
			return fmt.Errorf("cache: way partitioning needs at least 2 ways, got %d", c.NumWays)
		}
		if d.VictimWays < 0 || d.VictimWays >= c.NumWays {
			return fmt.Errorf("cache: VictimWays %d must leave both domains at least one way of %d", d.VictimWays, c.NumWays)
		}
	}
	return nil
}

// indexMapper holds the keyed index functions of the CEASER and skew
// defenses over the address window [0, window): one shared by all ways
// (CEASER) or one per way (skew). The table holds set indices, not
// addresses: each function is a Fisher–Yates permutation of the window,
// reduced mod nsets once when drawn, so a lookup is one load with no
// division. It is laid out by address, so the sets one address has under
// every function (skew's candidate sets, one per way) are contiguous and
// one window check covers them all. The table is preallocated and
// refilled in place on rekey, so the set-lookup path and the rekey itself
// are allocation-free and bit-deterministic for a given Seed.
type indexMapper struct {
	window int
	funcs  int
	nsets  int
	sets   []int32 // window × funcs: sets[x*funcs+f] is function f's set for x
	rng    *rand.Rand
	epoch  int
}

// newIndexMapper builds the mapper and draws the epoch-0 keys from its
// own RNG stream (independent of the replacement-policy stream).
func newIndexMapper(window, funcs, nsets int, seed int64) *indexMapper {
	m := &indexMapper{
		window: window,
		funcs:  funcs,
		nsets:  nsets,
		sets:   make([]int32, window*funcs),
		rng:    rand.New(rand.NewSource(seed + 0xcea5e)),
	}
	for f := 0; f < funcs; f++ {
		m.fill(f)
	}
	return m
}

// fill redraws index function f in place: a fresh Fisher–Yates
// permutation of the window, reduced mod nsets. The swaps depend only on
// the RNG draws, so starting from i mod nsets instead of i and making the
// same swaps yields exactly the permutation reduced mod nsets.
func (m *indexMapper) fill(f int) {
	n := m.funcs
	for i := 0; i < m.window; i++ {
		m.sets[i*n+f] = int32(i % m.nsets)
	}
	for i := m.window - 1; i > 0; i-- {
		j := m.rng.Intn(i + 1)
		m.sets[i*n+f], m.sets[j*n+f] = m.sets[j*n+f], m.sets[i*n+f]
	}
}

// row returns the set every index function gives address x, indexed by
// function. Addresses outside the window panic for the same reason
// RandomMapping's do: falling back to linear indexing would quietly
// re-open the set-contention structure the keyed mapping is supposed to
// hide.
func (m *indexMapper) row(x int) []int32 {
	if uint(x) >= uint(m.window) {
		panic(windowError{"keyed-mapping", x, m.window})
	}
	return m.sets[x*m.funcs : (x+1)*m.funcs]
}

// windowError is the panic value of a keyed or random mapping lookup
// outside its window. It formats only when printed, which keeps the
// lookups small enough to inline.
type windowError struct {
	mapping      string
	addr, window int
}

func (e windowError) Error() string {
	return fmt.Sprintf("cache: address %d outside the %s window [0,%d); set AddrSpace to cover every address", e.addr, e.mapping, e.window)
}

// rekey advances to the next key epoch, redrawing index function 0 (the
// CEASER remap; skew caches never rekey in this model).
func (m *indexMapper) rekey() {
	m.epoch++
	m.fill(0)
}

// migrant is one resident line displaced by a rekey, queued for
// re-installation at its new set.
type migrant struct {
	addr   Addr
	domain Domain
	locked bool
}

// rekeyNow redraws the CEASER key and walks every resident line: lines
// whose set index is unchanged stay put, lines whose set moved migrate
// to a free way of their new set and are invalidated when the new set is
// full. Rekey migration never evicts bystander lines and emits no
// Eviction records — the remap is invisible to detectors, matching
// hardware where the gradual CEASER remap is not attributable to any
// security domain.
func (c *Cache) rekeyNow() {
	c.obsRekeys++
	c.mapper.rekey()
	mig := c.migScratch[:0]
	for si := 0; si < c.nsets; si++ {
		s := c.set(si)
		for w := range s {
			if !s[w].valid {
				continue
			}
			if c.setIndex(s[w].addr) != si {
				mig = append(mig, migrant{addr: s[w].addr, domain: s[w].domain, locked: s[w].locked})
				s[w] = line{}
			}
		}
	}
	c.migScratch = mig
	for _, mv := range mig {
		si := c.setIndex(mv.addr)
		s := c.set(si)
		for w := range s {
			if !s[w].valid {
				s[w] = line{valid: true, addr: mv.addr, domain: mv.domain, locked: mv.locked}
				c.policy.OnFill(si, w)
				break
			}
		}
	}
}

// KeyEpoch reports the current CEASER key epoch (0 before the first
// rekey, and always 0 for other defenses). Tests and diagnostics use it;
// the RL agent never observes it.
func (c *Cache) KeyEpoch() int {
	if c.mapper == nil {
		return 0
	}
	return c.mapper.epoch
}

// skewSet returns the set index addr maps to in way w under the skewed
// multi-hash mapping.
func (c *Cache) skewSet(a Addr, w int) int {
	return int(c.mapper.row(int(a))[w])
}

// skewFind locates addr under the skewed mapping, returning its (way,
// set) or (-1, -1).
func (c *Cache) skewFind(a Addr) (way, set int) {
	for w, si := range c.mapper.row(int(a)) {
		ln := &c.lines[int(si)*c.ways+w]
		if ln.valid && ln.addr == a {
			return w, int(si)
		}
	}
	return -1, -1
}

// installSkew places addr under the skewed mapping: a free candidate way
// wins (in way order), otherwise a uniformly random unlocked candidate
// is evicted — ScatterCache's random way selection, drawn from a
// dedicated RNG stream so the replacement policy's stream is untouched.
// Replacement metadata is still updated so PolicyState stays meaningful.
func (c *Cache) installSkew(a Addr, dom Domain) bool {
	row := c.mapper.row(int(a))
	for w, si := range row {
		ln := &c.lines[int(si)*c.ways+w]
		if !ln.valid {
			*ln = line{valid: true, addr: a, domain: dom}
			c.policy.OnFill(int(si), w)
			return true
		}
	}
	el := c.elScratch
	n := 0
	for w, si := range row {
		el[w] = !c.lines[int(si)*c.ways+w].locked
		if el[w] {
			n++
		}
	}
	if n == 0 {
		return false // every candidate way is locked: bypass, as in PL sets
	}
	k := c.skewRng.Intn(n)
	for w, si := range row {
		if !el[w] {
			continue
		}
		if k > 0 {
			k--
			continue
		}
		ln := &c.lines[int(si)*c.ways+w]
		c.evScratch = append(c.evScratch, Eviction{
			Set:           int(si),
			EvictedAddr:   ln.addr,
			EvictedDomain: ln.domain,
			ByDomain:      dom,
		})
		*ln = line{valid: true, addr: a, domain: dom}
		c.policy.OnFill(int(si), w)
		return true
	}
	return false
}

// allowedWays returns the half-open way interval dom may fill and evict.
// Without partitioning every domain owns every way; under
// DefensePartition the victim owns [0, VictimWays) and everything else
// (attacker, prefetcher, warm-up) the remainder — the untrusted side of
// the DAWG-style partition.
func (c *Cache) allowedWays(dom Domain) (lo, hi int) {
	if c.victimWays == 0 {
		return 0, c.ways
	}
	if dom == DomainVictim {
		return 0, c.victimWays
	}
	return c.victimWays, c.ways
}
