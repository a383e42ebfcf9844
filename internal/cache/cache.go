package cache

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"autocat/internal/obs"
)

// Addr is a cache-line-granular address, a small integer exactly as in the
// paper's attack traces (e.g. "7→ 4→ 5→ v→ 7→ 5→ 4→ g").
type Addr int

// Eviction records one line being displaced by a fill, attributed to the
// domains involved. Detectors consume these to build conflict-miss event
// trains (CC-Hunter encodes victim-evicts-attacker as 0 and
// attacker-evicts-victim as 1).
type Eviction struct {
	Set           int
	EvictedAddr   Addr
	EvictedDomain Domain
	ByDomain      Domain
}

// Result describes the outcome of one access: whether it hit, the cycle
// latency charged, any evictions performed (demand fill plus prefetch
// fills), and the addresses the prefetcher pulled in.
//
// The Evictions and Prefetched slices alias scratch buffers owned by the
// cache: they are valid until the next operation on the same cache, and
// callers that retain them across operations must copy them first. This
// keeps Access allocation-free in steady state.
type Result struct {
	Hit        bool
	Latency    int
	Evictions  []Eviction
	Prefetched []Addr
	// StateChanged reports whether the access mutated any cache state at
	// all: a fill, an eviction, a replacement-metadata update (LRU age,
	// PLRU bit, RRPV), a prefetch fill, or a CEASER rekey triggered by the
	// access. A hit with StateChanged false is a pure read of state the
	// cache already held — the zero-alloc effect signal reward shaping
	// uses to classify no-op accesses.
	StateChanged bool
}

// line is one cache line: a tag (the full address at line granularity), the
// owning domain, and a PL-cache lock bit.
type line struct {
	valid  bool
	addr   Addr
	domain Domain
	locked bool
}

// Cache is a single-level cache simulator. It is not safe for concurrent
// use; every RL environment owns its own Cache.
//
// Data layout: lines are stored in one flat pointerless array indexed by
// set*ways+way, and replacement metadata lives in contiguous per-cache
// arrays inside the policy bank — no per-set allocations or interface
// pointers on the access path (see DESIGN.md "Hot path & data layout").
type Cache struct {
	cfg     Config
	mapping []int // RandomMapping: the set of each window address, else nil

	ways   int
	nsets  int
	lines  []line // flat across sets: index set*ways + way
	policy policyBank

	prefetch prefetcher

	// Index-mapping defense state (see defense.go). defense caches
	// cfg.Defense.Kind for branch-cheap hot-path dispatch; mapper is nil
	// unless the kind is CEASER or skew.
	defense     DefenseKind
	mapper      *indexMapper
	skewRng     *rand.Rand // skew victim-way selection stream
	victimWays  int        // partition: ways [0,victimWays) are victim-only; 0 = unpartitioned
	rekeyPeriod int        // ceaser: demand accesses per key epoch; 0 = never
	sinceRekey  int        // demand accesses since the last rekey
	migScratch  []migrant  // rekey migration scratch

	// Reusable scratch for allocation-free Access: eviction records,
	// prefetch candidates, and the eviction-eligibility mask.
	evScratch []Eviction
	pfScratch []Addr
	elScratch []bool

	// Telemetry accumulators: plain fields, not atomics — the cache is
	// single-goroutine (one per env), so the access hot path pays one
	// integer add and the totals migrate to the process-wide obs
	// registry in bulk (FlushObs: per completed env episode, or at the
	// first Reset past ObsBatch).
	obsAccesses uint64
	obsHits     uint64
	obsFlushes  uint64
	obsRekeys   uint64
}

// New builds a cache from cfg. It panics if cfg is invalid; use
// cfg.Validate first when handling untrusted configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:   cfg,
		ways:  cfg.NumWays,
		nsets: cfg.NumSets(),
	}
	c.lines = make([]line, c.nsets*c.ways)
	c.policy = newPolicyBank(cfg.Policy, c.nsets, c.ways, cfg.Seed)
	c.elScratch = make([]bool, c.ways)
	c.evScratch = make([]Eviction, 0, c.ways)
	c.pfScratch = make([]Addr, 0, 4)
	if cfg.RandomMapping {
		// Fixed random permutation over the configured address window;
		// the mapping is stable for the lifetime of the cache (§V-B
		// "fixed random address-to-set mapping"). Addresses outside the
		// window are a configuration error and panic in setIndex — they
		// must not silently bypass the permutation. The permutation is
		// reduced to set indices once, here, so a lookup is one load.
		n := cfg.AddrSpace
		if n == 0 {
			n = 4 * cfg.NumBlocks
		}
		c.mapping = rand.New(rand.NewSource(cfg.Seed + 0x3ab)).Perm(n)
		for i := range c.mapping {
			c.mapping[i] %= c.nsets
		}
	}
	c.defense = cfg.Defense.Kind
	switch c.defense {
	case DefenseCEASER:
		c.mapper = newIndexMapper(c.mapperWindow(), 1, c.nsets, cfg.Seed)
		c.rekeyPeriod = cfg.Defense.RekeyPeriod
		c.migScratch = make([]migrant, 0, c.nsets*c.ways)
	case DefenseSkew:
		c.mapper = newIndexMapper(c.mapperWindow(), c.ways, c.nsets, cfg.Seed)
		c.skewRng = rand.New(rand.NewSource(cfg.Seed + 0x5ca7))
	case DefensePartition:
		c.victimWays = cfg.Defense.VictimWays
	}
	c.prefetch = newPrefetcher(cfg.Prefetcher, cfg.AddrSpace)
	return c
}

// ReadsSeed reports whether New reads c.Seed: random replacement, the
// random mapping and the CEASER and skew index functions draw from it.
// A cache built from any other config behaves the same at every Seed.
func (c Config) ReadsSeed() bool {
	return c.Policy == Random || c.RandomMapping || c.Defense.Kind == DefenseCEASER || c.Defense.Kind == DefenseSkew
}

// mapperWindow is the address window the keyed index functions cover:
// the same window RandomMapping uses, [0, AddrSpace) or the default
// [0, 4×NumBlocks).
func (c *Cache) mapperWindow() int {
	if c.cfg.AddrSpace != 0 {
		return c.cfg.AddrSpace
	}
	return 4 * c.cfg.NumBlocks
}

// Config returns the configuration the cache was built with (with defaults
// applied).
func (c *Cache) Config() Config { return c.cfg }

// setIndex maps an address to its set. With RandomMapping or CEASER it is
// one load from the set-index table; addresses outside the table's window
// [0, AddrSpace) (default [0, 4×NumBlocks)) panic: mapping them linearly
// would quietly re-open the very set-contention structure the randomized
// cache is supposed to hide. The plain mapping is the address's floor
// modulo nsets.
func (c *Cache) setIndex(a Addr) int {
	x := int(a)
	if c.mapping != nil {
		if uint(x) >= uint(len(c.mapping)) {
			panic(windowError{"random-mapping", x, len(c.mapping)})
		}
		return c.mapping[x]
	}
	if c.defense == DefenseCEASER {
		return int(c.mapper.row(x)[0])
	}
	n := c.nsets
	return ((x % n) + n) % n
}

// set returns the flat slice of ways backing set si.
func (c *Cache) set(si int) []line {
	return c.lines[si*c.ways : (si+1)*c.ways]
}

// lookup returns the way holding addr in set si, or -1.
func (c *Cache) lookup(si int, a Addr) int {
	s := c.set(si)
	for w := range s {
		if s[w].valid && s[w].addr == a {
			return w
		}
	}
	return -1
}

// Access performs a demand access to addr by dom, updating replacement
// state and running the prefetcher. It returns the hit/miss outcome, the
// charged latency, and all evictions caused (including prefetch fills).
// The returned slices alias cache-owned scratch; see Result.
func (c *Cache) Access(a Addr, dom Domain) Result {
	rekeyed := false
	if c.rekeyPeriod > 0 {
		// CEASER epoch boundary: after every RekeyPeriod demand accesses
		// the key is redrawn before the next access proceeds, so the
		// access itself already sees the new mapping.
		if c.sinceRekey >= c.rekeyPeriod {
			c.rekeyNow()
			c.sinceRekey = 0
			rekeyed = true
		}
		c.sinceRekey++
	}
	c.evScratch = c.evScratch[:0]
	hit, changed := c.demand(a, dom)
	res := Result{Hit: hit, Latency: c.cfg.MissLatency, StateChanged: changed || rekeyed}
	c.obsAccesses++
	if hit {
		res.Latency = c.cfg.HitLatency
		c.obsHits++
	}
	pf := c.prefetch.after(a, c.pfScratch[:0])
	kept := pf[:0]
	for _, pa := range pf {
		if pa == a {
			continue
		}
		if c.fillOnly(pa, dom) {
			res.StateChanged = true
		}
		kept = append(kept, pa)
	}
	c.pfScratch = pf
	if len(kept) > 0 {
		res.Prefetched = kept
	}
	if len(c.evScratch) > 0 {
		res.Evictions = c.evScratch
	}
	return res
}

// demand performs the access itself without prefetching, appending any
// eviction to the scratch buffer. It reports whether the access hit and
// whether it changed any cache state. It returns two bools rather than a
// Result so the caller builds the Result once, in place.
func (c *Cache) demand(a Addr, dom Domain) (hit, changed bool) {
	if c.defense == DefenseSkew {
		if w, si := c.skewFind(a); w >= 0 {
			return true, c.policy.OnHit(si, w)
		}
		return false, c.installSkew(a, dom)
	}
	si := c.setIndex(a)
	if w := c.lookup(si, a); w >= 0 {
		return true, c.policy.OnHit(si, w)
	}
	return false, c.install(si, a, dom)
}

// fillOnly installs addr as a prefetch: a hit refreshes nothing (hardware
// prefetchers do not promote on hit in this model), a miss fills the line.
// It reports whether a fill actually happened.
func (c *Cache) fillOnly(a Addr, dom Domain) bool {
	if c.defense == DefenseSkew {
		if w, _ := c.skewFind(a); w < 0 {
			return c.installSkew(a, dom)
		}
		return false
	}
	si := c.setIndex(a)
	if c.lookup(si, a) >= 0 {
		return false
	}
	return c.install(si, a, dom)
}

// install places addr into set si, evicting if needed; a real displacement
// is appended to the eviction scratch. It reports whether the fill
// happened at all (false when every way is locked, or when the domain's
// way partition is fully locked). Under DefensePartition both the
// invalid-way scan and the eviction eligibility mask are confined to
// dom's ways, so one domain can never displace the other's lines.
func (c *Cache) install(si int, a Addr, dom Domain) bool {
	s := c.set(si)
	lo, hi := c.allowedWays(dom)
	// Prefer an invalid way (displaces nothing).
	for w := lo; w < hi; w++ {
		if !s[w].valid {
			s[w] = line{valid: true, addr: a, domain: dom}
			c.policy.OnFill(si, w)
			return true
		}
	}
	el := c.elScratch
	any := false
	for w := range s {
		el[w] = w >= lo && w < hi && !s[w].locked
		any = any || el[w]
	}
	if !any {
		// Fully locked set (PL cache): the access bypasses the cache.
		return false
	}
	w := c.policy.Victim(si, el)
	c.evScratch = append(c.evScratch, Eviction{
		Set:           si,
		EvictedAddr:   s[w].addr,
		EvictedDomain: s[w].domain,
		ByDomain:      dom,
	})
	s[w] = line{valid: true, addr: a, domain: dom}
	c.policy.OnFill(si, w)
	return true
}

// Flush removes addr from the cache if present (clflush). It reports
// whether the line was resident. Flushing ignores lock bits, matching
// clflush semantics on x86 (locked lines in the PL-cache threat model are
// only protected from the attacker's *eviction*, and the environment
// never exposes flush in PL-cache experiments).
func (c *Cache) Flush(a Addr) bool {
	c.obsFlushes++
	if c.defense == DefenseSkew {
		w, si := c.skewFind(a)
		if w < 0 {
			return false
		}
		c.lines[si*c.ways+w] = line{}
		return true
	}
	si := c.setIndex(a)
	w := c.lookup(si, a)
	if w < 0 {
		return false
	}
	c.set(si)[w] = line{}
	return true
}

// Lock pins addr in the cache (PL cache [72]). If the line is absent it is
// first installed for dom. A locked line is never chosen as an eviction
// victim.
func (c *Cache) Lock(a Addr, dom Domain) {
	if c.defense == DefenseSkew {
		w, si := c.skewFind(a)
		if w < 0 {
			if !c.installSkew(a, dom) {
				return // every candidate way locked; nothing to pin
			}
			w, si = c.skewFind(a)
		}
		c.lines[si*c.ways+w].locked = true
		return
	}
	si := c.setIndex(a)
	w := c.lookup(si, a)
	if w < 0 {
		c.install(si, a, dom)
		w = c.lookup(si, a)
		if w < 0 {
			return // set fully locked; nothing to pin
		}
	}
	c.set(si)[w].locked = true
}

// Unlock clears the lock bit of addr if it is resident.
func (c *Cache) Unlock(a Addr) {
	if c.defense == DefenseSkew {
		if w, si := c.skewFind(a); w >= 0 {
			c.lines[si*c.ways+w].locked = false
		}
		return
	}
	si := c.setIndex(a)
	if w := c.lookup(si, a); w >= 0 {
		c.set(si)[w].locked = false
	}
}

// Contains reports whether addr is resident, without touching replacement
// state (a "tag probe" used by tests and the attack classifier).
func (c *Cache) Contains(a Addr) bool {
	if c.defense == DefenseSkew {
		w, _ := c.skewFind(a)
		return w >= 0
	}
	si := c.setIndex(a)
	return c.lookup(si, a) >= 0
}

// SetOf returns the set index addr maps to. Under DefenseSkew there is
// no single set — each way has its own index function — so SetOf reports
// the way-0 set, a stable representative that detectors can still use
// to coarsely group conflicting accesses.
func (c *Cache) SetOf(a Addr) int {
	if c.defense == DefenseSkew {
		return c.skewSet(a, 0)
	}
	return c.setIndex(a)
}

// PolicyState exposes the replacement metadata of one set (LRU ages, PLRU
// bits, RRPVs), as drawn in the paper's Figure 4(d).
func (c *Cache) PolicyState(si int) []int { return c.policy.State(si) }

// Reset invalidates every line, clears lock bits, resets replacement state
// and the prefetcher. The random policy's RNG stream is NOT reset, so
// consecutive episodes see fresh randomness (a new seed requires a new
// cache). The defense key schedule follows the same rule: the current
// CEASER key, the key-derivation stream, AND the rekey access counter
// all persist across Reset — hardware rekeys on wall-clock access
// counts, not on the attacker's episode boundaries, so episodes shorter
// than the rekey period still face a mapping that drifts between (and
// within) episodes rather than a silently static key.
func (c *Cache) Reset() {
	if c.obsAccesses+c.obsFlushes >= ObsBatch {
		c.FlushObs()
	}
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.policy.Reset()
	c.prefetch.reset()
}

// ObsBatch is the number of local accesses plus flushes at which Reset
// publishes the telemetry counts on its own. Envs publish at every
// completed episode (FlushObs); the batch bounds what a flow that never
// completes one — the re-simulating search scan resets once per secret
// per candidate — holds back, and keeps the shared atomics off its
// per-candidate path.
const ObsBatch = 1024

// FlushObs migrates the locally-accumulated telemetry counts into the
// process-wide registry and zeroes them. Publishing in bulk keeps the
// access path free of atomics; counts below a batch from a cache that is
// dropped without a final FlushObs are lost, which lossy telemetry
// tolerates.
func (c *Cache) FlushObs() {
	if c.obsAccesses == 0 && c.obsFlushes == 0 && c.obsRekeys == 0 {
		return
	}
	if obs.Enabled() {
		obs.CacheAccesses.Add(c.obsAccesses)
		obs.CacheHits.Add(c.obsHits)
		obs.CacheMisses.Add(c.obsAccesses - c.obsHits)
		obs.CacheFlushes.Add(c.obsFlushes)
		obs.CacheRekeys.Add(c.obsRekeys)
	}
	c.obsAccesses, c.obsHits, c.obsFlushes, c.obsRekeys = 0, 0, 0, 0
}

// ResidentAddrs lists all resident addresses in ascending order, a
// convenience for tests and invariant checks.
func (c *Cache) ResidentAddrs() []Addr {
	var out []Addr
	for i := range c.lines {
		if c.lines[i].valid {
			out = append(out, c.lines[i].addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders a compact dump of the cache contents for debugging:
// one row per set, "addr(domain initial, lock flag)" per way.
func (c *Cache) String() string {
	var b strings.Builder
	for si := 0; si < c.nsets; si++ {
		fmt.Fprintf(&b, "set %d:", si)
		for _, ln := range c.set(si) {
			if !ln.valid {
				b.WriteString(" [--]")
				continue
			}
			lock := ""
			if ln.locked {
				lock = "*"
			}
			fmt.Fprintf(&b, " [%d%c%s]", ln.addr, ln.domain.String()[0], lock)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
