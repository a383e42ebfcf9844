package cache

// HierarchyConfig describes the two-level configuration used by Table IV
// configs 16-17: per-core private L1 caches in front of a shared inclusive
// L2. The victim and the attacker each run on their own core.
type HierarchyConfig struct {
	Cores int
	L1    Config // private, one instance per core
	L2    Config // shared, inclusive
	// L2HitLatency is the cycle cost of an L1 miss that hits in L2.
	// Zero defaults to 12.
	L2HitLatency int
}

// Validate checks both level configs and the core count.
func (h HierarchyConfig) Validate() error {
	if h.Cores <= 0 {
		h.Cores = 1
	}
	if err := h.L1.Validate(); err != nil {
		return err
	}
	return h.L2.Validate()
}

// Hierarchy is an inclusive two-level cache: an L2 eviction back-invalidates
// every L1 copy, which is exactly the cross-core eviction channel the
// prime+probe attack in config 16-17 exploits.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  *Cache
}

// NewHierarchy builds the hierarchy; it panics on invalid configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 {
		cfg.Cores = 2
	}
	if cfg.L2HitLatency == 0 {
		cfg.L2HitLatency = 12
	}
	h := &Hierarchy{cfg: cfg, l2: New(cfg.L2)}
	for i := 0; i < cfg.Cores; i++ {
		l1cfg := cfg.L1
		l1cfg.Seed = cfg.L1.Seed + int64(i)
		h.l1 = append(h.l1, New(l1cfg))
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Access performs a demand access by core. The reported Hit is true only
// when the access is served without going to memory (L1 or L2 hit); the
// attacker's hit/miss observation therefore distinguishes a DRAM access
// from any cache hit, which is the signal prime+probe needs.
func (h *Hierarchy) Access(core int, a Addr, dom Domain) Result {
	l1 := h.l1[core]
	r1 := l1.Access(a, dom)
	if r1.Hit {
		return Result{Hit: true, Latency: l1.cfg.HitLatency, StateChanged: r1.StateChanged}
	}
	r2 := h.l2.Access(a, dom)
	res := Result{Hit: r2.Hit, Evictions: r2.Evictions,
		StateChanged: r1.StateChanged || r2.StateChanged}
	if r2.Hit {
		res.Latency = h.cfg.L2HitLatency
	} else {
		res.Latency = h.l2.cfg.MissLatency
	}
	// Inclusion: anything evicted from L2 must leave every L1.
	for _, ev := range r2.Evictions {
		if ev.EvictedAddr >= 0 {
			for _, l1c := range h.l1 {
				l1c.Flush(ev.EvictedAddr)
			}
		}
	}
	return res
}

// Flush removes addr from every level (clflush is coherent).
func (h *Hierarchy) Flush(a Addr) bool {
	present := h.l2.Flush(a)
	for _, l1 := range h.l1 {
		if l1.Flush(a) {
			present = true
		}
	}
	return present
}

// L1 returns core's private first-level cache.
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// Cores returns the number of per-core L1 caches.
func (h *Hierarchy) Cores() int { return len(h.l1) }

// L2 returns the shared second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Reset restores all levels to the power-on state.
func (h *Hierarchy) Reset() {
	for _, l1 := range h.l1 {
		l1.Reset()
	}
	h.l2.Reset()
}

// FlushObs publishes every level's local telemetry counts.
func (h *Hierarchy) FlushObs() {
	for _, l1 := range h.l1 {
		l1.FlushObs()
	}
	h.l2.FlushObs()
}
