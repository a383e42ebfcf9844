// Package hw simulates the "real hardware" side of the paper's Table III
// experiments: black-box cache levels on Intel processors whose
// replacement policies are undocumented, accessed through a
// CacheQuery-style one-set timing oracle with realistic measurement noise.
//
// Substitution note (see DESIGN.md): the paper drives CacheQuery [70]
// against SkyLake / KabyLake / CoffeeLake parts. We cannot run on that
// silicon, so each part is modelled as a hidden cache.Config — L1s use
// tree-PLRU (documented behaviour), L2/L3 "Not Officially Documented"
// policies are modelled as RRIP variants, which are deterministic but
// distinct from textbook LRU, so the agent genuinely has to adapt rather
// than replay a known attack. Noise flips a small fraction of latency
// observations, which is why Table III accuracies sit slightly below 1.0.
package hw

import (
	"fmt"
	"math/rand"

	"autocat/internal/cache"
	"autocat/internal/rng"
)

// Spec describes one black-box cache level of a simulated machine.
type Spec struct {
	CPU    string
	Level  string // "L1", "L2", "L3"
	Ways   int
	Policy cache.PolicyKind // hidden from the agent; exposed for reporting
	// AttackerAddrs is the attacker address-range size used in Table III
	// for this row (e.g. 16 for "0-15").
	AttackerAddrs int
	// NoiseFlip is the probability that one latency observation is
	// misread (hit reported as miss or vice versa).
	NoiseFlip float64
}

// Table3Specs returns the machine rows of Table III. The 8-way rows are
// the expensive ones (the paper trains them for hours); Small selects the
// 4-way rows only.
func Table3Specs() []Spec {
	return []Spec{
		{CPU: "Core i7-6700 (SkyLake)", Level: "L1", Ways: 8, Policy: cache.PLRU, AttackerAddrs: 16, NoiseFlip: 0.001},
		{CPU: "Core i7-6700 (SkyLake)", Level: "L2", Ways: 4, Policy: cache.RRIP, AttackerAddrs: 9, NoiseFlip: 0.001},
		{CPU: "Core i7-6700 (SkyLake)", Level: "L3", Ways: 4, Policy: cache.RRIP, AttackerAddrs: 9, NoiseFlip: 0.001},
		{CPU: "Core i7-7700K (KabyLake)", Level: "L3", Ways: 4, Policy: cache.RRIP, AttackerAddrs: 9, NoiseFlip: 0.002},
		{CPU: "Core i7-7700K (KabyLake)", Level: "L3", Ways: 8, Policy: cache.RRIP, AttackerAddrs: 16, NoiseFlip: 0.002},
		{CPU: "Core i7-9700 (CoffeeLake)", Level: "L1", Ways: 8, Policy: cache.PLRU, AttackerAddrs: 16, NoiseFlip: 0.001},
		{CPU: "Core i7-9700 (CoffeeLake)", Level: "L2", Ways: 4, Policy: cache.RRIP, AttackerAddrs: 9, NoiseFlip: 0.001},
	}
}

// SmallSpecs returns the Table III rows with 4-way sets, the ones a
// CPU-budget reproduction can train end-to-end.
func SmallSpecs() []Spec {
	var out []Spec
	for _, s := range Table3Specs() {
		if s.Ways <= 4 {
			out = append(out, s)
		}
	}
	return out
}

// BlackBox is a simulated black-box cache set implementing env.Target: the
// agent sees only hit/miss observations (with flip noise); the replacement
// policy inside is hidden.
type BlackBox struct {
	spec Spec
	c    *cache.Cache
	rng  *rand.Rand
	seed int64
}

// NewBlackBox builds the simulated machine level. CacheQuery exposes a
// single cache set, so the box is one Ways-wide set.
func NewBlackBox(spec Spec, seed int64) (*BlackBox, error) {
	if spec.Ways <= 0 {
		return nil, fmt.Errorf("hw: spec needs positive way count")
	}
	cfg := cache.Config{
		NumBlocks: spec.Ways,
		NumWays:   spec.Ways,
		Policy:    spec.Policy,
		Seed:      seed,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &BlackBox{spec: spec, c: cache.New(cfg), rng: rand.New(rng.New(seed + 0xb1ac)), seed: seed}, nil
}

// Spec returns the (hidden) machine description, for reporting only.
func (b *BlackBox) Spec() Spec { return b.spec }

// Access performs one timed access; the reported hit/miss is flipped with
// probability NoiseFlip, modelling timer jitter on the real part.
func (b *BlackBox) Access(a cache.Addr, dom cache.Domain) cache.Result {
	r := b.c.Access(a, dom)
	if b.spec.NoiseFlip > 0 && b.rng.Float64() < b.spec.NoiseFlip {
		r.Hit = !r.Hit
		if r.Hit {
			r.Latency = 4
		} else {
			r.Latency = 100
		}
	}
	return r
}

// Flush removes the line (clflush is available on all the Table III
// parts, though the Table III configurations do not use it).
func (b *BlackBox) Flush(a cache.Addr) bool { return b.c.Flush(a) }

// SetOf reports set 0: CacheQuery exposes exactly one set.
func (b *BlackBox) SetOf(cache.Addr) int { return 0 }

// Reset restores the power-on state (the noise RNG keeps advancing, as on
// a real machine).
func (b *BlackBox) Reset() { b.c.Reset() }

// FlushObs publishes the box's local cache telemetry counts (the
// env.ObsFlusher extension).
func (b *BlackBox) FlushObs() { b.c.FlushObs() }

// Op is one batched CacheQuery operation: an access to Addr, optionally
// timed.
type Op struct {
	Addr  cache.Addr
	Timed bool
}

// Query executes a batch of accesses against the box and returns the
// latencies of the timed ones, mirroring CacheQuery's batch interface
// ("we execute all instructions in an episode together as a batch",
// §IV-C). The batch runs attacker-attributed.
func (b *BlackBox) Query(ops []Op) []int {
	var out []int
	for _, op := range ops {
		r := b.Access(op.Addr, cache.DomainAttacker)
		if op.Timed {
			out = append(out, r.Latency)
		}
	}
	return out
}
