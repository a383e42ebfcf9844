// Package covert implements the LRU-state covert channels of §V-E on top
// of the cache simulator plus a cycle-level timing model: the LRU
// address-based channel of Xiong & Szefer (the paper's baseline) and the
// StealthyStreamline channel AutoCAT discovered (Figure 4), generalized
// from the 4-way construction to 8- and 12-way sets, in 2-bit and 3-bit
// variants.
//
// The paper measures these channels on four real Intel machines; we run
// the same access protocols against a simulated cache set and charge
// cycles from a per-machine cost model (access latencies, RDTSCP
// measurement overhead, synchronization guard time). Absolute bit rates
// are calibration, but the structural claims — StealthyStreamline beats
// the LRU address-based channel at low error rates, with a larger margin
// on 12-way caches because a smaller fraction of its accesses need timing
// measurement — emerge from the protocol access counts.
package covert

import (
	"fmt"
	"math/rand"

	"autocat/internal/cache"
	"autocat/internal/rng"
)

// RoundResult reports one transmitted symbol.
type RoundResult struct {
	Sent       int
	Decoded    int
	Accesses   int // total memory accesses this round
	Measured   int // accesses that needed a timing measurement
	VictimMiss bool
	Cycles     int // modelled cycle cost (excluding guard time)
}

// Channel is a covert-channel protocol transmitting fixed-width symbols
// through one cache set.
type Channel interface {
	// SymbolBits returns the number of bits per transmitted symbol.
	SymbolBits() int
	// Round transmits one symbol and returns the decode outcome.
	Round(symbol int) RoundResult
	// Reset re-initializes the cache set.
	Reset()
}

// ChannelConfig sizes an LRU-state channel.
type ChannelConfig struct {
	// Ways is the associativity of the targeted set.
	Ways int
	// SymbolBits selects 2-bit (4 candidate lines) or 3-bit (8 candidate
	// lines) symbols. Default 2.
	SymbolBits int
	// Policy is the replacement policy of the simulated set; real-machine
	// L1s use tree-PLRU, which is where the 3-bit variant's errors come
	// from (§V-E). Default PLRU.
	Policy cache.PolicyKind
	// Timing is the machine cost model; zero value uses DefaultTiming.
	Timing Timing
	// NoiseEvict is the per-access probability that outside interference
	// evicts a random resident line (OS noise on a real machine).
	NoiseEvict float64
	// Seed drives the noise process.
	Seed int64
}

func (c ChannelConfig) withDefaults() (ChannelConfig, error) {
	if c.SymbolBits == 0 {
		c.SymbolBits = 2
	}
	if c.SymbolBits != 2 && c.SymbolBits != 3 {
		return c, fmt.Errorf("covert: SymbolBits must be 2 or 3, got %d", c.SymbolBits)
	}
	if c.Policy == "" {
		c.Policy = cache.PLRU
	}
	if c.Ways < (1<<c.SymbolBits)+1 {
		return c, fmt.Errorf("covert: %d-bit symbols need at least %d ways, got %d",
			c.SymbolBits, (1<<c.SymbolBits)+1, c.Ways)
	}
	if c.Timing == (Timing{}) {
		c.Timing = DefaultTiming()
	}
	return c, nil
}

// Timing is the per-machine cycle cost model.
type Timing struct {
	HitCycles     int // L1 hit latency
	MissCycles    int // fill-from-L2 latency
	MeasureCycles int // RDTSCP fencing overhead per measured access
	GuardCycles   int // per-symbol synchronization guard time
	FreqGHz       float64
}

// DefaultTiming returns a generic modern-core cost model.
func DefaultTiming() Timing {
	return Timing{HitCycles: 4, MissCycles: 20, MeasureCycles: 34, GuardCycles: 460, FreqGHz: 3.5}
}

// lruChannelState is the shared machinery of both channels: a single
// cache set, candidate lines, alternating fresh-line pools, and a noise
// process.
type lruChannelState struct {
	cfg        ChannelConfig
	c          *cache.Cache
	candidates []cache.Addr
	pools      [2][]cache.Addr
	pool       int
	rng        *rand.Rand
	cycles     int
	accesses   int
	measured   int
}

func newState(cfg ChannelConfig) (*lruChannelState, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	k := 1 << cfg.SymbolBits
	s := &lruChannelState{
		cfg: cfg,
		c: cache.New(cache.Config{
			NumBlocks: cfg.Ways,
			NumWays:   cfg.Ways, // one fully indexed set
			Policy:    cfg.Policy,
			Seed:      cfg.Seed,
		}),
		rng: rand.New(rng.New(cfg.Seed + 0xc0e)),
	}
	for i := 0; i < k; i++ {
		s.candidates = append(s.candidates, cache.Addr(i))
	}
	next := cache.Addr(k)
	for p := 0; p < 2; p++ {
		for i := 0; i < cfg.Ways-1; i++ {
			s.pools[p] = append(s.pools[p], next)
			next++
		}
	}
	s.reset()
	return s, nil
}

func (s *lruChannelState) reset() {
	s.c.Reset()
	s.pool = 0
	for _, a := range s.candidates {
		s.access(a, cache.DomainAttacker, false)
	}
	s.cycles, s.accesses, s.measured = 0, 0, 0
}

// access performs one access, charges cycles, applies the noise process,
// and returns the hit/miss outcome.
func (s *lruChannelState) access(a cache.Addr, dom cache.Domain, measure bool) bool {
	if s.cfg.NoiseEvict > 0 && s.rng.Float64() < s.cfg.NoiseEvict {
		// Outside interference evicts a random candidate or fresh line.
		res := s.c.ResidentAddrs()
		if len(res) > 0 {
			s.c.Flush(res[s.rng.Intn(len(res))])
		}
	}
	r := s.c.Access(a, dom)
	s.accesses++
	if r.Hit {
		s.cycles += s.cfg.Timing.HitCycles
	} else {
		s.cycles += s.cfg.Timing.MissCycles
	}
	if measure {
		s.measured++
		s.cycles += s.cfg.Timing.MeasureCycles
	}
	return r.Hit
}

// takeCounters returns and clears the per-round counters.
func (s *lruChannelState) takeCounters() (cycles, accesses, measured int) {
	cycles, accesses, measured = s.cycles, s.accesses, s.measured
	s.cycles, s.accesses, s.measured = 0, 0, 0
	return
}
