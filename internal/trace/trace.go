// Package trace generates synthetic memory-access traces that stand in for
// the SPEC2017 workloads the paper uses as benign training data for the
// Cyclone SVM detector (§V-D). The generators reproduce the access-pattern
// families that dominate benign programs — sequential scans, strided
// array walks, pointer chases, and zipf-skewed random accesses — so the
// per-interval cyclic-interference features the detector consumes have the
// same benign distribution (low cross-domain cyclic counts).
package trace

import (
	"math"
	"math/rand"

	"autocat/internal/cache"
	"autocat/internal/rng"
)

// Access is one trace element: a domain-attributed address.
type Access struct {
	Dom  cache.Domain
	Addr cache.Addr
}

// Pattern names a single-program access pattern.
type Pattern string

// Available benign access patterns.
const (
	Sequential   Pattern = "sequential"
	Strided      Pattern = "strided"
	PointerChase Pattern = "pointerchase"
	Zipf         Pattern = "zipf"
)

// Patterns lists every generator, for tests and mixture sampling.
var Patterns = []Pattern{Sequential, Strided, PointerChase, Zipf}

// Program emits the address stream of one synthetic program over a
// working-set address range.
type Program struct {
	pattern Pattern
	lo, hi  cache.Addr
	rng     *rand.Rand

	pos    cache.Addr
	stride cache.Addr
	chain  []cache.Addr
	zipfCD []float64
}

// NewProgram builds a generator for the given pattern over the inclusive
// address range [lo, hi].
func NewProgram(pattern Pattern, lo, hi cache.Addr, seed int64) *Program {
	if hi < lo {
		hi = lo
	}
	p := &Program{pattern: pattern, lo: lo, hi: hi, rng: rand.New(rng.New(seed))}
	n := int(hi - lo + 1)
	switch pattern {
	case Strided:
		p.stride = cache.Addr(1 + p.rng.Intn(3))
	case PointerChase:
		// A single Hamiltonian cycle through the working set so the
		// chase touches every address before repeating.
		perm := p.rng.Perm(n)
		p.chain = make([]cache.Addr, n)
		for i := 0; i < n; i++ {
			p.chain[perm[i]] = lo + cache.Addr(perm[(i+1)%n])
		}
	case Zipf:
		// Precompute the zipf(s=1.2) CDF over the working set.
		cdf := make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			total += 1 / math.Pow(float64(i+1), 1.2)
			cdf[i] = total
		}
		for i := range cdf {
			cdf[i] /= total
		}
		p.zipfCD = cdf
	}
	p.pos = lo
	return p
}

// Next returns the program's next address.
func (p *Program) Next() cache.Addr {
	n := p.hi - p.lo + 1
	switch p.pattern {
	case Sequential:
		a := p.pos
		p.pos = p.lo + (p.pos-p.lo+1)%n
		return a
	case Strided:
		a := p.pos
		p.pos = p.lo + (p.pos-p.lo+p.stride)%n
		return a
	case PointerChase:
		a := p.pos
		p.pos = p.chain[int(a-p.lo)]
		return a
	case Zipf:
		u := p.rng.Float64()
		for i, c := range p.zipfCD {
			if u <= c {
				return p.lo + cache.Addr(i)
			}
		}
		return p.hi
	default:
		return p.lo + cache.Addr(p.rng.Intn(int(n)))
	}
}

// BenignConfig describes a two-program benign co-running workload.
type BenignConfig struct {
	// Length is the total number of interleaved accesses.
	Length int
	// AddrSpace is the shared address-space size; each program gets a
	// working set inside it with a small random overlap, the way two
	// benign processes share a cache without adversarial contention.
	AddrSpace int
	// Seed drives pattern choice, working-set placement, and interleaving.
	Seed int64
}

// Benign generates an interleaved two-domain benign trace. Domains reuse
// the attacker/victim identifiers because the detector only distinguishes
// "two different security domains sharing a cache".
func Benign(cfg BenignConfig) []Access {
	if cfg.Length <= 0 {
		cfg.Length = 1024
	}
	if cfg.AddrSpace <= 4 {
		cfg.AddrSpace = 16
	}
	rng := rand.New(rng.New(cfg.Seed))
	half := cfg.AddrSpace / 2
	// Working sets overlap by at most 1 address: benign programs mostly
	// keep to their own pages.
	overlap := rng.Intn(2)
	progA := NewProgram(Patterns[rng.Intn(len(Patterns))], 0, cache.Addr(half-1+overlap), cfg.Seed+1)
	progB := NewProgram(Patterns[rng.Intn(len(Patterns))], cache.Addr(half-overlap), cache.Addr(cfg.AddrSpace-1), cfg.Seed+2)
	out := make([]Access, 0, cfg.Length)
	for len(out) < cfg.Length {
		// Benign schedulers run programs in long quanta, not lock-step
		// interleavings: each program touches its sets many times per
		// burst, which is what keeps benign cyclic-interference counts
		// low relative to a prime+probe ping-pong.
		burst := 8 + rng.Intn(17)
		dom, prog := cache.DomainAttacker, progA
		if rng.Intn(2) == 1 {
			dom, prog = cache.DomainVictim, progB
		}
		for i := 0; i < burst && len(out) < cfg.Length; i++ {
			out = append(out, Access{Dom: dom, Addr: prog.Next()})
		}
	}
	return out
}

// BenignSuite generates n independent benign traces with distinct seeds,
// the stand-in for a SPEC2017 benchmark suite.
func BenignSuite(n int, cfg BenignConfig) [][]Access {
	out := make([][]Access, n)
	for i := range out {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		out[i] = Benign(c)
	}
	return out
}
