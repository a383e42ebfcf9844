package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefenseConfigValidate(t *testing.T) {
	base := Config{NumBlocks: 8, NumWays: 4}
	withDef := func(d DefenseConfig, mut ...func(*Config)) Config {
		c := base
		c.Defense = d
		for _, m := range mut {
			m(&c)
		}
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"none", withDef(DefenseConfig{}), true},
		{"ceaser", withDef(DefenseConfig{Kind: DefenseCEASER}), true},
		{"ceaser rekey", withDef(DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: 64}), true},
		{"skew", withDef(DefenseConfig{Kind: DefenseSkew}), true},
		{"partition", withDef(DefenseConfig{Kind: DefensePartition}), true},
		{"partition explicit ways", withDef(DefenseConfig{Kind: DefensePartition, VictimWays: 1}), true},
		{"unknown kind", withDef(DefenseConfig{Kind: "scramble"}), false},
		{"negative rekey", withDef(DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: -1}), false},
		{"rekey without ceaser", withDef(DefenseConfig{Kind: DefenseSkew, RekeyPeriod: 64}), false},
		{"victim ways without partition", withDef(DefenseConfig{Kind: DefenseCEASER, VictimWays: 2}), false},
		{"partition eats every way", withDef(DefenseConfig{Kind: DefensePartition, VictimWays: 4}), false},
		{"partition on direct mapped", withDef(DefenseConfig{Kind: DefensePartition}, func(c *Config) { c.NumWays = 1 }), false},
		{"ceaser plus random mapping", withDef(DefenseConfig{Kind: DefenseCEASER}, func(c *Config) { c.RandomMapping = true; c.AddrSpace = 32 }), false},
		{"skew plus random mapping", withDef(DefenseConfig{Kind: DefenseSkew}, func(c *Config) { c.RandomMapping = true; c.AddrSpace = 32 }), false},
		{"ceaser prefetcher no window", withDef(DefenseConfig{Kind: DefenseCEASER}, func(c *Config) { c.Prefetcher = NextLine }), false},
		{"ceaser prefetcher with window", withDef(DefenseConfig{Kind: DefenseCEASER}, func(c *Config) { c.Prefetcher = NextLine; c.AddrSpace = 32 }), true},
		{"partition prefetcher no window", withDef(DefenseConfig{Kind: DefensePartition}, func(c *Config) { c.Prefetcher = NextLine; c.AddrSpace = 32 }), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want validation error, got nil")
			}
		})
	}
}

func TestPartitionVictimWaysDefault(t *testing.T) {
	c := New(Config{NumBlocks: 8, NumWays: 4, Defense: DefenseConfig{Kind: DefensePartition}})
	if c.victimWays != 2 {
		t.Fatalf("VictimWays defaulted to %d, want NumWays/2 = 2", c.victimWays)
	}
	if got := c.Config().Defense.VictimWays; got != 2 {
		t.Fatalf("Config() reports VictimWays %d, want 2", got)
	}
}

// checkPermutation asserts one index function maps the window
// injectively, which bounds every set's load at ceil(window/nsets): no
// two addresses can collide beyond way capacity within one key epoch.
func checkPermutation(t *testing.T, label string, window, nsets int, setOf func(Addr) int) {
	t.Helper()
	perSet := make([]int, nsets)
	for a := 0; a < window; a++ {
		si := setOf(Addr(a))
		if si < 0 || si >= nsets {
			t.Fatalf("%s: address %d maps to set %d outside [0,%d)", label, a, si, nsets)
		}
		perSet[si]++
	}
	limit := (window + nsets - 1) / nsets
	for si, n := range perSet {
		if n > limit {
			t.Fatalf("%s: set %d receives %d addresses, permutation bound is %d", label, si, n, limit)
		}
	}
}

// TestCEASERMappingIsPermutationPerEpoch: across several rekeys, each
// epoch's index function is a permutation of the window and gives every
// address the set that the reference shuffle of that epoch gives it,
// reduced mod nsets.
func TestCEASERMappingIsPermutationPerEpoch(t *testing.T) {
	for _, g := range setIndexGeometries {
		for seed := int64(0); seed < 20; seed++ {
			c := New(Config{NumBlocks: g.sets * g.ways, NumWays: g.ways, AddrSpace: g.window, Seed: seed,
				Defense: DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: 16}})
			rng := rand.New(rand.NewSource(seed + 0xcea5e))
			for epoch := 0; epoch < 4; epoch++ {
				label := fmt.Sprintf("ceaser %+v seed %d epoch %d", g, seed, epoch)
				checkPermutation(t, label, g.window, c.nsets, c.SetOf)
				perm := refFisherYates(rng, g.window)
				for a := 0; a < g.window; a++ {
					if got, want := c.setIndex(Addr(a)), floorMod(perm[a], g.sets); got != want {
						t.Fatalf("%s: address %d in set %d, want %d", label, a, got, want)
					}
				}
				c.rekeyNow()
			}
		}
	}
}

// TestSkewMappingIsPermutationPerWay: every way's index function is a
// permutation of the window and gives every address the set of that
// way's reference shuffle, reduced mod nsets; the ways' functions differ.
func TestSkewMappingIsPermutationPerWay(t *testing.T) {
	for _, g := range setIndexGeometries {
		for seed := int64(0); seed < 20; seed++ {
			c := New(Config{NumBlocks: g.sets * g.ways, NumWays: g.ways, AddrSpace: g.window, Seed: seed,
				Defense: DefenseConfig{Kind: DefenseSkew}})
			rng := rand.New(rand.NewSource(seed + 0xcea5e))
			for w := 0; w < g.ways; w++ {
				w := w
				label := fmt.Sprintf("skew %+v seed %d way %d", g, seed, w)
				checkPermutation(t, label, g.window, c.nsets, func(a Addr) int { return c.skewSet(a, w) })
				perm := refFisherYates(rng, g.window)
				for a := 0; a < g.window; a++ {
					if got, want := c.skewSet(Addr(a), w), floorMod(perm[a], g.sets); got != want {
						t.Fatalf("%s: address %d in set %d, want %d", label, a, got, want)
					}
				}
			}
		}
	}
	c := New(Config{NumBlocks: 8, NumWays: 4, AddrSpace: 32,
		Defense: DefenseConfig{Kind: DefenseSkew}})
	// Per-way functions must actually differ somewhere, or the skew
	// degenerates into a plain keyed remap.
	differs := false
	for a := Addr(0); a < 32 && !differs; a++ {
		for w := 1; w < c.ways; w++ {
			if c.skewSet(a, w) != c.skewSet(a, 0) {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Fatal("every way shares one index function; skew is not skewed")
	}
}

func TestCEASERRekeyChangesMapping(t *testing.T) {
	c := New(Config{NumBlocks: 8, NumWays: 2, AddrSpace: 64,
		Defense: DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: 8}})
	before := make([]int, 64)
	for a := range before {
		before[a] = c.SetOf(Addr(a))
	}
	c.rekeyNow()
	changed := 0
	for a := range before {
		if c.SetOf(Addr(a)) != before[a] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("rekey left the address→set mapping identical")
	}
}

// TestCEASERRekeyMigratesOrInvalidates drives accesses across a rekey
// boundary and checks the migration contract: every line still resident
// after the rekey sits in the set its address now maps to, lines never
// duplicate, and the resident population never grows.
func TestCEASERRekeyMigratesOrInvalidates(t *testing.T) {
	c := New(Config{NumBlocks: 8, NumWays: 2, AddrSpace: 32, Seed: 3,
		Defense: DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: 1 << 30}})
	for a := Addr(0); a < 8; a++ {
		c.Access(a, DomainAttacker)
	}
	resident := len(c.ResidentAddrs())
	epoch := c.KeyEpoch()
	c.rekeyNow()
	if c.KeyEpoch() != epoch+1 {
		t.Fatalf("epoch %d after rekey, want %d", c.KeyEpoch(), epoch+1)
	}
	after := c.ResidentAddrs()
	if len(after) > resident {
		t.Fatalf("rekey grew the resident population %d → %d", resident, len(after))
	}
	c.checkLineLocations(t)
	for _, a := range after {
		if !c.Contains(a) {
			t.Fatalf("resident address %d unfindable after rekey", a)
		}
	}
}

// checkLineLocations asserts the location invariant for every resident
// line: under way-uniform mappings a line lives in setIndex(addr); under
// skew, a line in way w lives in skewSet(addr, w).
func (c *Cache) checkLineLocations(t *testing.T) {
	t.Helper()
	for si := 0; si < c.nsets; si++ {
		for w, ln := range c.set(si) {
			if !ln.valid {
				continue
			}
			want := si
			if c.defense == DefenseSkew {
				if got := c.skewSet(ln.addr, w); got != want {
					t.Fatalf("skew line %d at set %d way %d, but h_%d maps it to %d", ln.addr, si, w, w, got)
				}
				continue
			}
			if got := c.setIndex(ln.addr); got != want {
				t.Fatalf("line %d resident in set %d but maps to set %d", ln.addr, si, got)
			}
		}
	}
}

func TestCEASERRekeyAtPeriodBoundary(t *testing.T) {
	period := 16
	c := New(Config{NumBlocks: 8, NumWays: 2, AddrSpace: 32, Seed: 5,
		Defense: DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: period}})
	for i := 0; i < 3*period; i++ {
		c.Access(Addr(i%32), DomainAttacker)
		// The rekey fires at the start of the first access past each
		// period, so after access i the epoch is floor(i/period).
		if want := i / period; c.KeyEpoch() != want {
			t.Fatalf("after access %d: epoch %d, want %d", i, c.KeyEpoch(), want)
		}
	}
	c.checkLineLocations(t)
	// Reset keeps the key AND the access counter: the rekey schedule is
	// wall-clock (access-count) driven, not episode driven, so episodes
	// shorter than the period still see the mapping drift. After 3×period
	// accesses the counter sits at a boundary; half a period more, a
	// Reset, and half a period again must still cross into the next epoch.
	c.Access(0, DomainAttacker) // absorb the rekey pending at the loop's boundary
	epoch := c.KeyEpoch()
	c.Reset()
	if c.KeyEpoch() != epoch {
		t.Fatalf("Reset moved the key epoch %d → %d", epoch, c.KeyEpoch())
	}
	for i := 0; i < period/2; i++ {
		c.Access(Addr(i%32), DomainAttacker)
	}
	c.Reset()
	for i := 0; i < period/2; i++ {
		c.Access(Addr(i%32), DomainAttacker)
	}
	c.Access(0, DomainAttacker)
	if c.KeyEpoch() != epoch+1 {
		t.Fatalf("rekey counter was rewound by Reset: epoch %d after period+1 accesses spanning a Reset, want %d", c.KeyEpoch(), epoch+1)
	}
}

func TestCEASERRekeyPreservesLocks(t *testing.T) {
	c := New(Config{NumBlocks: 4, NumWays: 4, AddrSpace: 16, Seed: 9,
		Defense: DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: 1 << 30}})
	c.Lock(3, DomainVictim)
	for i := 0; i < 8; i++ {
		c.rekeyNow()
		if !c.Contains(3) {
			// The line may be invalidated only when its new set was full;
			// with a near-empty cache it must survive every rekey.
			t.Fatalf("locked line evaporated on rekey %d from a near-empty cache", i)
		}
	}
	si := c.SetOf(3)
	w := c.lookup(si, 3)
	if w < 0 || !c.set(si)[w].locked {
		t.Fatal("lock bit lost across rekey migration")
	}
}

// Property: way partitioning must never let one domain evict the
// other's lines — attacker (and unattributed) fills stay out of victim
// ways and vice versa, under arbitrary op interleavings.
func TestPropertyPartitionNeverCrossEvicts(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{NumBlocks: 16, NumWays: 4, Policy: LRU,
			Defense: DefenseConfig{Kind: DefensePartition, VictimWays: 2}})
		for _, op := range ops {
			a := Addr(op % 64)
			dom := Domain(op / 64 % 3)
			var res Result
			if op%11 == 0 {
				c.Flush(a)
			} else {
				res = c.Access(a, dom)
			}
			for _, ev := range res.Evictions {
				victimSide := ev.ByDomain == DomainVictim
				evictedVictim := ev.EvictedDomain == DomainVictim
				if victimSide != evictedVictim {
					return false
				}
			}
		}
		// Structural check: victim-installed lines only in ways [0,2),
		// everything else only in ways [2,4).
		for si := 0; si < c.nsets; si++ {
			for w, ln := range c.set(si) {
				if !ln.valid {
					continue
				}
				if (ln.domain == DomainVictim) != (w < 2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSharedAddressStillHits(t *testing.T) {
	c := New(Config{NumBlocks: 4, NumWays: 2, Defense: DefenseConfig{Kind: DefensePartition, VictimWays: 1}})
	if r := c.Access(0, DomainVictim); r.Hit {
		t.Fatal("cold access hit")
	}
	// Partitioning restricts fills and evictions, not tag lookup: the
	// attacker touching the shared line hits in the victim's way (the
	// flush+reload channel partitioning alone does not close).
	if r := c.Access(0, DomainAttacker); !r.Hit {
		t.Fatal("attacker access to the victim-resident shared line should hit")
	}
}

func TestSkewLineLocationInvariant(t *testing.T) {
	c := New(Config{NumBlocks: 8, NumWays: 4, AddrSpace: 32, Seed: 7,
		Defense: DefenseConfig{Kind: DefenseSkew}})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		a := Addr(rng.Intn(32))
		switch rng.Intn(8) {
		case 0:
			c.Flush(a)
		case 1:
			c.Lock(a, DomainVictim)
		case 2:
			c.Unlock(a)
		default:
			c.Access(a, Domain(1+rng.Intn(2)))
		}
		if i%97 == 0 {
			c.checkLineLocations(t)
		}
	}
	c.checkLineLocations(t)
}

func TestSkewNoDuplicateResidency(t *testing.T) {
	c := New(Config{NumBlocks: 8, NumWays: 4, AddrSpace: 32, Seed: 11,
		Defense: DefenseConfig{Kind: DefenseSkew}})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		c.Access(Addr(rng.Intn(32)), Domain(1+rng.Intn(2)))
	}
	seen := map[Addr]int{}
	for i := range c.lines {
		if c.lines[i].valid {
			seen[c.lines[i].addr]++
		}
	}
	for a, n := range seen {
		if n > 1 {
			t.Fatalf("address %d resident in %d lines", a, n)
		}
	}
}

// Defended Access must stay allocation-free in steady state, including
// across CEASER rekey boundaries (the rekey period here guarantees many
// rekeys inside the sampling window).
func TestDefenseAccessZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		def  DefenseConfig
	}{
		{"ceaser", DefenseConfig{Kind: DefenseCEASER}},
		{"ceaser_rekey", DefenseConfig{Kind: DefenseCEASER, RekeyPeriod: 32}},
		{"skew", DefenseConfig{Kind: DefenseSkew}},
		{"partition", DefenseConfig{Kind: DefensePartition}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{NumBlocks: 16, NumWays: 4, AddrSpace: 64, Seed: 13, Defense: tc.def})
			for a := Addr(0); a < 64; a++ {
				c.Access(a, DomainAttacker)
			}
			i := 0
			avg := testing.AllocsPerRun(1000, func() {
				c.Access(Addr(i%64), Domain(1+i%2))
				i++
			})
			if avg != 0 {
				t.Fatalf("defended Access allocates %.2f objects per call in steady state, want 0", avg)
			}
		})
	}
}

func TestDefendedOutOfWindowPanics(t *testing.T) {
	for _, kind := range []DefenseKind{DefenseCEASER, DefenseSkew} {
		t.Run(string(kind), func(t *testing.T) {
			for _, a := range []Addr{16, -1, 1 << 20} {
				func() {
					c := New(Config{NumBlocks: 4, NumWays: 2, AddrSpace: 16, Defense: DefenseConfig{Kind: kind}})
					defer func() {
						p := recover()
						if p == nil {
							t.Fatalf("out-of-window access to %d must panic, not bypass the keyed mapping", a)
						}
						want := fmt.Sprintf("cache: address %d outside the keyed-mapping window [0,16); set AddrSpace to cover every address", a)
						if got := fmt.Sprint(p); got != want {
							t.Fatalf("access to %d panicked with %q, want %q", a, got, want)
						}
					}()
					c.Access(a, DomainAttacker)
				}()
			}
		})
	}
}

// FuzzDefenseOps drives arbitrary op interleavings against every
// defense kind and checks the structural invariants the defenses pin:
// line-location consistency, no duplicate residency, and the partition
// containment property.
func FuzzDefenseOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0))
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 9, 9, 9, 31}, uint8(1))
	f.Add([]byte{1, 1, 1, 1, 250, 130, 7, 66, 200, 12}, uint8(2))
	f.Add([]byte{0, 64, 128, 192, 255, 33, 99}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, kindSel uint8) {
		defs := []DefenseConfig{
			{},
			{Kind: DefenseCEASER, RekeyPeriod: 5},
			{Kind: DefenseSkew},
			{Kind: DefensePartition, VictimWays: 1},
		}
		def := defs[int(kindSel)%len(defs)]
		c := New(Config{NumBlocks: 8, NumWays: 2, Policy: LRU, AddrSpace: 32, Seed: 17, Defense: def})
		for _, op := range ops {
			a := Addr(op % 32)
			dom := Domain(1 + op%2)
			switch op % 7 {
			case 5:
				c.Flush(a)
			case 6:
				c.Lock(a, dom)
				c.Unlock(a)
			default:
				res := c.Access(a, dom)
				if def.Kind == DefensePartition {
					for _, ev := range res.Evictions {
						if (ev.ByDomain == DomainVictim) != (ev.EvictedDomain == DomainVictim) {
							t.Fatalf("cross-partition eviction: %+v", ev)
						}
					}
				}
				if !c.Contains(a) && def.Kind != DefensePartition {
					// Only a fully locked target can reject the fill, and
					// this fuzz body always unlocks right after locking.
					t.Fatalf("freshly accessed address %d not resident", a)
				}
			}
		}
		c.checkLineLocations(t)
		seen := map[Addr]bool{}
		for i := range c.lines {
			if !c.lines[i].valid {
				continue
			}
			if seen[c.lines[i].addr] {
				t.Fatalf("address %d resident twice", c.lines[i].addr)
			}
			seen[c.lines[i].addr] = true
		}
	})
}
