package cache

import (
	"math/rand"
	"testing"
)

// floorMod is the reference set reduction: x mod n in [0, n) for any x.
func floorMod(x, n int) int { return ((x % n) + n) % n }

// refFisherYates draws one index function the way the keyed mappings
// did before their tables held set indices: the identity permutation of
// the window, shuffled in place by Fisher–Yates from rng.
func refFisherYates(rng *rand.Rand, window int) []int {
	p := make([]int, window)
	for i := range p {
		p[i] = i
	}
	for i := window - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// setIndexGeometries are the (sets, ways, window) shapes that the
// set-index tests here and the keyed-mapping permutation tests sweep:
// power-of-two and other set counts, windows that are and are not
// multiples of the set count.
var setIndexGeometries = []struct{ sets, ways, window int }{
	{1, 2, 4}, {2, 2, 7}, {3, 2, 12}, {4, 2, 16}, {3, 1, 13}, {8, 2, 32}, {6, 4, 30}, {4, 8, 32}, {2, 4, 32},
}

// TestRandomMappingSetMatchesReducedPermutation: the random mapping
// gives every window address the set of its reference permutation,
// reduced mod nsets, with an explicit and with the default window.
func TestRandomMappingSetMatchesReducedPermutation(t *testing.T) {
	for _, g := range setIndexGeometries {
		for _, space := range []int{g.window, 0} {
			for seed := int64(0); seed < 20; seed++ {
				c := New(Config{NumBlocks: g.sets * g.ways, NumWays: g.ways, AddrSpace: space, RandomMapping: true, Seed: seed})
				window := space
				if window == 0 {
					window = 4 * g.sets * g.ways
				}
				perm := rand.New(rand.NewSource(seed + 0x3ab)).Perm(window)
				for a := 0; a < window; a++ {
					if got, want := c.SetOf(Addr(a)), floorMod(perm[a], g.sets); got != want {
						t.Fatalf("%+v window %d seed %d: address %d in set %d, want %d", g, window, seed, a, got, want)
					}
				}
			}
		}
	}
}

// TestPlainSetIndexIsFloorMod: without a keyed or random mapping the set
// is the address's floor modulo, negative addresses included, for
// power-of-two and other set counts, and an access fills that set.
func TestPlainSetIndexIsFloorMod(t *testing.T) {
	for _, g := range []struct{ blocks, ways int }{{1, 1}, {4, 1}, {8, 2}, {64, 8}, {6, 2}, {12, 4}, {10, 1}, {4, 4}} {
		c := New(Config{NumBlocks: g.blocks, NumWays: g.ways})
		n := g.blocks / g.ways
		for a := -3 * g.blocks; a <= 3*g.blocks; a++ {
			want := floorMod(a, n)
			if got := c.SetOf(Addr(a)); got != want {
				t.Fatalf("%d blocks × %d ways: address %d in set %d, want %d", g.blocks, g.ways, a, got, want)
			}
			c.Reset()
			c.Access(Addr(a), DomainAttacker)
			if c.lookup(want, Addr(a)) < 0 {
				t.Fatalf("%d blocks × %d ways: address %d not filled into set %d", g.blocks, g.ways, a, want)
			}
		}
	}
}
