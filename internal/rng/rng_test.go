package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream fails t unless a Source reseeded with seed and
// rand.NewSource(seed), each under rand.New, agree on draws values
// through each of rand.Rand's paths (raw Int63 and Uint64, Intn on both
// of its algorithms, Int31n, Float64, Perm and Shuffle) and on Int31s
// against as many Int31 calls, ending in the same state. The Source is
// used before the reseed, as the search reseeds one source per length.
func sameStream(t *testing.T, seed int64, draws int) {
	t.Helper()
	src := New(^seed)
	for i := 0; i < length+1; i++ {
		src.Uint64()
	}
	src.Seed(seed)
	got, want := rand.New(src), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		var g, w uint64
		switch i % 6 {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = uint64(got.Intn(9)), uint64(want.Intn(9))
		case 3:
			g, w = uint64(got.Intn(1<<40+3)), uint64(want.Intn(1<<40+3))
		case 4:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 5:
			g, w = uint64(got.Int31n(1<<20)), uint64(want.Int31n(1<<20))
		}
		if g != w {
			t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, i, g, w)
		}
	}
	gp, wp := got.Perm(33), want.Perm(33)
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("seed %d Perm: %v, math/rand %v", seed, gp, wp)
		}
	}
	gs, ws := make([]int, 50), make([]int, 50)
	for i := range gs {
		gs[i], ws[i] = i, i
	}
	got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("seed %d Shuffle: %v, math/rand %v", seed, gs, ws)
		}
	}
	// A run longer than the register wraps both of Int31s's indices.
	run := make([]int, length+draws%length)
	src.Int31s(run)
	for i, g := range run {
		if w := int(want.Int31()); g != w {
			t.Fatalf("seed %d Int31s[%d]: %#x, math/rand Int31 %#x", seed, i, g, w)
		}
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("seed %d: the streams part after Perm, Shuffle and Int31s: %#x, math/rand %#x", seed, g, w)
	}
}

// TestSourceMatchesMathRand: Source is math/rand's generator bit for bit,
// at the seeds where its seed reduction has edges (zero, the Lehmer
// modulus and its multiples, the int64 extremes) and over a sweep, long
// enough to wrap the 607-word register several times.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, modulus, -modulus, 2 * modulus, modulus - 1, modulus + 1,
		1 << 31, -(1 << 31), 89482311, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	for s := int64(2); s < 200; s++ {
		seeds = append(seeds, s, -s, s*0x5851f42d4c957f2d)
	}
	for _, seed := range seeds {
		sameStream(t, seed, 3000)
	}
}

// TestSeedAllocs: Seed and the draws allocate nothing.
func TestSeedAllocs(t *testing.T) {
	s := New(1)
	seed := int64(0)
	run := make([]int, 100)
	if avg := testing.AllocsPerRun(100, func() {
		seed++
		s.Seed(seed)
		s.Int63()
		s.Uint64()
		s.Int31s(run)
	}); avg != 0 {
		t.Fatalf("Seed and draws: %v allocs/op, want 0", avg)
	}
}

// FuzzSourceMatchesMathRand: for any seed and draw count the stream is
// math/rand's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, modulus, 1 << 31, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(length+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		sameStream(t, seed, int(draws))
	})
}
