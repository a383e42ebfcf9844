package nn

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// checkTanhLanes puts x in every lane position of slices whose length
// leaves a tail of 0 to 3 elements after the four-wide blocks, fills
// the other slots with filler, and requires every output to carry the
// bits of math.Tanh.
func checkTanhLanes(t *testing.T, x, filler float64) {
	t.Helper()
	var src, dst [11]float64
	for n := 4; n <= len(src); n++ {
		for pos := 0; pos < n; pos++ {
			for i := range src[:n] {
				src[i] = filler
			}
			src[pos] = x
			TanhInto(dst[:n], src[:n])
			for i, v := range src[:n] {
				if got, want := math.Float64bits(dst[i]), math.Float64bits(math.Tanh(v)); got != want {
					t.Fatalf("TanhInto(%v) at %d of %d = %x, math.Tanh = %x", v, i, n, got, want)
				}
			}
		}
	}
}

// tanhSeeds are the branch edges and special values of math.tanh plus
// a sample of typical trunk pre-activations.
func tanhSeeds() []float64 {
	seeds := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(1), -math.Float64frombits(1), 1, -1}
	for _, edge := range []float64{0.625, 0.5 * tanhMaxLog} {
		for _, e := range []float64{edge, -edge} {
			seeds = append(seeds, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(int(math.Copysign(1, e)))))
		}
	}
	seeds = append(seeds, tanhProbes[:]...)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 16; i++ {
		seeds = append(seeds, 1.2*rng.NormFloat64())
	}
	return seeds
}

// FuzzTanhInto pins TanhInto to math.Tanh bit for bit, with vector
// kernels on and off.
func FuzzTanhInto(f *testing.F) {
	seeds := tanhSeeds()
	for i, x := range seeds {
		f.Add(x, seeds[(i+7)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, x, filler float64) {
		forEachKernelSet(t, func(bool) { checkTanhLanes(t, x, filler) })
	})
}

// TestTanhIntoMatchesMathTanh runs a dense N(0, 1.2²) sample, long
// enough to span several kernel chunks and a tail, through both kernel
// sets, out of place and in place (as the MLP calls it).
func TestTanhIntoMatchesMathTanh(t *testing.T) {
	// A kernel that fails its start-up probe falls back silently.
	if cpuSupportsAVX2FMA() && !useTanhVec && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Fatal("the CPU has AVX2 and FMA but the vector tanh failed its start-up probe")
	}
	rng := rand.New(rand.NewSource(42))
	src := make([]float64, 4099)
	for i := range src {
		src[i] = 1.2 * rng.NormFloat64()
	}
	forEachKernelSet(t, func(vec bool) {
		dst := make([]float64, len(src))
		TanhInto(dst, src)
		inPlace := append([]float64(nil), src...)
		TanhInto(inPlace, inPlace)
		for i, v := range src {
			want := math.Float64bits(math.Tanh(v))
			if math.Float64bits(dst[i]) != want || math.Float64bits(inPlace[i]) != want {
				t.Fatalf("vec=%v: TanhInto(%v) = %v (in place %v), math.Tanh = %v",
					vec, v, dst[i], inPlace[i], math.Tanh(v))
			}
		}
	})
}
