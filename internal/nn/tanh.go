package nn

import "math"

// TanhInto writes math.Tanh(src[i]) into dst[i] for every i, bit for bit
// (dst may alias src; len(dst) must be at least len(src)).
//
// On amd64 machines with AVX2 and FMA the four-aligned prefix runs the
// vector kernel in tanh_amd64.s. It evaluates math.tanh's rational
// polynomial (the branch below 0.625) on every lane in tanh.go's
// operation order, then 1 - 2/(s+1) on the lanes at or above 0.625,
// packed four to a vector, with s = Exp(2|x|) computed by a copy of
// math.Exp's FMA sequence. That sequence is what math.Exp runs exactly
// when AVX and FMA are present, so the kernel is enabled only behind its
// own CPUID check and a start-up probe against math.Tanh on inputs where
// the FMA and non-FMA Exp paths round differently (a GODEBUG
// cpu.fma=off run keeps math.Exp off its FMA path and the probe turns
// the kernel off). Any other machine, and the tail, run math.Tanh.
func TanhInto(dst, src []float64) {
	dst = dst[:len(src)]
	n := 0
	if useVecKernels && useTanhVec {
		n = len(src) &^ 3
		var w tanhWork
		for lo := 0; lo < n; lo += tanhChunk {
			hi := min(lo+tanhChunk, n)
			tanhVec(dst[lo:hi], src[lo:hi], &tanhTab, &w)
		}
	}
	for i := n; i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// tanhMaxLog is math.tanh's MAXLOG, log(2**127); inputs beyond half of
// it return ±1.
const tanhMaxLog = 8.8029691931113054295988e+01

const tanhNConsts = 24

// tanhTables is everything the vector kernel reads besides its data.
type tanhTables struct {
	// k holds the constants, each broadcast to four lanes so the kernel
	// can use it as a 256-bit memory operand. The polynomial and Exp
	// constants are math's own literals.
	k [tanhNConsts][4]float64
	// perm[m] is the VPERMPS control that moves the float64 lanes set in
	// the 4-bit mask m to the front, in lane order; permIdx[m] does the
	// same for four int32 lanes (VPERMILPS).
	perm    [16][8]int32
	permIdx [16][4]int32
	lanes   [4]int32 // 0, 1, 2, 3
	four    [4]int32 // 4, 4, 4, 4
}

// tanhChunk is the most elements one tanhVec call takes.
const tanhChunk = 256

// tanhWork is one tanhVec call's worklist for the exp branch: the inputs
// at or above 0.625 and their positions, packed, with room to pad the
// last group of four.
type tanhWork struct {
	xs  [tanhChunk + 4]float64
	idx [tanhChunk + 4]int32
}

var tanhTab = func() (t tanhTables) {
	vals := [tanhNConsts]float64{
		math.Float64frombits(1 << 63),        // sign mask
		math.Float64frombits(1<<63 - 1),      // magnitude mask
		0.625,                                // polynomial/exp cutoff
		0.5 * tanhMaxLog,                     // ±1 cutoff
		1,                                    //
		2,                                    //
		-9.64399179425052238628e-1,           // tanhP[0]
		-9.92877231001918586564e1,            // tanhP[1]
		-1.61468768441708447952e3,            // tanhP[2]
		1.12811678491632931402e2,             // tanhQ[0]
		2.23548839060100448583e3,             // tanhQ[1]
		4.84406305325125486048e3,             // tanhQ[2]
		1.4426950408889634073599246810018920, // log2(e)
		0.69314718055966295651160180568695068359375,           // ln2 upper half
		0.28235290563031577122588448175013436025525412068e-12, // ln2 lower half
		0.0625,                     // argument reduction
		2.4801587301587301587e-5,   // Taylor coefficients, highest first
		1.9841269841269841270e-4,   //
		1.3888888888888888889e-3,   //
		8.3333333333333333333e-3,   //
		4.1666666666666666667e-2,   //
		1.6666666666666666667e-1,   //
		0.5,                        //
		math.Float64frombits(1023), // exponent bias (integer lanes)
	}
	for i, v := range vals {
		t.k[i] = [4]float64{v, v, v, v}
	}
	for m := range t.perm {
		k := int32(0)
		for _, set := range []bool{true, false} {
			for l := int32(0); l < 4; l++ {
				if (m>>l&1 == 1) == set {
					t.perm[m][2*k], t.perm[m][2*k+1] = 2*l, 2*l+1
					t.permIdx[m][k] = l
					k++
				}
			}
		}
	}
	t.lanes = [4]int32{0, 1, 2, 3}
	t.four = [4]int32{4, 4, 4, 4}
	return t
}()

// tanhProbes are inputs whose math.Tanh differs in the last bit between
// math.Exp's FMA and non-FMA paths.
var tanhProbes = [...]float64{-1.7568806901944016, 2.242536012502847, -0.6668632897266269, -0.8539124188100295}

// useTanhVec reports whether the vector tanh kernel runs here: the CPU
// and OS support AVX2 and FMA, and the kernel reproduces math.Tanh on
// the probes.
var useTanhVec = func() bool {
	if !cpuSupportsAVX2FMA() {
		return false
	}
	var got [len(tanhProbes)]float64
	var w tanhWork
	tanhVec(got[:], tanhProbes[:], &tanhTab, &w)
	for i, x := range tanhProbes {
		if math.Float64bits(got[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}()
