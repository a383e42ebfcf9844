//go:build amd64

package nn

// useVecKernels selects the AVX axpy micro-kernels when the CPU and OS
// support YMM state. It is a variable (not a constant) so tests can
// force the pure-Go path and assert bit-identical results.
var useVecKernels = cpuSupportsAVX()

// useZMMKernels selects the AVX-512 register tile (tile4x16) for the
// dense forward and dX kernels when the CPU and OS also support ZMM
// state. Like useVecKernels it is a variable so tests can force it off;
// the tile runs only while both are set (zmmTiles).
var useZMMKernels = useVecKernels && cpuSupportsAVX512()

//go:noescape
func axpy4Vec(y, w []float64, stride int, c *[4]float64)

//go:noescape
func axpy8Vec(y, w []float64, stride int, c *[8]float64)

//go:noescape
func axpy4VecG(y, w0, w1, w2, w3 []float64, c *[4]float64)

//go:noescape
func axpy1Vec(y, w []float64, c float64)

//go:noescape
func tanhBackVec(dx, y, dy []float64)

//go:noescape
func adamVec(val, grad, m, v []float64, k *[8]float64)

//go:noescape
func dotRows4x4(y, x, w, bias []float64, in, out int)

//go:noescape
func dotRows4x1(y, x, w, bias []float64, in, out int)

//go:noescape
func atbCols4x4(dw, a, b []float64, rows, in, out int)

//go:noescape
func atbCols4x1(dw, a, b []float64, rows, in, out int)

//go:noescape
func atbRow32(dst, a, b []float64, rows, in, out int)

//go:noescape
func atbRow8(dst, a, b []float64, rows, in, out int)

func cpuSupportsAVX() bool

func cpuSupportsAVX512() bool

//go:noescape
func tile4x16(y, x, w []float64, in, out int)

//go:noescape
func allNonzeroVec(x []float64) bool

//go:noescape
func tanhVec(dst, src []float64, t *tanhTables, w *tanhWork)

func cpuSupportsAVX2FMA() bool
