//go:build !amd64

package nn

// useVecKernels is false off amd64: the pure-Go blocked kernels run
// everywhere and are the bit-exactness reference.
var useVecKernels = false

// useZMMKernels is false off amd64 too.
var useZMMKernels = false

func axpy4Vec(y, w []float64, stride int, c *[4]float64) {
	panic("nn: vector kernel called without hardware support")
}

func axpy8Vec(y, w []float64, stride int, c *[8]float64) {
	panic("nn: vector kernel called without hardware support")
}

func axpy4VecG(y, w0, w1, w2, w3 []float64, c *[4]float64) {
	panic("nn: vector kernel called without hardware support")
}

func axpy1Vec(y, w []float64, c float64) {
	panic("nn: vector kernel called without hardware support")
}

func tanhBackVec(dx, y, dy []float64) {
	panic("nn: vector kernel called without hardware support")
}

func adamVec(val, grad, m, v []float64, k *[8]float64) {
	panic("nn: vector kernel called without hardware support")
}

func dotRows4x4(y, x, w, bias []float64, in, out int) {
	panic("nn: vector kernel called without hardware support")
}

func dotRows4x1(y, x, w, bias []float64, in, out int) {
	panic("nn: vector kernel called without hardware support")
}

func atbCols4x4(dw, a, b []float64, rows, in, out int) {
	panic("nn: vector kernel called without hardware support")
}

func atbCols4x1(dw, a, b []float64, rows, in, out int) {
	panic("nn: vector kernel called without hardware support")
}

func atbRow32(dst, a, b []float64, rows, in, out int) {
	panic("nn: vector kernel called without hardware support")
}

func atbRow8(dst, a, b []float64, rows, in, out int) {
	panic("nn: vector kernel called without hardware support")
}

func tile4x16(y, x, w []float64, in, out int) {
	panic("nn: vector kernel called without hardware support")
}

func allNonzeroVec(x []float64) bool {
	panic("nn: vector kernel called without hardware support")
}

func tanhVec(dst, src []float64, t *tanhTables, w *tanhWork) {
	panic("nn: vector kernel called without hardware support")
}

func cpuSupportsAVX2FMA() bool { return false }
