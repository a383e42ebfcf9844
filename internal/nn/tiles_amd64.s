//go:build amd64

#include "textflag.h"

// AVX kernels that keep a tile of accumulators in registers: the
// forward pass and weight gradient of narrow layers (fewer than 8
// outputs: the policy and value heads), and the column-blocked weight
// gradient of wide layers. On AVX-512 machines one more tile,
// tile4x16, keeps 4 sample rows × 16 outputs of the dense forward and
// dX in ZMM registers. Bit-exactness contract: each output element
// keeps its scalar accumulation chain — the same products, added one
// at a time in the same order, with zero inputs skipped — and the
// kernels vectorize across independent chains only (four sample rows,
// four inputs, or the outputs). Separate VMULPD + VADDPD, never FMA.
//
// The narrow kernels (dotRows4x*, atbCols4x*) skip zeros without a
// branch: a product whose input is zero is masked to +0 before the add.
// t + (+0) == t bit for bit unless t is -0 or a signalling NaN, and a
// chain never reaches -0 unless it starts there (a rounded sum is -0
// only when both addends are), so the callers run them only on chains
// whose start values are neither -0 nor NaN (skipSafe). The wide tiles
// (atbRow*) test each coefficient and skip its row with a branch.
// tile4x16 skips nothing: its zero-skipping callers run it only on
// 4-row blocks whose inputs are all nonzero (allNonzeroVec), where
// skipping and adding are the same thing, and the non-skipping dX on
// every full block.

// func dotRows4x4(y, x, w, bias []float64, in, out int)
// For rows k = 0..3 and outputs jj = 0..3:
//
//	y[k·out+jj] = bias[jj] + Σ_{i, x[k·in+i] != 0} x[k·in+i]·w[i·out+jj]
//
// with the sum i-ascending. Lanes are the four rows.
TEXT ·dotRows4x4(SB), NOSPLIT, $0-112
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ bias_base+72(FP), BX
	MOVQ in+96(FP), CX
	MOVQ out+104(FP), R8
	SHLQ $3, R8
	MOVQ CX, R9
	SHLQ $3, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	VXORPD Y14, Y14, Y14
	TESTQ CX, CX
	JZ    r44store

r44loop:
	VMOVSD  (SI), X4
	VMOVHPD (R10), X4, X4
	VMOVSD  (R11), X5
	VMOVHPD (R12), X5, X5
	VINSERTF128 $1, X5, Y4, Y4     // x[·][i] across the four rows
	VCMPPD  $0x00, Y14, Y4, Y5     // lanes whose input is zero
	VBROADCASTSD 0(DX), Y6
	VMULPD  Y6, Y4, Y6
	VANDNPD Y6, Y5, Y6
	VADDPD  Y6, Y0, Y0
	VBROADCASTSD 8(DX), Y7
	VMULPD  Y7, Y4, Y7
	VANDNPD Y7, Y5, Y7
	VADDPD  Y7, Y1, Y1
	VBROADCASTSD 16(DX), Y8
	VMULPD  Y8, Y4, Y8
	VANDNPD Y8, Y5, Y8
	VADDPD  Y8, Y2, Y2
	VBROADCASTSD 24(DX), Y9
	VMULPD  Y9, Y4, Y9
	VANDNPD Y9, Y5, Y9
	VADDPD  Y9, Y3, Y3
	ADDQ    $8, SI
	ADDQ    $8, R10
	ADDQ    $8, R11
	ADDQ    $8, R12
	ADDQ    R8, DX
	DECQ    CX
	JNZ     r44loop

r44store:
	// Transpose the four output columns back into four output rows.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD Y8, (DI)
	ADDQ    R8, DI
	VMOVUPD Y9, (DI)
	ADDQ    R8, DI
	VMOVUPD Y10, (DI)
	ADDQ    R8, DI
	VMOVUPD Y11, (DI)
	VZEROUPPER
	RET

// func dotRows4x1(y, x, w, bias []float64, in, out int)
// dotRows4x4 for the single output y[k·out] (bias[0], w[i·out]).
TEXT ·dotRows4x1(SB), NOSPLIT, $0-112
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ bias_base+72(FP), BX
	MOVQ in+96(FP), CX
	MOVQ out+104(FP), R8
	SHLQ $3, R8
	MOVQ CX, R9
	SHLQ $3, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	VBROADCASTSD 0(BX), Y0
	VXORPD Y14, Y14, Y14
	TESTQ CX, CX
	JZ    r41store

r41loop:
	VMOVSD  (SI), X4
	VMOVHPD (R10), X4, X4
	VMOVSD  (R11), X5
	VMOVHPD (R12), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VCMPPD  $0x00, Y14, Y4, Y5
	VBROADCASTSD 0(DX), Y6
	VMULPD  Y6, Y4, Y6
	VANDNPD Y6, Y5, Y6
	VADDPD  Y6, Y0, Y0
	ADDQ    $8, SI
	ADDQ    $8, R10
	ADDQ    $8, R11
	ADDQ    $8, R12
	ADDQ    R8, DX
	DECQ    CX
	JNZ     r41loop

r41store:
	VEXTRACTF128 $1, Y0, X1
	VMOVSD  X0, (DI)
	ADDQ    R8, DI
	VMOVHPD X0, (DI)
	ADDQ    R8, DI
	VMOVSD  X1, (DI)
	ADDQ    R8, DI
	VMOVHPD X1, (DI)
	VZEROUPPER
	RET

// func atbCols4x4(dw, a, b []float64, rows, in, out int)
// Weight-gradient tile for inputs l = 0..3 and outputs jj = 0..3:
//
//	dw[l·out+jj] += Σ_{r, a[r·in+l] != 0} a[r·in+l]·b[r·out+jj]
//
// with the sum r-ascending. Lanes are the four inputs; the tile stays
// in registers across all rows.
TEXT ·atbCols4x4(SB), NOSPLIT, $0-96
	MOVQ dw_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ in+80(FP), R9
	MOVQ out+88(FP), R8
	SHLQ $3, R8
	SHLQ $3, R9
	// Load the tile transposed: Y0..Y3 hold outputs 0..3, lanes = inputs.
	MOVQ DI, R10
	VMOVUPD (R10), Y4
	ADDQ    R8, R10
	VMOVUPD (R10), Y5
	ADDQ    R8, R10
	VMOVUPD (R10), Y6
	ADDQ    R8, R10
	VMOVUPD (R10), Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y0
	VPERM2F128 $0x20, Y11, Y9, Y1
	VPERM2F128 $0x31, Y10, Y8, Y2
	VPERM2F128 $0x31, Y11, Y9, Y3
	VXORPD Y14, Y14, Y14
	TESTQ CX, CX
	JZ    c44store

c44loop:
	VMOVUPD (SI), Y4               // a[r][0..3]
	VCMPPD  $0x00, Y14, Y4, Y5
	VBROADCASTSD 0(DX), Y6
	VMULPD  Y6, Y4, Y6
	VANDNPD Y6, Y5, Y6
	VADDPD  Y6, Y0, Y0
	VBROADCASTSD 8(DX), Y7
	VMULPD  Y7, Y4, Y7
	VANDNPD Y7, Y5, Y7
	VADDPD  Y7, Y1, Y1
	VBROADCASTSD 16(DX), Y8
	VMULPD  Y8, Y4, Y8
	VANDNPD Y8, Y5, Y8
	VADDPD  Y8, Y2, Y2
	VBROADCASTSD 24(DX), Y9
	VMULPD  Y9, Y4, Y9
	VANDNPD Y9, Y5, Y9
	VADDPD  Y9, Y3, Y3
	ADDQ    R9, SI
	ADDQ    R8, DX
	DECQ    CX
	JNZ     c44loop

c44store:
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD Y8, (DI)
	ADDQ    R8, DI
	VMOVUPD Y9, (DI)
	ADDQ    R8, DI
	VMOVUPD Y10, (DI)
	ADDQ    R8, DI
	VMOVUPD Y11, (DI)
	VZEROUPPER
	RET

// func atbCols4x1(dw, a, b []float64, rows, in, out int)
// atbCols4x4 for the single output column dw[l·out] (b[r·out]).
TEXT ·atbCols4x1(SB), NOSPLIT, $0-96
	MOVQ dw_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ in+80(FP), R9
	MOVQ out+88(FP), R8
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (DI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	VMOVSD  (DI), X0
	VMOVHPD (R10), X0, X0
	VMOVSD  (R11), X1
	VMOVHPD (R12), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VXORPD Y14, Y14, Y14
	TESTQ CX, CX
	JZ    c41store

c41loop:
	VMOVUPD (SI), Y4
	VCMPPD  $0x00, Y14, Y4, Y5
	VBROADCASTSD 0(DX), Y6
	VMULPD  Y6, Y4, Y6
	VANDNPD Y6, Y5, Y6
	VADDPD  Y6, Y0, Y0
	ADDQ    R9, SI
	ADDQ    R8, DX
	DECQ    CX
	JNZ     c41loop

c41store:
	VEXTRACTF128 $1, Y0, X1
	VMOVSD  X0, (DI)
	VMOVHPD X0, (R10)
	VMOVSD  X1, (R11)
	VMOVHPD X1, (R12)
	VZEROUPPER
	RET

// func atbRow32(dst, a, b []float64, rows, in, out int)
// Column-blocked weight-gradient tile for one input and 32 outputs:
//
//	dst[jj] += Σ_{r, a[r·in] != 0} a[r·in]·b[r·out+jj],  jj = 0..31
//
// with the sum r-ascending and a zero coefficient skipping its row, as
// the row-by-row fold does. Lanes are outputs; the 32 accumulators stay
// in registers across all rows.
TEXT ·atbRow32(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ in+80(FP), R9
	MOVQ out+88(FP), R8
	SHLQ $3, R9
	SHLQ $3, R8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	TESTQ CX, CX
	JZ    t32store

t32loop:
	MOVQ (SI), AX
	SHLQ $1, AX                    // ±0 has no bits left
	JZ   t32skip
	VBROADCASTSD (SI), Y8
	VMULPD  0(DX), Y8, Y9
	VADDPD  Y9, Y0, Y0
	VMULPD  32(DX), Y8, Y10
	VADDPD  Y10, Y1, Y1
	VMULPD  64(DX), Y8, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  96(DX), Y8, Y12
	VADDPD  Y12, Y3, Y3
	VMULPD  128(DX), Y8, Y9
	VADDPD  Y9, Y4, Y4
	VMULPD  160(DX), Y8, Y10
	VADDPD  Y10, Y5, Y5
	VMULPD  192(DX), Y8, Y11
	VADDPD  Y11, Y6, Y6
	VMULPD  224(DX), Y8, Y12
	VADDPD  Y12, Y7, Y7

t32skip:
	ADDQ R9, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  t32loop

t32store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func atbRow8(dst, a, b []float64, rows, in, out int)
// atbRow32 for 8 outputs.
TEXT ·atbRow8(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ in+80(FP), R9
	MOVQ out+88(FP), R8
	SHLQ $3, R9
	SHLQ $3, R8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	TESTQ CX, CX
	JZ    t8store

t8loop:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   t8skip
	VBROADCASTSD (SI), Y8
	VMULPD  0(DX), Y8, Y9
	VADDPD  Y9, Y0, Y0
	VMULPD  32(DX), Y8, Y10
	VADDPD  Y10, Y1, Y1

t8skip:
	ADDQ R9, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  t8loop

t8store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func tile4x16(y, x, w []float64, in, out int)
// AVX-512 register tile of the dense forward and dX: for sample rows
// k = 0..3 and outputs jj = 0..15,
//
//	y[k·out+jj] += Σ_i x[k·in+i]·w[i·out+jj]
//
// with the sum i-ascending and no zero skipping. Eight ZMM accumulators
// (two per row, eight lanes each) start at y's current values and stay
// in registers across the whole inner dimension, so each 16-column
// slice of a W row is loaded once per four rows. Operand order matches
// axpy8Vec: coefficient × weight, then accumulator + product.
TEXT ·tile4x16(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ in+72(FP), CX
	MOVQ out+80(FP), R8
	SHLQ $3, R8                    // y and w row stride in bytes
	MOVQ CX, R9
	SHLQ $3, R9                    // x row stride in bytes
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (DI)(R8*1), R13
	LEAQ (R13)(R8*1), R14
	LEAQ (R14)(R8*1), BX
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 0(R13), Z2
	VMOVUPD 64(R13), Z3
	VMOVUPD 0(R14), Z4
	VMOVUPD 64(R14), Z5
	VMOVUPD 0(BX), Z6
	VMOVUPD 64(BX), Z7
	TESTQ CX, CX
	JZ    z416store

z416loop:
	VMOVUPD 0(DX), Z8
	VMOVUPD 64(DX), Z9
	VBROADCASTSD (SI), Z10
	VMULPD  Z8, Z10, Z12
	VADDPD  Z12, Z0, Z0
	VMULPD  Z9, Z10, Z13
	VADDPD  Z13, Z1, Z1
	VBROADCASTSD (R10), Z11
	VMULPD  Z8, Z11, Z14
	VADDPD  Z14, Z2, Z2
	VMULPD  Z9, Z11, Z15
	VADDPD  Z15, Z3, Z3
	VBROADCASTSD (R11), Z10
	VMULPD  Z8, Z10, Z12
	VADDPD  Z12, Z4, Z4
	VMULPD  Z9, Z10, Z13
	VADDPD  Z13, Z5, Z5
	VBROADCASTSD (R12), Z11
	VMULPD  Z8, Z11, Z14
	VADDPD  Z14, Z6, Z6
	VMULPD  Z9, Z11, Z15
	VADDPD  Z15, Z7, Z7
	ADDQ    $8, SI
	ADDQ    $8, R10
	ADDQ    $8, R11
	ADDQ    $8, R12
	ADDQ    R8, DX
	DECQ    CX
	JNZ     z416loop

z416store:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 0(R13)
	VMOVUPD Z3, 64(R13)
	VMOVUPD Z4, 0(R14)
	VMOVUPD Z5, 64(R14)
	VMOVUPD Z6, 0(BX)
	VMOVUPD Z7, 64(BX)
	VZEROUPPER
	RET

// func allNonzeroVec(x []float64) bool
// Reports whether no element of x is ±0 (a NaN counts as nonzero, as
// in the scalar x != 0): eight lanes per VCMPPD into an opmask, then a
// scalar tail that tests the bits below the sign.
TEXT ·allNonzeroVec(SB), NOSPLIT, $0-25
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VPXORQ Z0, Z0, Z0
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   nztail

nzloop:
	VCMPPD   $0, (SI), Z0, K1
	KORTESTW K1, K1
	JNZ      nzfound
	ADDQ     $64, SI
	DECQ     DX
	JNZ      nzloop

nztail:
	ANDQ $7, CX
	JZ   nznone

nztail1:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   nzfound
	ADDQ $8, SI
	DECQ CX
	JNZ  nztail1

nznone:
	VZEROUPPER
	MOVB $1, ret+24(FP)
	RET

nzfound:
	VZEROUPPER
	MOVB $0, ret+24(FP)
	RET
