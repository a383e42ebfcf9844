//go:build amd64

#include "textflag.h"

// AVX axpy micro-kernels. Bit-exactness contract: these vectorize across
// independent output elements j (4 doubles per YMM lane group) and keep
// each element's addition chain in coefficient order, using separate
// VMULPD + VADDPD (never VFMADD, whose single rounding would change the
// last bit), so every y[j] receives exactly the scalar loop's IEEE
// operation sequence.

// func axpy4Vec(y, w []float64, stride int, c *[4]float64)
// y[j] += c0·w[j] + c1·w[stride+j] + c2·w[2·stride+j] + c3·w[3·stride+j]
// for j in [0, len(y)); len(y) must be a multiple of 4 (callers pass the
// 4-aligned prefix and handle the tail in Go).
TEXT ·axpy4Vec(SB), NOSPLIT, $0-64
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVQ c+56(FP), BX
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	SHLQ $3, DX
	LEAQ (SI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	SHRQ $2, CX
	JZ   a4done

a4loop:
	VMOVUPD (DI), Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	DECQ    CX
	JNZ     a4loop

a4done:
	VZEROUPPER
	RET

// func axpy8Vec(y, w []float64, stride int, c *[8]float64)
// Eight consecutive stride-s rows of w folded into y, additions in
// c0..c7 order per element — the same sequence as two axpy4Vec calls.
TEXT ·axpy8Vec(SB), NOSPLIT, $0-64
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVQ c+56(FP), BX
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	VBROADCASTSD 32(BX), Y10
	VBROADCASTSD 40(BX), Y11
	VBROADCASTSD 48(BX), Y12
	VBROADCASTSD 56(BX), Y13
	SHLQ $3, DX
	LEAQ (SI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), BX
	SHRQ $2, CX
	JZ   a8done

a8loop:
	VMOVUPD (DI), Y8
	VMULPD  (SI), Y0, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R8), Y1, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R9), Y2, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R10), Y3, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R11), Y10, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R12), Y11, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (R13), Y12, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  (BX), Y13, Y9
	VADDPD  Y9, Y8, Y8
	VMOVUPD Y8, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, R12
	ADDQ    $32, R13
	ADDQ    $32, BX
	DECQ    CX
	JNZ     a8loop

a8done:
	VZEROUPPER
	RET

// func axpy4VecG(y, w0, w1, w2, w3 []float64, c *[4]float64)
// Gathered variant of axpy4Vec: the four source rows are independent
// slices (the sparse path batches non-adjacent nonzero input rows).
// Identical per-element order: c0..c3 additions ascending.
TEXT ·axpy4VecG(SB), NOSPLIT, $0-128
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ w0_base+24(FP), SI
	MOVQ w1_base+48(FP), R8
	MOVQ w2_base+72(FP), R9
	MOVQ w3_base+96(FP), R10
	MOVQ c+120(FP), BX
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	SHRQ $2, CX
	JZ   g4done

g4loop:
	VMOVUPD (DI), Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	DECQ    CX
	JNZ     g4loop

g4done:
	VZEROUPPER
	RET

// func axpy1Vec(y, w []float64, c float64)
// y[j] += c·w[j] for j in [0, len(y)); len(y) must be a multiple of 4.
TEXT ·axpy1Vec(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	VBROADCASTSD c+48(FP), Y0
	SHRQ $2, CX
	JZ   a1done

a1loop:
	VMOVUPD (DI), Y4
	VMULPD  (SI), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     a1loop

a1done:
	VZEROUPPER
	RET

// func adamVec(val, grad, m, v []float64, k *[8]float64)
// One Adam update over len(val) elements (multiple of 4):
//
//	m' = b1·m + (1-b1)·g
//	v' = b2·v + ((1-b2)·g)·g
//	val -= lr·(m'/bc1) / (sqrt(v'/bc2) + eps)
//
// k = {b1, 1-b1, b2, 1-b2, bc1, bc2, lr, eps}. Every operation is an
// element-wise correctly-rounded IEEE op (VMULPD/VADDPD/VDIVPD/VSQRTPD)
// in the scalar loop's exact order, so results are bit-identical.
TEXT ·adamVec(SB), NOSPLIT, $0-104
	MOVQ val_base+0(FP), DI
	MOVQ val_len+8(FP), CX
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), BX
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	VBROADCASTSD 32(BX), Y4
	VBROADCASTSD 40(BX), Y5
	VBROADCASTSD 48(BX), Y6
	VBROADCASTSD 56(BX), Y7
	SHRQ $2, CX
	JZ   adone

aloop:
	VMOVUPD (SI), Y8
	VMOVUPD (R8), Y9
	VMULPD  Y9, Y0, Y9
	VMULPD  Y8, Y1, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y9, (R8)
	VMOVUPD (R9), Y10
	VMULPD  Y10, Y2, Y10
	VMULPD  Y8, Y3, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)
	VDIVPD  Y4, Y9, Y9
	VDIVPD  Y5, Y10, Y10
	VSQRTPD Y10, Y10
	VADDPD  Y7, Y10, Y10
	VMULPD  Y9, Y6, Y9
	VDIVPD  Y10, Y9, Y9
	VMOVUPD (DI), Y11
	VSUBPD  Y9, Y11, Y11
	VMOVUPD Y11, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     aloop

adone:
	VZEROUPPER
	RET

// func cpuSupportsAVX() bool
// CPUID leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX), then XGETBV XCR0
// bits 1|2 (SSE and YMM state enabled by the OS).
TEXT ·cpuSupportsAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, AX
	SHRL $27, AX
	ANDL $3, AX
	CMPL AX, $3
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuSupportsAVX512() bool
// CPUID leaf 7 (subleaf 0) EBX bit 16 (AVX512F), then XGETBV XCR0 bits
// 1|2|5|6|7 (SSE, YMM, opmask and both ZMM halves enabled by the OS).
// The caller has already checked AVX, so OSXSAVE is set.
TEXT ·cpuSupportsAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  noavx512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  noavx512
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  noavx512
	MOVB $1, ret+0(FP)
	RET

noavx512:
	MOVB $0, ret+0(FP)
	RET

// func tanhBackVec(dx, y, dy []float64)
// dx[i] = dy[i] · (1 - y[i]·y[i]) for i in [0, len(dx)); len(dx) must be
// a multiple of 4. The scalar loop's operations in its order.
TEXT ·tanhBackVec(SB), NOSPLIT, $0-72
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	MOVQ dy_base+48(FP), DX
	MOVQ $0x3ff0000000000000, AX   // 1.0
	MOVQ AX, X0
	VBROADCASTSD X0, Y0
	SHRQ $2, CX
	JZ   tbdone

tbloop:
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y1, Y1
	VSUBPD  Y1, Y0, Y1
	VMOVUPD (DX), Y2
	VMULPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     tbloop

tbdone:
	VZEROUPPER
	RET
