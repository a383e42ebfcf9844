//go:build amd64

#include "textflag.h"

// Vector math.Tanh. Bit-exactness contract: every lane performs the same
// IEEE operation sequence as math.tanh (tanh.go) on that input, with
// math.Exp replaced by the instruction-for-instruction vector twin of
// its avxfma path in exp_amd64.s. Which branch a lane takes is decided
// by masks and lane packing, never by a data-dependent jump. FMA
// appears only where math.Exp itself fuses; the polynomial branch uses
// separate VMULPD/VADDPD like the compiled Go code.
//
// Table offsets (t *tanhTables): 24 constants, each 4 lanes wide, then
// the lane-packing permutations and the lane-index vectors.
#define SIGN 0
#define ABS 32
#define CUT 64
#define BIG 96
#define ONE 128
#define TWO 160
#define P0 192
#define P1 224
#define P2 256
#define Q0 288
#define Q1 320
#define Q2 352
#define LOG2E 384
#define LN2U 416
#define LN2L 448
#define SIXTEENTH 480
#define C64 512
#define C56 544
#define C48 576
#define C40 608
#define C32 640
#define C24 672
#define HALF 704
#define BIAS 736
#define PERM 768
#define PERMIDX 1280
#define LANES 1536
#define FOUR 1552

// Worklist offsets (w *tanhWork): xs [260]float64, then idx [260]int32.
#define WIDX 2080

// func tanhVec(dst, src []float64, t *tanhTables, w *tanhWork)
// len(src) must be a multiple of 4, at most 256, and len(dst) >= len(src);
// dst may alias src.
//
// Trunk pre-activations fall mostly below 0.625, so the kernel runs in
// two passes. Pass 1 computes the polynomial branch for every lane,
// stores it, and packs the lanes at or above 0.625 (their inputs and
// positions) into w without a branch. Pass 2 computes the exp branch
// four packed lanes at a time and scatters the results over pass 1's.
//
// Special lanes need no extra blends. Every finite or infinite result
// carries the sign of x: ORing x's sign bit into it is a no-op except
// for x = -0, where the polynomial yields +0 and math.tanh returns x.
// The polynomial of a NaN is x itself, quieted, and a NaN compares
// below 0.625. Above 0.5·MAXLOG math.tanh returns ±1; clamping z to
// 0.5·MAXLOG before Exp gives 1 - 2/(s+1) == 1 exactly there.
TEXT ·tanhVec(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ t+48(FP), BX
	MOVQ w+56(FP), R8              // packed inputs
	LEAQ WIDX(R8), R9              // packed positions
	SHRQ $2, CX
	JZ   tdone
	XORQ R10, R10                  // group
	XORQ R11, R11                  // packed lanes
	VMOVDQU LANES(BX), X14         // positions of the group's lanes

poly:
	MOVQ    R10, R12
	SHLQ    $5, R12
	VMOVUPD (SI)(R12*1), Y0        // x
	VANDPD  ABS(BX), Y0, Y1        // z = |x|
	// x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2), s = x*x
	VMULPD  Y0, Y0, Y2
	VMULPD  P0(BX), Y2, Y3
	VADDPD  P1(BX), Y3, Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  P2(BX), Y3, Y3
	VADDPD  Q0(BX), Y2, Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  Q1(BX), Y4, Y4
	VMULPD  Y2, Y4, Y4
	VADDPD  Q2(BX), Y4, Y4
	VMULPD  Y2, Y0, Y5
	VMULPD  Y3, Y5, Y5
	VDIVPD  Y4, Y5, Y5
	VADDPD  Y5, Y0, Y5
	VANDPD  SIGN(BX), Y0, Y10
	VORPD   Y10, Y5, Y5
	VMOVUPD Y5, (DI)(R12*1)
	// Pack the lanes with z >= 0.625 (ordered: false for NaN).
	VCMPPD  $0x1d, CUT(BX), Y1, Y11
	VMOVMSKPD Y11, AX
	MOVQ    AX, DX
	SHLQ    $5, DX
	VMOVDQU PERM(BX)(DX*1), Y12
	VPERMPS Y0, Y12, Y13
	VMOVUPD Y13, (R8)(R11*8)
	SHRQ    $1, DX
	VPERMILPS PERMIDX(BX)(DX*1), X14, X12
	VMOVDQU X12, (R9)(R11*4)
	POPCNTL AX, AX
	ADDQ    AX, R11
	VPADDD  FOUR(BX), X14, X14
	INCQ    R10
	CMPQ    R10, CX
	JNE     poly

	TESTQ   R11, R11
	JZ      tdone
	// Pad the last group of four with copies of the last packed lane.
	VBROADCASTSD -8(R8)(R11*8), Y13
	VMOVUPD Y13, (R8)(R11*8)
	VPBROADCASTD -4(R9)(R11*4), X12
	VMOVDQU X12, (R9)(R11*4)
	VMOVUPD ONE(BX), Y14
	VMOVUPD TWO(BX), Y13
	XORQ    R10, R10

exp:
	VMOVUPD (R8)(R10*8), Y0        // x
	VANDPD  ABS(BX), Y0, Y1        // z
	// s = Exp(2z): math.Exp's avxfma sequence.
	VMINPD  BIG(BX), Y1, Y6
	VADDPD  Y6, Y6, Y6             // 2z (exact)
	VMULPD  LOG2E(BX), Y6, Y7
	VROUNDPD $4, Y7, Y8            // float(k), MXCSR rounding like CVTSD2SL
	VCVTPD2DQY Y7, X7              // k
	VFNMADD231PD LN2U(BX), Y8, Y6  // r = 2z - k·ln2U (fused)
	VFNMADD231PD LN2L(BX), Y8, Y6  // r -= k·ln2L (fused)
	VMULPD  SIXTEENTH(BX), Y6, Y6
	VMOVUPD C64(BX), Y9
	VFMADD213PD C56(BX), Y6, Y9
	VFMADD213PD C48(BX), Y6, Y9
	VFMADD213PD C40(BX), Y6, Y9
	VFMADD213PD C32(BX), Y6, Y9
	VFMADD213PD C24(BX), Y6, Y9
	VFMADD213PD HALF(BX), Y6, Y9
	VFMADD213PD Y14, Y6, Y9
	VMULPD  Y9, Y6, Y6
	VADDPD  Y13, Y6, Y9
	VMULPD  Y9, Y6, Y6
	VADDPD  Y13, Y6, Y9
	VMULPD  Y9, Y6, Y6
	VADDPD  Y13, Y6, Y9
	VMULPD  Y9, Y6, Y6
	VADDPD  Y13, Y6, Y9
	VFMADD213PD Y14, Y9, Y6
	VPMOVSXDQ X7, Y8               // ldexp: (k + 1023) << 52
	VPADDQ  BIAS(BX), Y8, Y8
	VPSLLQ  $52, Y8, Y8
	VMULPD  Y8, Y6, Y6             // s
	// 1 - 2/(s+1), with the sign of x
	VADDPD  Y14, Y6, Y6
	VDIVPD  Y6, Y13, Y9
	VSUBPD  Y9, Y14, Y6
	VANDPD  SIGN(BX), Y0, Y10
	VORPD   Y10, Y6, Y6
	// Scatter over pass 1's results.
	VEXTRACTF128 $1, Y6, X7
	MOVL    (R9)(R10*4), AX
	VMOVSD  X6, (DI)(AX*8)
	MOVL    4(R9)(R10*4), AX
	VMOVHPD X6, (DI)(AX*8)
	MOVL    8(R9)(R10*4), AX
	VMOVSD  X7, (DI)(AX*8)
	MOVL    12(R9)(R10*4), AX
	VMOVHPD X7, (DI)(AX*8)
	ADDQ    $4, R10
	CMPQ    R10, R11
	JB      exp

tdone:
	VZEROUPPER
	RET

// func cpuSupportsAVX2FMA() bool
// The features the tanh kernel needs, which include the ones math.Exp
// checks for its FMA path: CPUID leaf 1 ECX bits 12 (FMA), 23 (POPCNT),
// 27 (OSXSAVE) and 28 (AVX); XCR0 bits 1|2 (SSE and YMM state enabled
// by the OS); CPUID leaf 7 subleaf 0 EBX bit 5 (AVX2).
TEXT ·cpuSupportsAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   nofma
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18801000, CX
	CMPL CX, $0x18801000
	JNE  nofma
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  nofma
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   nofma
	MOVB $1, ret+0(FP)
	RET

nofma:
	MOVB $0, ret+0(FP)
	RET
