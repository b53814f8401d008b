//go:build amd64

#include "textflag.h"

// func cpuSupportsAVX2FMA() bool
//
// CPUID leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28);
// XGETBV XCR0 bits 1|2 confirm the OS saves XMM/YMM state;
// CPUID leaf 7 EBX bit 5 is AVX2.
TEXT ·cpuSupportsAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18001000, R8
	CMPL R8, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX(alpha float32, x, y []float32)
//
// y[i] += alpha * x[i] for i < len(x). Caller guarantees
// len(y) >= len(x). 4x-unrolled 8-wide FMA body, then an 8-wide loop,
// then a scalar loop for the remainder.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	MOVQ CX, DX
	SHRQ $5, DX
	JZ   axpy_tail8
axpy_loop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VFMADD213PS (DI), Y0, Y1
	VFMADD213PS 32(DI), Y0, Y2
	VFMADD213PS 64(DI), Y0, Y3
	VFMADD213PS 96(DI), Y0, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  axpy_loop32
axpy_tail8:
	MOVQ CX, DX
	ANDQ $31, DX
	MOVQ DX, R8
	SHRQ $3, R8
	JZ   axpy_tail1
axpy_loop8:
	VMOVUPS (SI), Y1
	VFMADD213PS (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R8
	JNZ  axpy_loop8
axpy_tail1:
	ANDQ $7, DX
	JZ   axpy_done
axpy_loop1:
	VMOVSS (SI), X1
	VFMADD213SS (DI), X0, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ DX
	JNZ  axpy_loop1
axpy_done:
	VZEROUPPER
	RET

// func gemm4x16AVX(a []float32, lda int, b []float32, ldb int, c []float32, ldc int, k int)
//
// One 4×16 register tile: C[r][j] = Σ_p A[r][p]·B[p][j] for r < 4,
// j < 16, p < k, with row strides lda, ldb, ldc in elements. Caller
// guarantees every addressed element is in bounds. The tile lives in
// eight YMM accumulators (Y0..Y7, two per C row) that start at +0; per
// k step the kernel loads two B vectors, broadcasts the four A scalars
// and issues eight FMAs, so every C element is one ascending-k FMA
// chain. C is stored once, at the end.
TEXT ·gemm4x16AVX(SB), NOSPLIT, $0-104
	MOVQ a_base+0(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $2, R8
	MOVQ b_base+32(FP), DI
	MOVQ ldb+56(FP), R9
	SHLQ $2, R9
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), R10
	SHLQ $2, R10
	MOVQ k+96(FP), CX
	LEAQ (SI)(R8*1), R11  // A row 1
	LEAQ (R11)(R8*1), R12 // A row 2
	LEAQ (R12)(R8*1), R13 // A row 3
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JZ    g416_store

g416_loop:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (R11), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (R12), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VBROADCASTSS (R13), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ $4, SI
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ R9, DI
	DECQ CX
	JNZ  g416_loop

g416_store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    R10, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    R10, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    R10, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

// func dotAVX(x, y []float32) float32
//
// Inner product over len(x) elements. Caller guarantees
// len(y) >= len(x). Two independent 8-wide FMA accumulators hide
// FMA latency; horizontal reduction, then a scalar remainder loop.
TEXT ·dotAVX(SB), NOSPLIT, $0-52
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y5, Y5, Y5
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   dot_reduce
dot_loop16:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VFMADD231PS (DI), Y1, Y0
	VFMADD231PS 32(DI), Y2, Y5
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  dot_loop16
dot_reduce:
	VADDPS Y5, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	ANDQ $15, CX
	JZ   dot_done
dot_loop1:
	VMOVSS (SI), X1
	VMOVSS (DI), X2
	VFMADD231SS X2, X1, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  dot_loop1
dot_done:
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func dotQ8x4AVX(x, w []int8, out *[4]int32)
//
// Four int8 dot products of x against the four consecutive
// length-len(x) rows packed in w (row stride = len(x)):
// out[r] = Σ x[i]·w[r·len(x)+i], accumulated exactly in int32.
// Caller guarantees len(w) >= 4*len(x).
//
// The 16-wide body widens 16 int8 to int16 (VPMOVSXBW), multiplies and
// pair-sums into 8 int32 lanes (VPMADDWD, exact: |a·b| ≤ 127² so the
// pair sum fits int16-product range into int32), and accumulates with
// VPADDD. The activation row is widened once per group and reused by
// all four weight rows. Every add is an int32 add, so any summation
// order gives the same bits as the scalar fallback.
TEXT ·dotQ8x4AVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), DI
	MOVQ out+48(FP), R9
	MOVQ CX, BX           // row stride = len(x)
	LEAQ (BX)(BX*2), R11  // 3*stride
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   dq8_reduce

dq8_loop16:
	VPMOVSXBW (SI), Y4
	VPMOVSXBW (DI), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (DI)(BX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVSXBW (DI)(BX*2), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y2, Y2
	VPMOVSXBW (DI)(R11*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y3, Y3
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ DX
	JNZ  dq8_loop16

dq8_reduce:
	// Horizontal-reduce each 8-lane accumulator into a scalar register
	// so the tail loop can add into plain int32s.
	VEXTRACTI128 $1, Y0, X4
	VPADDD  X4, X0, X0
	VPSHUFD $0x4E, X0, X4
	VPADDD  X4, X0, X0
	VPSHUFD $0xB1, X0, X4
	VPADDD  X4, X0, X0
	VMOVD   X0, R8
	VEXTRACTI128 $1, Y1, X4
	VPADDD  X4, X1, X1
	VPSHUFD $0x4E, X1, X4
	VPADDD  X4, X1, X1
	VPSHUFD $0xB1, X1, X4
	VPADDD  X4, X1, X1
	VMOVD   X1, R10
	VEXTRACTI128 $1, Y2, X4
	VPADDD  X4, X2, X2
	VPSHUFD $0x4E, X2, X4
	VPADDD  X4, X2, X2
	VPSHUFD $0xB1, X2, X4
	VPADDD  X4, X2, X2
	VMOVD   X2, R12
	VEXTRACTI128 $1, Y3, X4
	VPADDD  X4, X3, X3
	VPSHUFD $0x4E, X3, X4
	VPADDD  X4, X3, X3
	VPSHUFD $0xB1, X3, X4
	VPADDD  X4, X3, X3
	VMOVD   X3, R13
	ANDQ $15, CX
	JZ   dq8_store

dq8_tail1:
	MOVBLSX (SI), AX
	MOVBLSX (DI), DX
	IMULL   AX, DX
	ADDL    DX, R8
	MOVBLSX (DI)(BX*1), DX
	IMULL   AX, DX
	ADDL    DX, R10
	MOVBLSX (DI)(BX*2), DX
	IMULL   AX, DX
	ADDL    DX, R12
	MOVBLSX (DI)(R11*1), DX
	IMULL   AX, DX
	ADDL    DX, R13
	INCQ SI
	INCQ DI
	DECQ CX
	JNZ  dq8_tail1

dq8_store:
	MOVL R8, (R9)
	MOVL R10, 4(R9)
	MOVL R12, 8(R9)
	MOVL R13, 12(R9)
	VZEROUPPER
	RET

// func maxAbsAVX(x []float32) float32
//
// Max |x[i]| over len(x) elements; len(x) must be a positive multiple
// of 8. The accumulator is the SECOND source of every VMAXPS, so a NaN
// data lane yields the accumulator (MAXPS returns the second source
// when either operand is NaN) — NaNs are ignored, matching
// maxAbsGeneric, where a NaN loses every comparison.
TEXT ·maxAbsAVX(SB), NOSPLIT, $0-28
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX

	// Y3 = 0x7FFFFFFF lanes (abs mask), built without a constants section.
	VPCMPEQD Y3, Y3, Y3
	VPSRLD   $1, Y3, Y3
	VXORPS   Y0, Y0, Y0 // accumulator; |x| >= 0 so 0 is the identity

ma_loop8:
	VMOVUPS (SI), Y1
	VANDPS  Y3, Y1, Y1
	VMAXPS  Y0, Y1, Y0 // max(data, acc): acc survives NaN data lanes
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     ma_loop8

	// Horizontal max of Y0's 8 lanes.
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X0, X1, X0
	VPSHUFD      $0x4E, X0, X1
	VMAXPS       X0, X1, X0
	VPSHUFD      $0xB1, X0, X1
	VMAXPS       X0, X1, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func quantize32AVX(dst []int8, src []float32, inv float32)
//
// Quantizes src into dst, 32 floats per iteration; len(src) must be a
// positive multiple of 32, len(dst) >= len(src). Per lane, bit-exactly
// quantizeVal: r = x*inv, add copysign(0.5, r), clamp to [-127, 127] in
// float (so overflow and the ±126.5 thresholds behave like the scalar
// branches), truncate toward zero, and zero NaN lanes via a self-equal
// mask. The four int32 vectors pack to int8 through VPACKSSDW/WB with
// VPERMQ $0xD8 fixing the per-128-bit-lane interleave after each pack.
TEXT ·quantize32AVX(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

	VBROADCASTSS inv+48(FP), Y14

	// Constants: sign mask, 0.5, 127.0, -127.0.
	VPCMPEQD Y15, Y15, Y15
	VPSLLD   $31, Y15, Y10
	MOVL     $0x3F000000, AX
	VMOVD    AX, X11
	VPBROADCASTD X11, Y11
	MOVL     $0x42FE0000, AX
	VMOVD    AX, X12
	VPBROADCASTD X12, Y12
	MOVL     $0xC2FE0000, AX
	VMOVD    AX, X13
	VPBROADCASTD X13, Y13

q32_loop:
	// Group 0: elements 0-7 -> int32 in Y1.
	VMOVUPS    (SI), Y0
	VMULPS     Y14, Y0, Y0
	VANDPS     Y10, Y0, Y2
	VORPS      Y11, Y2, Y2
	VADDPS     Y2, Y0, Y2
	VMINPS     Y12, Y2, Y2
	VMAXPS     Y13, Y2, Y2
	VCVTTPS2DQ Y2, Y2
	VCMPPS     $0, Y0, Y0, Y0 // ordered self-equal: NaN lanes -> 0
	VPAND      Y0, Y2, Y1

	// Group 1: elements 8-15 -> Y3.
	VMOVUPS    32(SI), Y0
	VMULPS     Y14, Y0, Y0
	VANDPS     Y10, Y0, Y2
	VORPS      Y11, Y2, Y2
	VADDPS     Y2, Y0, Y2
	VMINPS     Y12, Y2, Y2
	VMAXPS     Y13, Y2, Y2
	VCVTTPS2DQ Y2, Y2
	VCMPPS     $0, Y0, Y0, Y0
	VPAND      Y0, Y2, Y3

	// Group 2: elements 16-23 -> Y5.
	VMOVUPS    64(SI), Y0
	VMULPS     Y14, Y0, Y0
	VANDPS     Y10, Y0, Y2
	VORPS      Y11, Y2, Y2
	VADDPS     Y2, Y0, Y2
	VMINPS     Y12, Y2, Y2
	VMAXPS     Y13, Y2, Y2
	VCVTTPS2DQ Y2, Y2
	VCMPPS     $0, Y0, Y0, Y0
	VPAND      Y0, Y2, Y5

	// Group 3: elements 24-31 -> Y7.
	VMOVUPS    96(SI), Y0
	VMULPS     Y14, Y0, Y0
	VANDPS     Y10, Y0, Y2
	VORPS      Y11, Y2, Y2
	VADDPS     Y2, Y0, Y2
	VMINPS     Y12, Y2, Y2
	VMAXPS     Y13, Y2, Y2
	VCVTTPS2DQ Y2, Y2
	VCMPPS     $0, Y0, Y0, Y0
	VPAND      Y0, Y2, Y7

	// int32x8 x4 -> int16x16 x2 -> int8x32, fixing lane interleave.
	VPACKSSDW Y3, Y1, Y1
	VPERMQ    $0xD8, Y1, Y1
	VPACKSSDW Y7, Y5, Y5
	VPERMQ    $0xD8, Y5, Y5
	VPACKSSWB Y5, Y1, Y1
	VPERMQ    $0xD8, Y1, Y1
	VMOVDQU   Y1, (DI)

	ADDQ $128, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  q32_loop

	VZEROUPPER
	RET
