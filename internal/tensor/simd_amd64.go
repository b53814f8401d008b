//go:build amd64

package tensor

// useSIMD gates the AVX2+FMA kernels on runtime CPU support (CPUID
// feature bits plus OS XMM/YMM state saving).
var useSIMD = cpuSupportsAVX2FMA()

// cpuSupportsAVX2FMA reports whether the CPU and OS support the AVX2 and
// FMA instructions the assembly kernels use. Implemented in simd_amd64.s.
func cpuSupportsAVX2FMA() bool

// axpyAVX computes y[i] += alpha * x[i] over len(x) elements with
// 8-wide FMA. len(y) must be >= len(x). Implemented in simd_amd64.s.
//
//go:noescape
func axpyAVX(alpha float32, x, y []float32)

// dotAVX returns the inner product over len(x) elements with 8-wide
// FMA. len(y) must be >= len(x). Implemented in simd_amd64.s.
//
//go:noescape
func dotAVX(x, y []float32) float32

// gemm4x16AVX computes one 4×16 tile C = A·B over k steps, rows of A,
// B and C at element strides lda, ldb and ldc. Each C element is one
// ascending-k chain of FMAs from +0, stored once at the end. Caller
// guarantees a covers 3*lda+k elements, b covers (k-1)*ldb+16 and c
// covers 3*ldc+16. Implemented in simd_amd64.s.
//
//go:noescape
func gemm4x16AVX(a []float32, lda int, b []float32, ldb int, c []float32, ldc int, k int)

// dotQ8x4AVX computes four int8 dot products of x against the four
// consecutive length-len(x) rows packed in w (row stride = len(x)),
// writing exact int32 sums into out: VPMOVSXBW widens 16 int8 lanes to
// int16, VPMADDWD multiplies and pair-sums into int32, and the int32
// adds are exact, so the result is bit-identical to dotQ8x4Generic.
// Caller guarantees len(w) >= 4*len(x). Implemented in simd_amd64.s.
//
//go:noescape
func dotQ8x4AVX(x, w []int8, out *[4]int32)

// maxAbsAVX returns max |x[i]| over len(x) elements, 8 lanes at a time.
// len(x) must be a positive multiple of 8. NaN lanes are ignored (the
// MAXPS operand order keeps the accumulator when a lane is NaN), like
// the scalar fallback, whose comparisons a NaN never wins. Implemented
// in simd_amd64.s.
//
//go:noescape
func maxAbsAVX(x []float32) float32

// quantize32AVX quantizes src into dst with the reciprocal scale inv:
// round half away from zero (add ±0.5, truncate), clamp to [-127, 127],
// NaN to 0 — bit-identical to quantizeVal per element. len(src) must be
// a multiple of 32 and len(dst) >= len(src). Implemented in
// simd_amd64.s.
//
//go:noescape
func quantize32AVX(dst []int8, src []float32, inv float32)

func axpy(alpha float32, x, y []float32) {
	if useSIMD {
		axpyAVX(alpha, x, y)
		return
	}
	axpyGeneric(alpha, x, y)
}

func dot(x, y []float32) float32 {
	if useSIMD {
		return dotAVX(x, y)
	}
	return dotGeneric(x, y)
}

func dotQ8x4(x, w []int8, out *[4]int32) {
	if useSIMD {
		dotQ8x4AVX(x, w, out)
		return
	}
	dotQ8x4Generic(x, w, out)
}

func maxAbs(x []float32) float32 {
	if useSIMD && len(x) >= 8 {
		n := len(x) &^ 7
		m := maxAbsAVX(x[:n])
		if t := maxAbsGeneric(x[n:]); t > m {
			m = t
		}
		return m
	}
	return maxAbsGeneric(x)
}

func quantizeSpan(dst []int8, src []float32, inv float32) {
	if useSIMD {
		if n := len(src) &^ 31; n > 0 {
			quantize32AVX(dst[:n], src[:n], inv)
			dst, src = dst[n:], src[n:]
		}
	}
	quantizeGeneric(dst, src, inv)
}
