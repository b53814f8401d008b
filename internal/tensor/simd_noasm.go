//go:build !amd64

package tensor

// useSIMD is always false off amd64: the scalar fallbacks are used.
var useSIMD = false

// gemm4x16AVX is never called off amd64, where useSIMD is false; it
// exists so the kernel dispatch in blocked.go compiles everywhere.
func gemm4x16AVX(a []float32, lda int, b []float32, ldb int, c []float32, ldc int, k int) {
	panic("tensor: gemm4x16AVX called without AVX2+FMA")
}

func axpy(alpha float32, x, y []float32) { axpyGeneric(alpha, x, y) }

func dot(x, y []float32) float32 { return dotGeneric(x, y) }

func dotQ8x4(x, w []int8, out *[4]int32) { dotQ8x4Generic(x, w, out) }

func maxAbs(x []float32) float32 { return maxAbsGeneric(x) }

func quantizeSpan(dst []int8, src []float32, inv float32) { quantizeGeneric(dst, src, inv) }
