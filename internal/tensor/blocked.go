// Blocked matrix multiplication kernels built on the SIMD primitives in
// simd_amd64.s (8-wide AVX2 FMA, with a scalar fallback on other CPUs).
//
// The decomposition:
//
//   - C rows are processed in blocks of 4 (mrTile). Row blocks are
//     distributed across GOMAXPROCS goroutines via parallelWork, same
//     as the naive kernels.
//   - With AVX2+FMA, each full 4×16 tile of a full row block is one
//     call to the gemm4x16AVX register microkernel: the tile's 64 C
//     elements live in eight YMM accumulators for the whole k walk,
//     each k step is two B loads, four A broadcasts and eight FMAs, and
//     C is stored once at the end. The encoder's GEMMs are all skinny
//     (n = 16 or 32), so this removes the per-FMA reload and re-store of
//     C and the per-row axpy call.
//   - Edges take the axpy loop: the last row block when m%4 != 0, the
//     last n%16 columns of every block, and every block when the vector
//     kernels are off (no AVX2+FMA, or not amd64). Within a block the
//     loop walks k once and updates each C row with an 8-wide FMA over
//     the B row (axpy), skipping exact-zero A entries.
//   - MatMulTA uses the axpy loop only; MatMulTB is dot-product shaped
//     (both operands contiguous along k), so it uses the dot primitive
//     directly with no packing.
//
// Both MatMul paths compute every C element as the same ascending-k
// chain of single-rounding FMAs starting from +0, so the microkernel
// and the axpy loop agree bit for bit whenever B is finite: the axpy
// loop skips an exact-zero A entry and the microkernel adds fma(0, b, c),
// which is c for finite b. The one exception is the sign of a zero: a
// partial sum can underflow to -0, and -0 + 0·b is +0 for b > 0, while
// the skip keeps -0. The two compare equal. Model weights, the B operand
// of every inference GEMM, are checked finite at load. The 8-lane axpy
// and dot kernels keep k ascending but agree with the MatMul*Naive
// oracles only to float32 rounding (blocked_test.go pins 1e-5 relative),
// because the naive loops do not fuse the multiply and the add.

package tensor

import "fmt"

const (
	// mrTile is the number of C rows computed per block; sized so the
	// block's C rows and the current B row stay L1-resident.
	mrTile = 4
	// nrTile is the microkernel's C tile width: two 8-lane YMM
	// registers per C row.
	nrTile = 16
)

// matMulBlockedInto computes C = A·B into cD, overwriting it.
func matMulBlockedInto(aD, bD, cD []float32, m, k, n int) {
	// Columns [0, nTiled) of a full row block go through the 4×16
	// microkernel; the remaining columns, every column of a short row
	// block, and an empty (k = 0) product take the axpy loop.
	nTiled := 0
	if useSIMD && k > 0 {
		nTiled = n - n%nrTile
	}
	blocks := (m + mrTile - 1) / mrTile
	parallelWork(blocks, mrTile*k*n, func(lo, hi int) {
		var c, a [mrTile][]float32
		for blk := lo; blk < hi; blk++ {
			i := blk * mrTile
			rows := m - i
			if rows > mrTile {
				rows = mrTile
			}
			j0 := 0
			if rows == mrTile {
				for ; j0 < nTiled; j0 += nrTile {
					gemm4x16(aD[i*k:], k, bD[j0:], n, cD[i*n+j0:], n, k)
				}
				if j0 == n {
					continue
				}
			}
			for r := 0; r < rows; r++ {
				c[r] = cD[(i+r)*n+j0 : (i+r+1)*n]
				a[r] = aD[(i+r)*k : (i+r+1)*k]
				clear(c[r])
			}
			for p := 0; p < k; p++ {
				br := bD[p*n+j0 : (p+1)*n]
				for r := 0; r < rows; r++ {
					if av := a[r][p]; av != 0 {
						axpy(av, br, c[r])
					}
				}
			}
		}
	})
}

// gemm4x16 runs the 4×16 register microkernel on the tile whose top-left
// elements are a[0], b[0] and c[0], with row strides lda, ldb and ldc.
// k must be positive. The assembly does no bounds checks, so every
// element it addresses is checked here first.
func gemm4x16(a []float32, lda int, b []float32, ldb int, c []float32, ldc, k int) {
	_ = a[3*lda+k-1]
	_ = b[(k-1)*ldb+nrTile-1]
	_ = c[3*ldc+nrTile-1]
	gemm4x16AVX(a, lda, b, ldb, c, ldc, k)
}

// MatMul computes C = A·B for A of shape [m,k] and B of shape [k,n]
// using the blocked kernel. MatMulNaive is the reference oracle.
func MatMul(a, b *T) *T {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul %v × %v", a.Shape, b.Shape))
	}
	c := New(a.Shape[0], b.Shape[1])
	matMulBlockedInto(a.Data, b.Data, c.Data, a.Shape[0], a.Shape[1], b.Shape[1])
	return c
}

// MatMulInto computes C = A·B into out, which must already have shape
// [m,n]. Prior contents of out are overwritten, so arena-recycled
// buffers need no zeroing.
func MatMulInto(a, b, out *T) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul %v × %v", a.Shape, b.Shape))
	}
	if len(out.Shape) != 2 || out.Shape[0] != a.Shape[0] || out.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmul into %v, want [%d %d]", out.Shape, a.Shape[0], b.Shape[1]))
	}
	matMulBlockedInto(a.Data, b.Data, out.Data, a.Shape[0], a.Shape[1], b.Shape[1])
}

// MatMulTA computes C = Aᵀ·B for A [k,m] and B [k,n] using the blocked
// kernel. The A operand for C row i is the strided column A[:,i], read
// one scalar per k step — the axpy over B rows is still the vector op.
func MatMulTA(a, b *T) *T {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulTA %v × %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	aD, bD, cD := a.Data, b.Data, c.Data
	blocks := (m + mrTile - 1) / mrTile
	parallelWork(blocks, mrTile*k*n, func(lo, hi int) {
		var c [mrTile][]float32
		for blk := lo; blk < hi; blk++ {
			i := blk * mrTile
			rows := m - i
			if rows > mrTile {
				rows = mrTile
			}
			for r := 0; r < rows; r++ {
				c[r] = cD[(i+r)*n : (i+r+1)*n]
				clear(c[r])
			}
			for p := 0; p < k; p++ {
				br := bD[p*n : (p+1)*n]
				ar := aD[p*m+i : p*m+i+rows]
				for r := 0; r < rows; r++ {
					if av := ar[r]; av != 0 {
						axpy(av, br, c[r])
					}
				}
			}
		}
	})
	return c
}

// MatMulTB computes C = A·Bᵀ for A [m,k] and B [n,k] using the blocked
// kernel. Both operands are contiguous along k, so each C element is a
// single SIMD dot product; the row block keeps the A row hot across the
// sweep over B rows.
func MatMulTB(a, b *T) *T {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulTB %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	aD, bD, cD := a.Data, b.Data, c.Data
	parallelWork(m, k*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := aD[i*k : (i+1)*k]
			crow := cD[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] = dot(ar, bD[j*k:(j+1)*k])
			}
		}
	})
	return c
}
