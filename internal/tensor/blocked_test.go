package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// close32 reports whether got and want agree to the mixed tolerance the
// ISSUE acceptance uses: |got-want| <= tol * (1 + |want|).
func close32(got, want float32, tol float64) bool {
	return math.Abs(float64(got-want)) <= tol*(1+math.Abs(float64(want)))
}

func randT(r *rand.Rand, shape ...int) *T {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

func compareT(t *testing.T, label string, got, want *T, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if !close32(got.Data[i], want.Data[i], tol) {
			t.Fatalf("%s: [%d] = %g, want %g", label, i, got.Data[i], want.Data[i])
		}
	}
}

// matMulShapes covers sizes off every blocking boundary: unit dims,
// non-multiples of the 4×4 tile, exact tile multiples, and skinny
// operands in each direction.
var matMulShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 3},
	{7, 1, 19}, {8, 8, 8}, {13, 17, 11}, {16, 33, 4}, {17, 31, 13},
	{33, 65, 29}, {64, 64, 64}, {2, 128, 3}, {65, 3, 66},
}

func TestMatMulBlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		a := randT(r, m, k)
		b := randT(r, k, n)
		compareT(t, fmt.Sprintf("matmul %v", s), MatMul(a, b), MatMulNaive(a, b), 1e-5)
	}
}

func TestMatMulTABlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		a := randT(r, k, m)
		b := randT(r, k, n)
		compareT(t, fmt.Sprintf("matmulTA %v", s), MatMulTA(a, b), MatMulTANaive(a, b), 1e-5)
	}
}

func TestMatMulTBBlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		a := randT(r, m, k)
		b := randT(r, n, k)
		compareT(t, fmt.Sprintf("matmulTB %v", s), MatMulTB(a, b), MatMulTBNaive(a, b), 1e-5)
	}
}

// TestMatMulBlockedMatchesNaiveScalar reruns the blocked-vs-naive
// property tests with the vector kernels switched off, so the scalar
// fallback stays covered on hosts that have AVX2+FMA.
func TestMatMulBlockedMatchesNaiveScalar(t *testing.T) {
	saved := useSIMD
	useSIMD = false
	defer func() { useSIMD = saved }()
	t.Run("MatMul", TestMatMulBlockedMatchesNaive)
	t.Run("MatMulTA", TestMatMulTABlockedMatchesNaive)
	t.Run("MatMulTB", TestMatMulTBBlockedMatchesNaive)
}

// matMulAxpyRef is the row-block axpy loop the blocked kernel used
// before the register microkernel: each C row starts at +0 and takes one
// axpy per nonzero A entry in ascending k.
func matMulAxpyRef(a, b *T) *T {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			if av := a.Data[i*k+p]; av != 0 {
				axpy(av, b.Data[p*n:(p+1)*n], crow)
			}
		}
	}
	return c
}

// TestMatMulMicroKernelBitIdentical pins MatMul and MatMulInto bit for
// bit against the axpy loop for finite B: the 4×16 microkernel must
// compute each C element as the same ascending-k FMA chain.
func TestMatMulMicroKernelBitIdentical(t *testing.T) {
	shapes := [][3]int{
		{12800, 54, 16}, // conv1: 50 tiles of 32×32 px, 6 bands × 3×3
		{3200, 144, 32}, // conv2
		{50, 2048, 32},  // latent dense
		{7, 5, 16},      // m%4 != 0
		{8, 9, 37},      // n%16 != 0
		{9, 6, 48},      // both edges, several column tiles
		{12, 5, 7},      // n < 16
		{9, 1, 33},      // k = 1
		{4, 16, 16},     // exactly one tile
	}
	r := rand.New(rand.NewSource(15))
	nan := float32(math.NaN())
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		b := randT(r, k, n)
		for _, fill := range []string{"dense", "zeros+nan"} {
			a := randT(r, m, k)
			if fill == "zeros+nan" {
				for i := range a.Data {
					switch u := r.Float64(); {
					case u < 0.3:
						a.Data[i] = 0
					case u < 0.4:
						a.Data[i] = float32(math.Copysign(0, -1))
					case u < 0.401:
						a.Data[i] = nan
					}
				}
			}
			want := matMulAxpyRef(a, b)
			label := fmt.Sprintf("%v %s", s, fill)
			sameBits(t, label+" MatMul", MatMul(a, b), want)
			out := New(m, n)
			for i := range out.Data {
				out.Data[i] = nan // dirty: the kernel must overwrite
			}
			MatMulInto(a, b, out)
			sameBits(t, label+" MatMulInto", out, want)
		}
	}
	// k = 0 is not a valid tensor shape, so drive the kernel directly:
	// the product is all +0, written over a dirty buffer.
	for _, mn := range [][2]int{{8, 16}, {7, 37}} {
		m, n := mn[0], mn[1]
		out := New(m, n)
		for i := range out.Data {
			out.Data[i] = nan
		}
		matMulBlockedInto(nil, nil, out.Data, m, 0, n)
		sameBits(t, fmt.Sprintf("k=0 %v", mn), out, New(m, n))
	}
}

// TestMatMulMicroKernelSignedZero pins the one documented way the
// microkernel and the axpy loop differ: a partial sum that underflows to
// -0 followed by an exact-zero A entry. The axpy loop skips the entry and
// keeps -0; the microkernel adds 0·b = +0 and gets +0. The values still
// compare equal.
func TestMatMulMicroKernelSignedZero(t *testing.T) {
	a, b := New(4, 2), New(2, nrTile)
	for r := 0; r < 4; r++ {
		a.Data[r*2] = -1e-30 // (-1e-30)·(1e-30) underflows to -0
	}
	for j := 0; j < nrTile; j++ {
		b.Data[j] = 1e-30
		b.Data[nrTile+j] = 1
	}
	got, want := MatMul(a, b), matMulAxpyRef(a, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] || got.Data[i] != 0 {
			t.Fatalf("[%d] = %g, want %g (zero)", i, got.Data[i], want.Data[i])
		}
	}
}

func sameBits(t *testing.T, label string, got, want *T) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
			t.Fatalf("%s: [%d] = %g (%#08x), want %g (%#08x)", label, i, got.Data[i], g, want.Data[i], w)
		}
	}
}

func TestMatMulIntoOverwritesDirtyBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := randT(r, 9, 15)
	b := randT(r, 15, 7)
	out := New(9, 7)
	for i := range out.Data {
		out.Data[i] = 1e9 // poison: kernel must overwrite, not accumulate
	}
	MatMulInto(a, b, out)
	compareT(t, "matmul into", out, MatMulNaive(a, b), 1e-5)
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched shapes")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

// convCases sweeps odd geometries: pad > 0, stride > 1, non-square-friendly
// input sizes, and kernel sizes that exercise both the fused 3×3 path and
// the generic fallback.
func TestConvFusedMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	cases := []struct {
		inC, outC, k, stride, pad, inH, inW int
	}{
		{1, 1, 3, 1, 0, 5, 5},
		{3, 4, 3, 1, 1, 7, 9},
		{2, 5, 3, 2, 1, 11, 6},
		{6, 16, 3, 2, 1, 16, 16}, // RICC encoder geometry
		{4, 3, 3, 3, 2, 10, 13},
		{2, 2, 3, 1, 2, 4, 3}, // pad wider than interior
		{3, 2, 3, 2, 0, 9, 7},
		{2, 3, 1, 1, 0, 6, 6},  // generic fallback: k=1
		{2, 3, 5, 2, 2, 11, 9}, // generic fallback: k=5
		{1, 2, 2, 1, 1, 5, 5},  // generic fallback: even kernel
	}
	for _, cs := range cases {
		g, err := NewConvGeom(cs.inC, cs.outC, cs.k, cs.stride, cs.pad, cs.inH, cs.inW)
		if err != nil {
			t.Fatalf("%+v: %v", cs, err)
		}
		for _, n := range []int{1, 3} {
			x := randT(r, n, cs.inC, cs.inH, cs.inW)
			w := randT(r, cs.outC, cs.inC, cs.k, cs.k)
			bias := randT(r, cs.outC)
			label := fmt.Sprintf("conv %+v n=%d", cs, n)
			compareT(t, label, ConvFused(x, w, bias, g), ConvDirect(x, w, bias, g), 1e-5)
			compareT(t, label+" nil-bias", ConvFused(x, w, nil, g), ConvDirect(x, w, nil, g), 1e-5)
		}
	}
}

func TestConvFusedIntoOverwritesDirtyBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g, err := NewConvGeom(3, 4, 3, 2, 1, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := randT(r, 2, 3, 9, 7)
	w := randT(r, 4, 3, 3, 3)
	out := New(2, 4, g.OutH, g.OutW)
	for i := range out.Data {
		out.Data[i] = -1e9
	}
	ConvFusedInto(x, w, nil, g, out)
	compareT(t, "conv into", out, ConvDirect(x, w, nil, g), 1e-5)
}

func TestIm2ColIntoReusesBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g, err := NewConvGeom(2, 3, 3, 1, 1, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	x := randT(r, 2, 2, 6, 6)
	want := Im2Col(x, g)
	buf := New(want.Shape[0], want.Shape[1])
	for i := range buf.Data {
		buf.Data[i] = 7 // dirty
	}
	got := Im2ColInto(x, g, buf)
	if &got.Data[0] != &buf.Data[0] {
		t.Fatal("Im2ColInto did not reuse the matching buffer")
	}
	compareT(t, "im2col into", got, want, 0)
	// Mismatched buffer: must allocate fresh, not clobber.
	small := New(1, 1)
	got2 := Im2ColInto(x, g, small)
	if &got2.Data[0] == &small.Data[0] {
		t.Fatal("Im2ColInto reused a mismatched buffer")
	}
	compareT(t, "im2col fresh", got2, want, 0)
}
