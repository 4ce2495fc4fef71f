package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// naiveGemm computes dst = a·b the obvious way in the documented per-cell
// order (ascending k), as the reference for every kernel.
func naiveGemm(a, b []float64, m, k, n int) []float64 {
	dst := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				sum += a[i*k+p] * b[p*n+j]
			}
			dst[i*n+j] = sum
		}
	}
	return dst
}

func transpose(a []float64, rows, cols int) []float64 {
	out := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
	return out
}

// Both kernels must agree with the naive product on awkward shapes (unroll
// remainders, k spanning multiple panels). Cells are individually
// order-compatible, so the agreement is exact: register and memory
// accumulation of the same sequence of IEEE operations are identical.
func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 7, 3}, {3, 5, 1}, {4, 300, 9}, {5, 4, 6}, {2, 600, 5}, {7, 13, 11},
	}
	for _, sh := range shapes {
		a := randSlice(sh.m*sh.k, rng)
		b := randSlice(sh.k*sh.n, rng)
		want := naiveGemm(a, b, sh.m, sh.k, sh.n)

		dst := randSlice(sh.m*sh.n, rng) // stale content must be overwritten
		GemmInto(dst, a, b, sh.m, sh.k, sh.n)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("GemmInto %dx%dx%d: cell %d = %v, want %v", sh.m, sh.k, sh.n, i, dst[i], want[i])
			}
		}

		at := transpose(a, sh.m, sh.k) // k×m
		dst3 := make([]float64, sh.m*sh.n)
		base := randSlice(sh.m*sh.n, rng)
		copy(dst3, base)
		GemmTAAccum(dst3, at, b, sh.k, sh.m, sh.n)
		// GemmTAAccum adds products one at a time in ascending p order;
		// replicate that exactly.
		ref := make([]float64, sh.m*sh.n)
		copy(ref, base)
		for p := 0; p < sh.k; p++ {
			for i := 0; i < sh.m; i++ {
				for j := 0; j < sh.n; j++ {
					ref[i*sh.n+j] += at[p*sh.m+i] * b[p*sh.n+j]
				}
			}
		}
		for i := range ref {
			if dst3[i] != ref[i] {
				t.Fatalf("GemmTAAccum %dx%dx%d: cell %d = %v, want %v", sh.m, sh.k, sh.n, i, dst3[i], ref[i])
			}
		}
	}
}

// The per-sequence LSTM oracle runs row-order gemv and outer-product
// kernels; the engine replaces them with single-row GemmInto and p=1
// GemmTAAccum. Each must be bit-identical to the reference loop, or Batch=1
// training drifts from the golden hashes.
func TestGemmBitIdenticalToGemvKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k, n = 37, 23

	// dst = xᵀ·W, rows of W added in ascending order into a zeroed dst.
	w := randSlice(k*n, rng)
	x := randSlice(k, rng)
	want := make([]float64, n)
	for p, xv := range x {
		for j := range want {
			want[j] += w[p*n+j] * xv
		}
	}
	got := randSlice(n, rng) // stale content must be overwritten
	GemmInto(got, x, w, 1, k, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GemmInto m=1 cell %d = %b, row-order gemv gives %b", i, got[i], want[i])
		}
	}

	// m += u·vᵀ, one product per cell.
	u, v := randSlice(n, rng), randSlice(k, rng)
	ref := randSlice(n*k, rng)
	acc := append([]float64(nil), ref...)
	for i, uv := range u {
		for j, vv := range v {
			ref[i*k+j] += uv * vv
		}
	}
	GemmTAAccum(acc, u, v, 1, n, k)
	for i := range ref {
		if acc[i] != ref[i] {
			t.Fatalf("GemmTAAccum p=1 cell %d = %b, outer product gives %b", i, acc[i], ref[i])
		}
	}
}

// The package non-finite policy: a NaN/Inf operand propagates even when its
// partner entry is zero; a zero-skip fast path would silently produce
// finite garbage.
func TestNonFinitePropagation(t *testing.T) {
	inf := math.Inf(1)

	// a has a zero exactly where b carries Inf.
	dg := make([]float64, 2)
	GemmInto(dg, []float64{0, 1}, []float64{inf, 2, 3, 4}, 1, 2, 2)
	if !math.IsNaN(dg[0]) {
		t.Errorf("GemmInto swallowed 0*Inf: got %v, want NaN", dg[0])
	}
	dta := make([]float64, 4)
	GemmTAAccum(dta, []float64{0, 1}, []float64{inf, 2}, 1, 2, 2)
	if !math.IsNaN(dta[0]) {
		t.Errorf("GemmTAAccum swallowed 0*Inf: got %v, want NaN", dta[0])
	}
	nan := math.NaN()
	dn := make([]float64, 2)
	GemmInto(dn, []float64{nan, 0}, []float64{0, 0, 1, 1}, 1, 2, 2)
	if !math.IsNaN(dn[0]) || !math.IsNaN(dn[1]) {
		t.Errorf("GemmInto swallowed NaN*0: got %v, want NaN", dn)
	}
}

// Known answers: a 2×3 by 3×2 product by hand.
func TestMul(t *testing.T) {
	dst := make([]float64, 4)
	GemmInto(dst, []float64{1, 2, 3, 4, 5, 6}, []float64{7, 8, 9, 10, 11, 12}, 2, 3, 2)
	for i, v := range []float64{58, 64, 139, 154} {
		if dst[i] != v {
			t.Fatalf("GemmInto cell %d = %v, want %v", i, dst[i], v)
		}
	}
}

// Operand buffers whose sizes disagree with the stated dimensions must
// panic rather than read past a row.
func TestMulShapeMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"GemmInto a":    func() { GemmInto(make([]float64, 4), make([]float64, 5), make([]float64, 6), 2, 3, 2) },
		"GemmInto b":    func() { GemmInto(make([]float64, 4), make([]float64, 6), make([]float64, 4), 2, 3, 2) },
		"GemmTAAccum a": func() { GemmTAAccum(make([]float64, 4), make([]float64, 4), make([]float64, 6), 3, 2, 2) },
		"GemmTAAccum b": func() { GemmTAAccum(make([]float64, 4), make([]float64, 6), make([]float64, 4), 3, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: size mismatch not rejected", name)
				}
			}()
			fn()
		}()
	}
}

// Known answers for a matrix-vector product: x·Aᵀ with GemmInto at m=1.
func TestMulVec(t *testing.T) {
	at := []float64{1, 2, 0, 2, -1, 2} // Aᵀ of A = [[1 0 -1] [2 2 2]]
	got := make([]float64, 2)
	GemmInto(got, []float64{3, 4, 5}, at, 1, 3, 2)
	for i, v := range []float64{-2, 24} {
		if got[i] != v {
			t.Fatalf("cell %d = %v, want %v", i, got[i], v)
		}
	}
}

// Known answers for a transposed matrix-vector product: Aᵀ·x with
// GemmTAAccum at n=1.
func TestMulVecT(t *testing.T) {
	got := make([]float64, 3)
	GemmTAAccum(got, []float64{1, 2, 3, 4, 5, 6}, []float64{1, 1}, 2, 3, 1)
	for i, v := range []float64{5, 7, 9} {
		if got[i] != v {
			t.Fatalf("cell %d = %v, want %v", i, got[i], v)
		}
	}
}

// GemmTAAccum into a zeroed dst must agree with GemmInto over an explicitly
// transposed operand: both sum each cell in ascending reduction order.
func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const p, m, n = 6, 4, 5
	a := randSlice(p*m, rng)
	b := randSlice(p*n, rng)
	got := make([]float64, m*n)
	GemmTAAccum(got, a, b, p, m, n)
	want := make([]float64, m*n)
	GemmInto(want, transpose(a, p, m), b, m, p, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Known answers for an outer product: GemmTAAccum at p=1.
func TestAddOuter(t *testing.T) {
	m := make([]float64, 4)
	GemmTAAccum(m, []float64{1, 2}, []float64{3, 4}, 1, 2, 2)
	for i, v := range []float64{3, 4, 6, 8} {
		if m[i] != v {
			t.Fatalf("cell %d = %v, want %v", i, m[i], v)
		}
	}
}

// Property: (A B) x == A (B x) for random matrices, to rounding.
func TestMulAssociativityWithVector(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		a := randSlice(3*4, rng)
		b := randSlice(4*5, rng)
		x := randSlice(5, rng)
		ab := make([]float64, 3*5)
		GemmInto(ab, a, b, 3, 4, 5)
		left := make([]float64, 3)
		GemmInto(left, ab, x, 3, 5, 1)
		bx := make([]float64, 4)
		GemmInto(bx, b, x, 4, 5, 1)
		right := make([]float64, 3)
		GemmInto(right, a, bx, 3, 4, 1)
		for i := range left {
			if math.Abs(left[i]-right[i]) > 1e-9 {
				t.Fatalf("trial %d: (AB)x[%d]=%v != A(Bx)[%d]=%v", trial, i, left[i], i, right[i])
			}
		}
	}
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randSlice(64*64, rng)
	y := randSlice(64*64, rng)
	dst := make([]float64, 64*64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmInto(dst, x, y, 64, 64, 64)
	}
}

// The pure-Go row loops are the only GEMM path on arm64 and on CPUs without
// AVX, and no other test reaches them on an AVX host. Each must match its
// AVX row kernel bit for bit on every tail: n mod 4 and n mod 8 remainders
// (the vector lanes), reduction lengths that are not multiples of 4 or 8
// (the quad/oct unrolls), m = 1, row counts that exceed the 128-row
// staging chunk, and NaN/Inf operands.
func TestGemmRowsGoMatchesAVX(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this CPU: the pure-Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(5))
	operand := func(n int) []float64 {
		out := randSlice(n, rng)
		for i := range out {
			switch rng.Intn(40) {
			case 0:
				out[i] = math.NaN()
			case 1:
				out[i] = math.Inf(1)
			case 2:
				out[i] = math.Inf(-1)
			case 3:
				out[i] = 0
			}
		}
		return out
	}
	// NaN payloads are not part of the contract (x86 keeps the first NaN
	// operand's, and operand order is the compiler's choice), so any NaN
	// matches any NaN; every other result must match bit for bit.
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	check := func(op string, m, k, n int, got, want []float64) {
		t.Helper()
		for c := range want {
			if !same(got[c], want[c]) {
				t.Fatalf("%s m=%d k=%d n=%d: cell %d Go %v (%#x) != AVX %v (%#x)",
					op, m, k, n, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	}
	ns := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17}
	ks := []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 17}
	for _, m := range []int{1, 2, 3, 130} {
		for _, k := range ks {
			for _, n := range ns {
				if m == 130 && n > 5 {
					continue // the staging chunk needs many rows, not wide ones
				}
				a := operand(m * k)
				b := operand(k * n)
				stale := operand(m * n)
				goDst := append([]float64(nil), stale...)
				avxDst := append([]float64(nil), stale...)
				gemmIntoRowsGo(goDst, a, b, m, k, n)
				gemmIntoRowsAVX(avxDst, a, b, m, k, n)
				check("gemmIntoRows", m, k, n, goDst, avxDst)

				// Aᵀ·B accumulate: a is k×m, b is k×n, reduction over k.
				copy(goDst, stale)
				copy(avxDst, stale)
				gemmTAAccumRowsGo(goDst, a, b, k, m, n)
				gemmTAAccumRowsAVX(avxDst, a, b, k, m, n)
				check("gemmTAAccumRows", m, k, n, goDst, avxDst)
			}
		}
	}
}
