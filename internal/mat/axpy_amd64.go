//go:build amd64

package mat

// The GEMM row kernels dispatch to hand-written AVX axpy loops when the CPU
// supports them. Vector lanes span the j (output-column) dimension, so each
// output cell's products are still summed one at a time in ascending
// reduction order — four *different* cells advance per instruction, no
// cell's own add chain is ever reassociated. TestGemmRowsGoMatchesAVX and
// the FP64 golden hashes in internal/lstm pin this: the assembly path and
// the pure-Go path must produce byte-identical results.

// hasAVX reports whether the CPU and OS support AVX (VEX-encoded YMM ops
// plus OS-saved YMM state). Checked once at init.
var hasAVX = cpuHasAVX()

// cpuHasAVX executes CPUID leaf 1 and XGETBV to verify both the AVX feature
// bit and OS support for YMM state.
func cpuHasAVX() bool

// axpyQuadAVX64 computes, for j in [0,n):
//
//	dst[j] = ((dst[j] + a0*b0[j]) + a1*b1[j] + a2*b2[j]) + a3*b3[j]
//
// with the four contributions applied in argument order — the same sequence
// of rounding steps as the pure-Go quad loop in gemmIntoRowsGo and
// gemmTAAccumRowsGo.
//
//go:noescape
func axpyQuadAVX64(dst, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

// axpyAVX64 computes dst[j] += a*b[j] for j in [0,n).
//
//go:noescape
func axpyAVX64(dst, b *float64, n int, a float64)

// axpyOctAVX64 applies eight accumulation steps dst[j] += a[s]*bs[j] in
// argument order — the identical rounding chain as two quad calls, with half
// the call overhead. a points at 8 contiguous coefficients.
//
//go:noescape
func axpyOctAVX64(dst, b0, b1, b2, b3, b4, b5, b6, b7 *float64, n int, a *float64)

// taccumOctAVX64 applies axpyOctAVX64's eight in-order accumulation steps to
// `rows` consecutive dst rows of width n, reading a distinct 8-coefficient
// set per row from the transposed staging block coef (row r uses
// coef[8r:8r+8]). One call amortizes setup over the whole row range.
//
//go:noescape
func taccumOctAVX64(dst, coef, b0, b1, b2, b3, b4, b5, b6, b7 *float64, rows, n int)

// taccumQuadAVX64 is the four-step sibling of taccumOctAVX64 (row r uses
// coef[4r:4r+4]).
//
//go:noescape
func taccumQuadAVX64(dst, coef, b0, b1, b2, b3 *float64, rows, n int)

// taccumRank1AVX64 accumulates the rank-1 update dst[r][j] += coef[r]*b[j]
// over `rows` consecutive dst rows of width n.
//
//go:noescape
func taccumRank1AVX64(dst, coef, b *float64, rows, n int)
