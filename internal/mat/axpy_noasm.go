//go:build !amd64

package mat

// Non-amd64 builds always take the pure-Go kernels; the stubs below are
// never reached (the dispatch sites check hasAVX first) but keep the
// package compiling on every platform.

const hasAVX = false

func axpyQuadAVX64(dst, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64) {
	panic("mat: axpyQuadAVX64 called without AVX support")
}

func axpyAVX64(dst, b *float64, n int, a float64) {
	panic("mat: axpyAVX64 called without AVX support")
}

func axpyOctAVX64(dst, b0, b1, b2, b3, b4, b5, b6, b7 *float64, n int, a *float64) {
	panic("mat: axpyOctAVX64 called without AVX support")
}

func taccumOctAVX64(dst, coef, b0, b1, b2, b3, b4, b5, b6, b7 *float64, rows, n int) {
	panic("mat: taccumOctAVX64 called without AVX support")
}

func taccumQuadAVX64(dst, coef, b0, b1, b2, b3 *float64, rows, n int) {
	panic("mat: taccumQuadAVX64 called without AVX support")
}

func taccumRank1AVX64(dst, coef, b *float64, rows, n int) {
	panic("mat: taccumRank1AVX64 called without AVX support")
}

// The row kernels below write nothing and report so; their callers then
// take the scalar functions for every element.

const hasAVX2FMA = false

func expRowAVX2(dst, src *float64, n int) int { return 0 }

func sigmoidRowAVX2(dst, src *float64, n int) int { return 0 }

func tanhRowAVX2(dst, src *float64, n int) int { return 0 }

func adamAVX(param, grad, m, v *float64, n int, k *AdamCoef) int { return 0 }
