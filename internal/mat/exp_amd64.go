//go:build amd64

package mat

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves YMM
// state: the condition for the exp_amd64.s row kernels. Checked once at
// init; nothing else selects them.
var hasAVX2FMA = hasAVX && cpuHasAVX2FMA()

// cpuHasAVX2FMA reports the CPUID feature bits for AVX2 and FMA.
func cpuHasAVX2FMA() bool

// expRowAVX2, sigmoidRowAVX2 and tanhRowAVX2 write Exp, Sigmoid and Tanh of
// src to dst for whole 4-lane groups from the start, stopping before the
// first group with a lane outside the plain exponent range, and return how
// many elements they wrote.
//
//go:noescape
func expRowAVX2(dst, src *float64, n int) int

//go:noescape
func sigmoidRowAVX2(dst, src *float64, n int) int

//go:noescape
func tanhRowAVX2(dst, src *float64, n int) int

// adamAVX applies adamScalar's update to the first n&^3 elements and
// returns that count.
//
//go:noescape
func adamAVX(param, grad, m, v *float64, n int, k *AdamCoef) int
