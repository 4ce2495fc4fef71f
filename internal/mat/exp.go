package mat

import "math"

// This file owns the float64 transcendentals the learning components use.
// On amd64, math.Exp picks one of two assembly branches at run time, FMA or
// not, and they differ in the last bit on roughly 9% of inputs; every LSTM
// hash would then depend on the CPU it ran on. Exp is instead a pure-Go port
// of the FMA branch ($GOROOT/src/math/exp_amd64.s, after Shibata, ISC'10),
// operation for operation, with every fused step on math.FMA, which is
// correctly rounded on every platform. Tanh ports math.tanh on top of it.
// Products are wrapped in float64() wherever the next operation adds, so no
// compiler may fuse them: the bits of Exp, Tanh and Sigmoid are the same on
// every CPU and architecture, and equal math.Exp/math.Tanh wherever those
// take their FMA branch. TestTranscendentalsGolden pins them.
//
// SigmoidInto, TanhInto and the softmax's exp row run 4 lanes at a time in
// AVX2+FMA assembly where the CPU has it (exp_amd64.s). A lane performs the
// port's operations exactly: each math.FMA as a VFMADD…PD, every other step
// as its own VMULPD/VADDPD/VDIVPD. A 4-lane group with a lane outside the
// plain exponent range (NaN, ±Inf, overflow, underflow to a denormal or to
// zero) takes the scalar port instead, so the assembly carries no special
// cases and stays bit-identical (FuzzActivationRows).

const (
	expLog2E    = 1.4426950408889634073599246810018920 // 1/ln 2
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02

	// Taylor coefficients of exp_amd64.s's reduced-argument series, highest
	// degree first.
	expT8 = 2.4801587301587301587e-5
	expT7 = 1.9841269841269841270e-4
	expT6 = 1.3888888888888888889e-3
	expT5 = 8.3333333333333333333e-3
	expT4 = 4.1666666666666666667e-2
	expT3 = 1.6666666666666666667e-1
	expT2 = 0.5
	expT1 = 1.0
)

// Exp returns e**x, bit-identical to the FMA branch of math.Exp on amd64.
// Special cases are those of math.Exp: Exp(+Inf) = +Inf, Exp(-Inf) = 0,
// Exp(NaN) = NaN, and overflow to +Inf.
func Exp(x float64) float64 {
	const posInf, negInf = 0x7FF0000000000000, 0xFFF0000000000000
	bits := math.Float64bits(x)
	if bits&^(1<<63) >= posInf {
		if bits == negInf {
			return 0
		}
		return x // NaN or +Inf
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	e := roundToInt32(expLog2E * x)
	fe := float64(e)
	r := math.FMA(-expLn2U, fe, x)
	r = math.FMA(-expLn2L, fe, r)
	r = float64(r * 0.0625)
	p := math.FMA(expT8, r, expT7)
	p = math.FMA(p, r, expT6)
	p = math.FMA(p, r, expT5)
	p = math.FMA(p, r, expT4)
	p = math.FMA(p, r, expT3)
	p = math.FMA(p, r, expT2)
	p = math.FMA(p, r, expT1)
	r = float64(r * p)
	for range 3 {
		p = r + 2
		r = float64(r * p)
	}
	p = r + 2
	r = math.FMA(r, p, 1)
	// r * 2**e, through the denormal range in two steps.
	e += 0x3FF
	if e <= 0 {
		if e < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// roundToInt32 converts a finite x to int32 the way CVTSD2SL does under the
// default rounding mode: to nearest, ties to even, with the "integer
// indefinite" value -2³¹ for anything out of range.
func roundToInt32(x float64) int32 {
	r := math.RoundToEven(x)
	if r < math.MinInt32 || r > math.MaxInt32 {
		return math.MinInt32
	}
	return int32(r)
}

// tanh's rational approximation on |x| < 0.625 (Cephes, via math.tanh).
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3

	// tanhSat is where math.tanh saturates to ±1: half of log(2**127).
	tanhSat = 0.5 * 8.8029691931113054295988e+01
	// tanhRational bounds the rational approximation's range.
	tanhRational = 0.625
)

// Tanh returns the hyperbolic tangent of x: a port of math.tanh on Exp, so
// it equals math.Tanh wherever math.Exp takes its FMA branch. Tanh(±0) =
// ±0, Tanh(±Inf) = ±1, Tanh(NaN) = NaN.
func Tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > tanhSat:
		if x < 0 {
			return -1
		}
		return 1
	case z >= tanhRational:
		s := Exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := float64(x * x)
		num := float64(float64(float64(tanhP0*s)+tanhP1)*s) + tanhP2
		den := float64(float64(float64(float64(s+tanhQ0)*s)+tanhQ1)*s) + tanhQ2
		z = x + float64(float64(x*s)*num)/den
	}
	return z
}

// Sigmoid returns 1/(1+e^{-x}).
func Sigmoid(x float64) float64 {
	return 1 / (1 + Exp(-x))
}

// SigmoidInto writes Sigmoid(src[i]) to dst[i]. dst and src may alias
// exactly.
func SigmoidInto(dst, src []float64) {
	checkVecLen(dst, src, "sigmoidinto")
	rowInto(dst, src, sigmoidRowAVX2, Sigmoid)
}

// TanhInto writes Tanh(src[i]) to dst[i]. dst and src may alias exactly.
func TanhInto(dst, src []float64) {
	checkVecLen(dst, src, "tanhinto")
	rowInto(dst, src, tanhRowAVX2, Tanh)
}

// expInto writes Exp(src[i]) to dst[i]. dst and src may alias exactly.
func expInto(dst, src []float64) {
	rowInto(dst, src, expRowAVX2, Exp)
}

// rowInto applies f element-wise. Where the CPU has AVX2 and FMA, lanes runs
// whole 4-lane groups and returns how many elements it wrote, stopping early
// at a group it declines; that group and the tail take f.
func rowInto(dst, src []float64, lanes func(dst, src *float64, n int) int, f func(float64) float64) {
	n := len(src)
	for i := 0; i < n; {
		if hasAVX2FMA && n-i >= 4 {
			i += lanes(&dst[i], &src[i], n-i)
		}
		for end := min(i+4, n); i < end; i++ {
			dst[i] = f(src[i])
		}
	}
}
