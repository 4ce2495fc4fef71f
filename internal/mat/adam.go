package mat

import "math"

// AdamCoef holds one Adam step's coefficients. The asm kernel reads the
// fields by offset, in declaration order. OneMinusBeta1 and OneMinusBeta2
// are passed in rather than computed here, so a caller can hand over Go
// constant expressions, which are folded exactly before rounding (1-0.9 is
// 0.1, while the float64 subtraction gives 0.09999999999999998).
type AdamCoef struct {
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	LR                   float64
	C1, C2               float64 // bias corrections 1-β1ᵗ and 1-β2ᵗ
	Eps                  float64
}

// AdamStep applies one Adam update to param from grad, advancing the
// moment estimates m and v in place. All four slices have the same length.
// On AVX CPUs whole 4-lane groups run in assembly with the same operations
// in the same association and no fused step, so the result is bit-identical
// to the scalar loop.
func AdamStep(param, grad, m, v []float64, k *AdamCoef) {
	n := len(grad)
	if len(param) != n || len(m) != n || len(v) != n {
		panic("mat: AdamStep length mismatch")
	}
	i := 0
	if hasAVX && n >= 4 {
		i = adamAVX(&param[0], &grad[0], &m[0], &v[0], n, k)
	}
	adamScalar(param[i:], grad[i:], m[i:], v[i:], k)
}

// adamScalar is AdamStep's element loop.
func adamScalar(param, grad, m, v []float64, k *AdamCoef) {
	for i, gi := range grad {
		m[i] = float64(k.Beta1*m[i]) + float64(k.OneMinusBeta1*gi)
		v[i] = float64(k.Beta2*v[i]) + float64(k.OneMinusBeta2*gi*gi)
		mHat := m[i] / k.C1
		vHat := v[i] / k.C2
		param[i] -= k.LR * mHat / (math.Sqrt(vHat) + k.Eps)
	}
}
