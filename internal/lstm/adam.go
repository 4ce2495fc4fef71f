package lstm

import (
	"math"

	"leakydnn/internal/mat"
)

// Adam hyper-parameters (standard values).
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// adamState holds first/second-moment estimates for every parameter tensor.
type adamState struct {
	m, v params
	t    int
}

// step applies one Adam update of the parameters p from the gradient g.
// 1-adamBeta1 and 1-adamBeta2 are constant expressions, folded exactly
// before they are rounded to float64.
func (a *adamState) step(p, g params, lr float64) {
	a.t++
	k := mat.AdamCoef{
		Beta1: adamBeta1, OneMinusBeta1: 1 - adamBeta1,
		Beta2: adamBeta2, OneMinusBeta2: 1 - adamBeta2,
		LR:  lr,
		C1:  1 - math.Pow(adamBeta1, float64(a.t)),
		C2:  1 - math.Pow(adamBeta2, float64(a.t)),
		Eps: adamEps,
	}
	ps, gs, ms, vs := p.tensors(), g.tensors(), a.m.tensors(), a.v.tensors()
	for i := range ps {
		mat.AdamStep(ps[i], gs[i], ms[i], vs[i], &k)
	}
}
