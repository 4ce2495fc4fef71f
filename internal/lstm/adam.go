package lstm

import "math"

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

func newAdamState(cfg Config) *adamState {
	return &adamState{m: newParams(cfg), v: newParams(cfg)}
}

// step applies one Adam update of the parameters p from the gradient g.
func (a *adamState) step(p, g params, lr float64) {
	a.t++
	c1 := 1 - math.Pow(adamBeta1, float64(a.t))
	c2 := 1 - math.Pow(adamBeta2, float64(a.t))
	ps, gs, ms, vs := p.tensors(), g.tensors(), a.m.tensors(), a.v.tensors()
	for i := range ps {
		adamSlice(ps[i], gs[i], ms[i], vs[i], lr, c1, c2)
	}
}

func adamSlice(param, grad, m, v []float64, lr, c1, c2 float64) {
	for i, gi := range grad {
		m[i] = adamBeta1*m[i] + (1-adamBeta1)*gi
		v[i] = adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		mHat := m[i] / c1
		vHat := v[i] / c2
		param[i] -= lr * mHat / (math.Sqrt(vHat) + adamEps)
	}
}
