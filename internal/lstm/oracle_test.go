package lstm

import (
	"math"

	"leakydnn/internal/mat"
)

// This file keeps the textbook per-sequence LSTM as a test oracle: gemv
// forward and BPTT backward over one sequence at a time, straight from the
// equations. The engine must reproduce it bit for bit at Batch=1, for
// training and for every prediction entry point.

// oracleStep holds one timestep's forward intermediates.
type oracleStep struct {
	x            []float64
	i, f, g, o   []float64
	c, h, tanhC  []float64
	probs        []float64
	hPrev, cPrev []float64
}

// oracleForward runs the network over one sequence and returns the
// per-step intermediates.
func oracleForward(n *Network, inputs [][]float64) []*oracleStep {
	h, in, c := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	wx := mat.FromSlice(4*h, in, n.p.wx)
	wh := mat.FromSlice(4*h, h, n.p.wh)
	wy := mat.FromSlice(c, h, n.p.wy)
	zero := make([]float64, h)
	hPrev, cPrev := zero, zero
	z := make([]float64, 4*h)
	logits := make([]float64, c)

	steps := make([]*oracleStep, len(inputs))
	for t, x := range inputs {
		sc := &oracleStep{
			x: x, hPrev: hPrev, cPrev: cPrev,
			i: make([]float64, h), f: make([]float64, h), g: make([]float64, h), o: make([]float64, h),
			c: make([]float64, h), h: make([]float64, h), tanhC: make([]float64, h),
			probs: make([]float64, c),
		}
		mat.MulVecInto(z, wx, x)
		mat.MulVecAccum(z, wh, hPrev)
		mat.AddVec(z, n.p.b)
		for j := 0; j < h; j++ {
			sc.i[j] = mat.Sigmoid(z[j])
			sc.f[j] = mat.Sigmoid(z[h+j])
			sc.g[j] = math.Tanh(z[2*h+j])
			sc.o[j] = mat.Sigmoid(z[3*h+j])
			sc.c[j] = sc.f[j]*cPrev[j] + sc.i[j]*sc.g[j]
			sc.tanhC[j] = math.Tanh(sc.c[j])
			sc.h[j] = sc.o[j] * sc.tanhC[j]
		}
		mat.MulVecInto(logits, wy, sc.h)
		mat.AddVec(logits, n.p.by)
		mat.SoftmaxInto(sc.probs, logits)
		steps[t] = sc
		hPrev, cPrev = sc.h, sc.c
	}
	return steps
}

// oracleBackward accumulates one sequence's gradient into g and returns its
// summed weighted cross-entropy loss, counted timesteps and correct
// predictions.
func oracleBackward(n *Network, seq Sequence, g params[float64]) (loss float64, counted, correct int) {
	caches := oracleForward(n, seq.Inputs)
	h, in, c := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	wh := mat.FromSlice(4*h, h, n.p.wh)
	wy := mat.FromSlice(c, h, n.p.wy)
	gwx := mat.FromSlice(4*h, in, g.wx)
	gwh := mat.FromSlice(4*h, h, g.wh)
	gwy := mat.FromSlice(c, h, g.wy)

	dh, dc, hTmp := make([]float64, h), make([]float64, h), make([]float64, h)
	dhNext, dcNext := make([]float64, h), make([]float64, h)
	dz, dLogits := make([]float64, 4*h), make([]float64, c)

	for t := len(caches) - 1; t >= 0; t-- {
		sc := caches[t]
		copy(dh, dhNext)

		if seq.Mask == nil || seq.Mask[t] {
			label := seq.Labels[t]
			w := 1.0
			if n.cfg.ClassWeights != nil {
				w = n.cfg.ClassWeights[label]
			}
			p := sc.probs[label]
			if p < 1e-12 {
				p = 1e-12
			}
			loss += -w * math.Log(p)
			counted++
			if mat.ArgMax(sc.probs) == label {
				correct++
			}

			copy(dLogits, sc.probs)
			dLogits[label] -= 1
			mat.ScaleVec(dLogits, w)

			gwy.AddOuter(dLogits, sc.h)
			mat.AddVec(g.by, dLogits)
			mat.MulVecTInto(hTmp, wy, dLogits)
			mat.AddVec(dh, hTmp)
		}

		// Through h = o * tanh(c); the output-gate delta lands directly in
		// its dz quarter.
		copy(dc, dcNext)
		for j := 0; j < h; j++ {
			dz[3*h+j] = dh[j] * sc.tanhC[j] * sc.o[j] * (1 - sc.o[j])
			dc[j] += dh[j] * sc.o[j] * (1 - sc.tanhC[j]*sc.tanhC[j])
		}

		// Through c = f*cPrev + i*g, filling the input/forget/cell quarters.
		for j := 0; j < h; j++ {
			dz[j] = dc[j] * sc.g[j] * sc.i[j] * (1 - sc.i[j])
			dz[h+j] = dc[j] * sc.cPrev[j] * sc.f[j] * (1 - sc.f[j])
			dz[2*h+j] = dc[j] * sc.i[j] * (1 - sc.g[j]*sc.g[j])
			dcNext[j] = dc[j] * sc.f[j]
		}

		gwx.AddOuter(dz, sc.x)
		gwh.AddOuter(dz, sc.hPrev)
		mat.AddVec(g.b, dz)
		mat.MulVecTInto(dhNext, wh, dz)
	}
	return loss, counted, correct
}

// oraclePredictProbs is PredictProbs computed by the oracle.
func oraclePredictProbs(n *Network, inputs [][]float64) [][]float64 {
	steps := oracleForward(n, inputs)
	out := make([][]float64, len(steps))
	for t, sc := range steps {
		out[t] = sc.probs
	}
	return out
}
