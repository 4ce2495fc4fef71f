package lstm

import (
	"math"
	"slices"

	"leakydnn/internal/mat"
)

// This file keeps the textbook per-sequence LSTM as a test oracle: gemv
// forward and BPTT backward over one sequence at a time, straight from the
// equations. The engine must reproduce it bit for bit at Batch=1, for
// training and for every prediction entry point. The oracle owns its
// vector kernels (gemv, gemvT, addOuter, addVec below) so that its operation
// order is fixed here, independent of the engine's GEMMs.

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
	h, c := n.cfg.Hidden, n.cfg.Classes
	p := n.masters()
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
		gemv(z, p.wx, x, false)
		gemv(z, p.wh, hPrev, true)
		addVec(z, p.b)
		for j := 0; j < h; j++ {
			sc.i[j] = mat.Sigmoid(z[j])
			sc.f[j] = mat.Sigmoid(z[h+j])
			sc.g[j] = mat.Tanh(z[2*h+j])
			sc.o[j] = mat.Sigmoid(z[3*h+j])
			sc.c[j] = sc.f[j]*cPrev[j] + sc.i[j]*sc.g[j]
			sc.tanhC[j] = mat.Tanh(sc.c[j])
			sc.h[j] = sc.o[j] * sc.tanhC[j]
		}
		gemv(logits, p.wy, sc.h, false)
		addVec(logits, p.by)
		mat.SoftmaxInto(sc.probs, logits)
		steps[t] = sc
		hPrev, cPrev = sc.h, sc.c
	}
	return steps
}

// oracleRow is one timestep of one sequence as the backward pass sees it:
// the rows it multiplies into the weight gradients, and its loss term.
type oracleRow struct {
	dz, x, hPrev []float64
	dL, h        []float64 // dL is nil when the timestep does not count
	loss         float64
	correct      bool
}

// oracleRows runs the textbook BPTT over one sequence and returns its
// timesteps' rows, indexed by timestep.
func oracleRows(n *Network, seq Sequence) []oracleRow {
	caches := oracleForward(n, seq.Inputs)
	h, mp := n.cfg.Hidden, n.masters()

	dh, dc, hTmp := make([]float64, h), make([]float64, h), make([]float64, h)
	dhNext, dcNext := make([]float64, h), make([]float64, h)

	rows := make([]oracleRow, len(caches))
	for t := len(caches) - 1; t >= 0; t-- {
		sc := caches[t]
		r := &rows[t]
		r.x, r.hPrev, r.h = sc.x, sc.hPrev, sc.h
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
			r.loss = -w * math.Log(p)
			r.correct = mat.ArgMax(sc.probs) == label

			r.dL = append([]float64(nil), sc.probs...)
			r.dL[label] -= 1
			for j := range r.dL {
				r.dL[j] *= w
			}
			gemvT(hTmp, mp.wy, r.dL)
			addVec(dh, hTmp)
		}

		// Through h = o * tanh(c); the output-gate delta lands directly in
		// its dz quarter.
		dz := make([]float64, 4*h)
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
		r.dz = dz
		gemvT(dhNext, mp.wh, dz)
	}
	return rows
}

// oracleBackward accumulates one sequence's gradient into g and returns its
// summed weighted cross-entropy loss, counted timesteps and correct
// predictions.
func oracleBackward(n *Network, seq Sequence, g params) (loss float64, counted, correct int) {
	return oracleBatchBackward(n, []Sequence{seq}, []int{0}, g)
}

// oracleBatchBackward accumulates the gradient of the minibatch seqs[idx]
// into g and returns its loss and stats, summing across sequences in the
// order the batched trainer defines: slots sorted by non-increasing length
// (stable), then timestep descending and slot ascending. On a timestep where
// any live slot counts, every live slot adds its dL row to wy and by, a
// zero row for a slot that does not count.
func oracleBatchBackward(n *Network, seqs []Sequence, idx []int, g params) (loss float64, counted, correct int) {
	sorted := append([]int(nil), idx...)
	slices.SortStableFunc(sorted, func(a, b int) int { return len(seqs[b].Inputs) - len(seqs[a].Inputs) })
	rows := make([][]oracleRow, len(sorted))
	for s, id := range sorted {
		rows[s] = oracleRows(n, seqs[id])
	}
	zero := make([]float64, n.cfg.Classes)
	for ts := len(rows[0]) - 1; ts >= 0; ts-- {
		live := 0
		for live < len(rows) && len(rows[live]) > ts {
			live++
		}
		anyCounted := false
		for s := 0; s < live; s++ {
			if r := rows[s][ts]; r.dL != nil {
				loss += r.loss
				counted++
				if r.correct {
					correct++
				}
				anyCounted = true
			}
		}
		if anyCounted {
			for s := 0; s < live; s++ {
				r := rows[s][ts]
				dL := r.dL
				if dL == nil {
					dL = zero
				}
				addOuter(g.wy, dL, r.h)
				addVec(g.by, dL)
			}
		}
		for s := 0; s < live; s++ {
			r := rows[s][ts]
			addOuter(g.wx, r.dz, r.x)
			addOuter(g.wh, r.dz, r.hPrev)
			addVec(g.b, r.dz)
		}
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

// gemv computes dst = a·x, or dst += a·x when accum is set, for a row-major
// a with len(dst) rows and len(x) columns. Each row sums its products in
// column order before it touches dst.
func gemv(dst, a, x []float64, accum bool) {
	if len(a) != len(dst)*len(x) {
		panic("oracle: gemv shape mismatch")
	}
	for i := range dst {
		var sum float64
		for j, v := range a[i*len(x) : (i+1)*len(x)] {
			sum += v * x[j]
		}
		if accum {
			dst[i] += sum
		} else {
			dst[i] = sum
		}
	}
}

// gemvT computes dst = aᵀ·x for a row-major a with len(x) rows and len(dst)
// columns, adding the rows into dst in ascending order. A zero x entry still
// multiplies through, so a non-finite weight propagates.
func gemvT(dst, a, x []float64) {
	if len(a) != len(x)*len(dst) {
		panic("oracle: gemvT shape mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xv := range x {
		for j, v := range a[i*len(dst) : (i+1)*len(dst)] {
			dst[j] += v * xv
		}
	}
}

// addOuter accumulates the outer product x·yᵀ into the row-major
// len(x)×len(y) buffer m.
func addOuter(m, x, y []float64) {
	if len(m) != len(x)*len(y) {
		panic("oracle: addOuter shape mismatch")
	}
	for i, xv := range x {
		row := m[i*len(y) : (i+1)*len(y)]
		for j, yv := range y {
			row[j] += xv * yv
		}
	}
}

// addVec computes dst += src element-wise.
func addVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("oracle: addVec length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}
