package lstm

import (
	"math"

	"leakydnn/internal/mat"
	"leakydnn/internal/par"
)

// This file is the network's only LSTM arithmetic: one batch-major forward
// pass and one BPTT backward pass, generic over the compute precision.
// Training runs them at float64 (the default) or float32
// (Config.Precision); every prediction runs the float64 forward pass.
//
// A minibatch's timestep-t state lives in batch-major buffers (row s =
// minibatch slot s), so each timestep costs two GEMMs forward and four
// backward. Every output cell accumulates in ascending reduction order, so:
//
//   - At Batch=1 a training step performs exactly the IEEE operations of
//     the textbook per-sequence gemv derivation, which oracle_test.go keeps
//     as a reference and the FP64 golden hashes pin.
//   - The forward pass contains no cross-sequence reductions (each output
//     row only reads its own input row), so a prediction is bit-identical
//     at every batch width and chunking. Only the backward weight-gradient
//     accumulation sums across the batch, so Batch>1 training has its own,
//     separately pinned, trajectory.
//
// Slots are ordered by non-increasing sequence length (stable on input
// position). At timestep t the sequences still running are then exactly the
// slot prefix [0, live), and every GEMM and activation loop runs over that
// prefix only: a minibatch costs the sum of its members' lengths, with no
// padding arithmetic at all.
//
// At float32 the engine is a mixed-precision scheme: float32 shadow weights
// and gradients in the hot loop, float64 masters and Adam state as the
// source of truth. Per step: forward/backward in float32, gradients staged
// to float64, clip + Adam on the masters, shadows refreshed. That
// trajectory is reproducible but deliberately not bit-comparable to FP64.

// kernels is the precision-specific part of the engine: the activations
// over a gate row, and the softmax and argmax over a readout row. Per
// element, each applies the same operation chain as its scalar form.
type kernels[F mat.Float] struct {
	sigmoid, tanh func(dst, src []F)
	softmax       func(dst, logits []F)
	argmax        func(v []F) int
}

var kernels64 = kernels[float64]{
	sigmoid: func(dst, src []float64) {
		for j, v := range src {
			dst[j] = mat.Sigmoid(v)
		}
	},
	tanh: func(dst, src []float64) {
		for j, v := range src {
			dst[j] = math.Tanh(v)
		}
	},
	softmax: mat.SoftmaxInto,
	argmax:  mat.ArgMax,
}

var kernels32 = kernels[float32]{
	sigmoid: mat.SigmoidInto32,
	tanh:    mat.TanhInto32,
	softmax: mat.SoftmaxInto32,
	argmax:  mat.ArgMax32,
}

// params is one full parameter-shaped set of row-major buffers, gates
// stacked [input; forget; cell; output] along rows: wx is 4H×In, wh 4H×H,
// b 4H, wy C×H and by C.
type params[F mat.Float] struct {
	wx, wh, b, wy, by []F
}

func newParams[F mat.Float](cfg Config) params[F] {
	h, in, c := cfg.Hidden, cfg.InputDim, cfg.Classes
	return params[F]{
		wx: make([]F, 4*h*in), wh: make([]F, 4*h*h), b: make([]F, 4*h),
		wy: make([]F, c*h), by: make([]F, c),
	}
}

// tensors lists the buffers in their fixed serialization order.
func (p params[F]) tensors() [5][]F {
	return [5][]F{p.wx, p.wh, p.wy, p.b, p.by}
}

// weights is the parameter view an engine reads. The forward GEMMs read the
// transposed copies wxT (In×4H), whT (H×4H) and wyT (H×C): x·Wᵀ over the
// master layout is GemmInto over the transpose, the same per-cell product
// sequence as GemmTB, but on the kernel that streams the weight matrix once
// and vectorizes over output columns. wh, wy, b and by keep the master
// layout for the backward GEMMs and the bias adds. At float64 they are the
// masters themselves; at float32 they are converted shadows.
type weights[F mat.Float] struct {
	wxT, whT, wyT []F
	wh, wy, b, by []F
	shadow        bool
}

func newWeights[F mat.Float](n *Network) *weights[F] {
	h, in, c := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	w := &weights[F]{wxT: make([]F, in*4*h), whT: make([]F, h*4*h), wyT: make([]F, h*c)}
	p, ok := any(n.p).(params[F])
	if !ok {
		p = newParams[F](n.cfg)
		w.shadow = true
	}
	w.wh, w.wy, w.b, w.by = p.wh, p.wy, p.b, p.by
	w.refresh(n)
	return w
}

// refresh re-derives the view from the float64 masters; training calls it
// after every optimizer step.
func (w *weights[F]) refresh(n *Network) {
	h, in, c := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	transpose(w.wxT, n.p.wx, 4*h, in)
	transpose(w.whT, n.p.wh, 4*h, h)
	transpose(w.wyT, n.p.wy, c, h)
	if w.shadow {
		convert(w.wh, n.p.wh)
		convert(w.wy, n.p.wy)
		convert(w.b, n.p.b)
		convert(w.by, n.p.by)
	}
}

// transpose writes dst[c*rows+r] = src[r*cols+c].
func transpose[F mat.Float](dst []F, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = F(v)
		}
	}
}

func convert[D, S mat.Float](dst []D, src []S) {
	for i, v := range src {
		dst[i] = D(v)
	}
}

// step holds one timestep's forward outputs for every slot, batch-major:
// element (s, j) of an H-wide quantity is at [s*H+j].
type step[F mat.Float] struct {
	*state[F]
	probs []F // B×C
}

// state is a timestep's inputs and LSTM intermediates.
type state[F mat.Float] struct {
	x                       []F // B×In inputs
	i, f, g, o, c, h, tanhC []F // B×H each, views into one buffer
}

// engine owns the forward buffers for up to bcap sequences at a time. Not
// safe for concurrent use: inference draws engines from Network.pool, and
// training owns one per Train call.
type engine[F mat.Float] struct {
	k                      *kernels[F]
	w                      *weights[F]
	hidden, in, classes    int
	bcap, workers          int
	keep                   bool // every step keeps its own state, for BPTT
	steps                  []*step[F]
	hzero, z, ztmp, logits []F // B×H zero state, B×4H gate sums, B×C readout
	lens                   []int
	batch                  [][][]float64 // the current pass's inputs, slot order
	order                  []int         // input order scratch for batched inference
}

func newEngine[F mat.Float](n *Network, k *kernels[F], w *weights[F], bcap int) *engine[F] {
	h, c := n.cfg.Hidden, n.cfg.Classes
	return &engine[F]{
		k: k, w: w,
		hidden: h, in: n.cfg.InputDim, classes: c,
		bcap: bcap, workers: par.Workers(n.cfg.Workers),
		hzero:  make([]F, bcap*h),
		z:      make([]F, bcap*4*h),
		ztmp:   make([]F, bcap*4*h),
		logits: make([]F, bcap*c),
		lens:   make([]int, bcap),
		batch:  make([][][]float64, bcap),
	}
}

// step returns the t-th reusable step buffer, growing the list on demand.
// Without keep, a step shares its state with the step two back: the
// recurrence only reads the previous step, and inference only reads probs
// back, so a prediction's memory grows by B×C floats per timestep.
func (e *engine[F]) step(t int) *step[F] {
	for len(e.steps) <= t {
		b, h := e.bcap, e.hidden
		st := &step[F]{probs: make([]F, b*e.classes)}
		if k := len(e.steps); !e.keep && k >= 2 {
			st.state = e.steps[k-2].state
		} else {
			buf := make([]F, 7*b*h)
			st.state = &state[F]{
				x: make([]F, b*e.in),
				i: buf[0 : b*h], f: buf[b*h : 2*b*h], g: buf[2*b*h : 3*b*h], o: buf[3*b*h : 4*b*h],
				c: buf[4*b*h : 5*b*h], h: buf[5*b*h : 6*b*h], tanhC: buf[6*b*h : 7*b*h],
			}
		}
		e.steps = append(e.steps, st)
	}
	return e.steps[t]
}

// forward runs the network over inputs (one sequence per slot, at most bcap
// of them, sorted by non-increasing length) and returns the longest length
// T. Step buffers 0..T-1 are valid until the engine's next use; for each
// timestep only the rows of the then-live slot prefix are written, rows
// beyond it hold stale garbage nothing may read.
func (e *engine[F]) forward(inputs [][][]float64) int {
	h, in, cls, w := e.hidden, e.in, e.classes, e.workers
	T := 0
	for s, seq := range inputs {
		e.lens[s] = len(seq)
		T = max(T, len(seq))
	}

	hPrev, cPrev := e.hzero, e.hzero
	live := len(inputs)
	for t := 0; t < T; t++ {
		for live > 0 && e.lens[live-1] <= t {
			live--
		}
		st := e.step(t)
		for s := 0; s < live; s++ {
			convert(st.x[s*in:s*in+in], inputs[s][t])
		}
		mat.GemmInto(e.z[:live*4*h], st.x[:live*in], e.w.wxT, live, in, 4*h, w)
		mat.GemmInto(e.ztmp[:live*4*h], hPrev[:live*h], e.w.whT, live, h, 4*h, w)
		for s := 0; s < live; s++ {
			zs := e.z[s*4*h : (s+1)*4*h]
			zt := e.ztmp[s*4*h : (s+1)*4*h]
			cp := cPrev[s*h : s*h+h]
			si, sf, sg, so := st.i[s*h:s*h+h], st.f[s*h:s*h+h], st.g[s*h:s*h+h], st.o[s*h:s*h+h]
			sc, sh, stc := st.c[s*h:s*h+h], st.h[s*h:s*h+h], st.tanhC[s*h:s*h+h]
			// (x-part + h-part) + bias, then the activations over whole
			// gate rows.
			for j, bv := range e.w.b {
				zs[j] = zs[j] + zt[j] + bv
			}
			e.k.sigmoid(si, zs[:h])
			e.k.sigmoid(sf, zs[h:2*h])
			e.k.tanh(sg, zs[2*h:3*h])
			e.k.sigmoid(so, zs[3*h:])
			for j := range sc {
				sc[j] = sf[j]*cp[j] + si[j]*sg[j]
			}
			e.k.tanh(stc, sc)
			for j := range sh {
				sh[j] = so[j] * stc[j]
			}
		}
		mat.GemmInto(e.logits[:live*cls], st.h[:live*h], e.w.wyT, live, h, cls, w)
		for s := 0; s < live; s++ {
			lrow := e.logits[s*cls : (s+1)*cls]
			for j, v := range e.w.by {
				lrow[j] += v
			}
			e.k.softmax(st.probs[s*cls:(s+1)*cls], lrow)
		}
		hPrev, cPrev = st.h, st.c
	}
	return T
}

// labels writes slot s's per-timestep argmax into out, one per timestep.
func (e *engine[F]) labels(out []int, s int) {
	c := e.classes
	for t := range out {
		out[t] = e.k.argmax(e.steps[t].probs[s*c : (s+1)*c])
	}
}

// probs copies slot s's first T timesteps of probabilities into fresh rows
// that share one backing array.
func (e *engine[F]) probs(s, T int) [][]F {
	c := e.classes
	out := make([][]F, T)
	backing := make([]F, T*c)
	for t := range out {
		row := backing[t*c : (t+1)*c : (t+1)*c]
		copy(row, e.steps[t].probs[s*c:(s+1)*c])
		out[t] = row
	}
	return out
}

// trainer adds the backward pass to an engine for one Train call.
type trainer[F mat.Float] struct {
	*engine[F]
	// grad is the summed minibatch gradient the backward GEMMs accumulate
	// into; at float64 it is g itself, at float32 run stages it into g.
	grad params[F]
	g    params[float64]
	cw   []float64 // Config.ClassWeights

	dz                           []F // B×4H
	dh, dc, dcNext, dhNext, htmp []F // B×H
	dLogits                      []F // B×C
	idx                          []int
}

func newTrainer[F mat.Float](n *Network, k *kernels[F], w *weights[F], bcap int) *trainer[F] {
	h, c := n.cfg.Hidden, n.cfg.Classes
	e := newEngine(n, k, w, bcap)
	e.keep = true
	t := &trainer[F]{
		engine:  e,
		g:       newParams[float64](n.cfg),
		cw:      n.cfg.ClassWeights,
		dz:      make([]F, bcap*4*h),
		dh:      make([]F, bcap*h),
		dc:      make([]F, bcap*h),
		dcNext:  make([]F, bcap*h),
		dhNext:  make([]F, bcap*h),
		htmp:    make([]F, bcap*h),
		dLogits: make([]F, bcap*c),
		idx:     make([]int, bcap),
	}
	if g, ok := any(t.g).(params[F]); ok {
		t.grad = g
	} else {
		t.grad = newParams[F](n.cfg)
	}
	return t
}

// sortByLenDesc stably sorts idx by non-increasing sequence length. A
// minibatch is at most a few dozen slots, so an insertion sort beats
// sort.SliceStable's reflection-based swaps in the per-minibatch hot path;
// the strict < comparison keeps equal-length slots in their original order.
func sortByLenDesc(idx []int, seqs []Sequence) {
	for i := 1; i < len(idx); i++ {
		id := idx[i]
		l := len(seqs[id].Inputs)
		j := i - 1
		for j >= 0 && len(seqs[idx[j]].Inputs) < l {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = id
	}
}

// run computes the summed gradient of the minibatch seqs[idx...] into t.g
// and returns the batch's summed weighted cross-entropy loss, its counted
// timesteps, and how many of those the forward pass already classified
// correctly: the epoch's monitoring stats, at no extra forward cost. idx is
// not mutated; the trainer works on a length-sorted copy, so the
// cross-sequence accumulation order depends only on the minibatch's
// membership and lengths, never on Workers.
func (t *trainer[F]) run(seqs []Sequence, idx []int) (loss float64, counted, correct int) {
	h, in, cls, w := t.hidden, t.in, t.classes, t.workers
	bs := len(idx)
	sorted := t.idx[:bs]
	copy(sorted, idx)
	sortByLenDesc(sorted, seqs)
	inputs := t.batch[:bs]
	for s, id := range sorted {
		inputs[s] = seqs[id].Inputs
	}
	T := t.forward(inputs)

	g := t.grad
	for _, s := range g.tensors() {
		clear(s)
	}
	dh, dc, dcNext, dhNext := t.dh, t.dc, t.dcNext, t.dhNext
	clear(dhNext[:bs*h])
	clear(dcNext[:bs*h])

	live := 0
	for ts := T - 1; ts >= 0; ts-- {
		for live < bs && t.lens[live] > ts {
			live++
		}
		st := t.steps[ts]
		copy(dh[:live*h], dhNext[:live*h])

		// Readout: rows of dLogits are only populated for live slots whose
		// timestep is counted; the rest stay exactly zero so the rank-live
		// updates below add only ±0 for them. When no slot counts, the whole
		// block is skipped.
		dL := t.dLogits
		clear(dL[:live*cls])
		anyCounted := false
		for s := 0; s < live; s++ {
			seq := seqs[sorted[s]]
			if seq.Mask != nil && !seq.Mask[ts] {
				continue
			}
			label := seq.Labels[ts]
			wgt := 1.0
			if t.cw != nil {
				wgt = t.cw[label]
			}
			prow := st.probs[s*cls : (s+1)*cls]
			p := float64(prow[label])
			if p < 1e-12 {
				p = 1e-12
			}
			loss += -wgt * math.Log(p)
			counted++
			if t.k.argmax(prow) == label {
				correct++
			}
			drow := dL[s*cls : (s+1)*cls]
			copy(drow, prow)
			drow[label]--
			for j := range drow {
				drow[j] *= F(wgt)
			}
			anyCounted = true
		}
		if anyCounted {
			mat.GemmTAAccum(g.wy, dL[:live*cls], st.h[:live*h], live, cls, h, w)
			for s := 0; s < live; s++ {
				for j, v := range dL[s*cls : (s+1)*cls] {
					g.by[j] += v
				}
			}
			mat.GemmInto(t.htmp[:live*h], dL[:live*cls], t.w.wy, live, cls, h, w)
			for j, v := range t.htmp[:live*h] {
				dh[j] += v
			}
		}

		cPrev, hPrev := t.hzero, t.hzero
		if ts > 0 {
			cPrev, hPrev = t.steps[ts-1].c, t.steps[ts-1].h
		}
		copy(dc[:live*h], dcNext[:live*h])
		for s := 0; s < live; s++ {
			dzs := t.dz[s*4*h : (s+1)*4*h]
			dhs, dcs, dcn, cp := dh[s*h:s*h+h], dc[s*h:s*h+h], dcNext[s*h:s*h+h], cPrev[s*h:s*h+h]
			si, sf, sg, so := st.i[s*h:s*h+h], st.f[s*h:s*h+h], st.g[s*h:s*h+h], st.o[s*h:s*h+h]
			stc := st.tanhC[s*h : s*h+h]
			// Through h = o*tanh(c); the output-gate delta lands directly
			// in its dz quarter.
			for j := 0; j < h; j++ {
				dzs[3*h+j] = dhs[j] * stc[j] * so[j] * (1 - so[j])
				dcs[j] += dhs[j] * so[j] * (1 - stc[j]*stc[j])
			}
			// Through c = f*cPrev + i*g, filling the remaining quarters.
			for j := 0; j < h; j++ {
				dzs[j] = dcs[j] * sg[j] * si[j] * (1 - si[j])
				dzs[h+j] = dcs[j] * cp[j] * sf[j] * (1 - sf[j])
				dzs[2*h+j] = dcs[j] * si[j] * (1 - sg[j]*sg[j])
				dcn[j] = dcs[j] * sf[j]
			}
		}

		mat.GemmTAAccum(g.wx, t.dz[:live*4*h], st.x[:live*in], live, 4*h, in, w)
		mat.GemmTAAccum(g.wh, t.dz[:live*4*h], hPrev[:live*h], live, 4*h, h, w)
		for s := 0; s < live; s++ {
			for j, v := range t.dz[s*4*h : (s+1)*4*h] {
				g.b[j] += v
			}
		}
		mat.GemmInto(dhNext[:live*h], t.dz[:live*4*h], t.w.wh, live, 4*h, h, w)
	}

	if _, ok := any(g).(params[float64]); !ok {
		dst := t.g.tensors()
		for i, src := range g.tensors() {
			convert(dst[i], src)
		}
	}
	return loss, counted, correct
}
