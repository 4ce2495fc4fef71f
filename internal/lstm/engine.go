package lstm

import (
	"math"

	"leakydnn/internal/mat"
)

// This file is the network's only LSTM arithmetic: one batch-major forward
// pass and one BPTT backward pass, both in float64. Training and every
// prediction run the same forward pass.
//
// A minibatch's timestep-t state lives in batch-major buffers (row s =
// minibatch slot s), so each timestep costs three GEMMs forward and two
// backward, and the weight gradients take one GEMM per 8 staged rows
// (gradStage). Every output cell accumulates in ascending reduction order, so:
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

// params is one full parameter-shaped set of row-major buffers, gates
// stacked [input; forget; cell; output] along rows: wx is 4H×In, wh 4H×H,
// b 4H, wy C×H and by C.
type params struct {
	wx, wh, b, wy, by []float64
}

// tensors lists the buffers in their fixed serialization order.
func (p params) tensors() [5][]float64 {
	return [5][]float64{p.wx, p.wh, p.wy, p.b, p.by}
}

// weights is what a network holds and an engine's forward pass reads: the
// biases and transposed copies of the weight matrices. The forward GEMMs
// read wxT (In×4H), whT (H×4H) and wyT (H×C): x·Wᵀ over the master layout
// is GemmInto over the transpose, the same per-cell product sequence as a
// row-by-row dot product, but on the kernel that streams the weight matrix
// once and vectorizes over output columns. The master layout (params) is
// derived from the transposes only while a Train call runs, whose backward
// GEMMs and optimizer read it, so a trained network does not carry the
// weight matrices twice. A transpose is a copy: masters derived back are
// bit-identical to the ones the view came from.
type weights struct {
	wxT, whT, wyT []float64
	b, by         []float64 // shared with the masters while they exist
}

// refresh re-derives the transposes from the masters p; training calls it
// after every optimizer step.
func (n *Network) refresh(p params) {
	h, in, c := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	transpose(n.w.wxT, p.wx, 4*h, in)
	transpose(n.w.whT, p.wh, 4*h, h)
	transpose(n.w.wyT, p.wy, c, h)
}

// mastersInto writes the network's weight matrices into p in the master
// layout, transposed back from the view. It only reads the network, so it is
// safe alongside prediction.
func (n *Network) mastersInto(p params) {
	h, in, c := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	transpose(p.wx, n.w.wxT, in, 4*h)
	transpose(p.wh, n.w.whT, h, 4*h)
	transpose(p.wy, n.w.wyT, h, c)
}

// transpose writes dst[c*rows+r] = src[r*cols+c].
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
}

// step holds one timestep's forward outputs for every slot, batch-major:
// element (s, j) of an H-wide quantity is at [s*H+j].
type step struct {
	*state
	probs []float64 // B×C
}

// state is a timestep's inputs and LSTM intermediates.
type state struct {
	x                       []float64 // B×In inputs
	i, f, g, o, c, h, tanhC []float64 // B×H each
}

// engine is the forward half of a scratch: buffers for up to bcap sequences
// of up to len(steps) timesteps, bound to one network's weights. Not safe
// for concurrent use; every pass borrows its own scratch.
type engine struct {
	w                      *weights
	hidden, in, classes    int
	bcap                   int
	steps                  []step
	states                 []state
	hzero, z, ztmp, logits []float64 // B×H zero state, B×4H gate sums, B×C readout
	lens                   []int
	batch                  [][][]float64 // the current pass's inputs, slot order
	order                  []int         // input order scratch: batched inference, Train's shuffle
}

// forward runs the network over inputs (one sequence per slot, at most bcap
// of them, none longer than len(steps), sorted by non-increasing length) and
// returns the longest length T. Step buffers 0..T-1 are valid until the
// engine's next use; for each timestep only the rows of the then-live slot
// prefix are written, rows beyond it hold stale garbage nothing may read.
func (e *engine) forward(inputs [][][]float64) int {
	h, in, cls := e.hidden, e.in, e.classes
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
		st := &e.steps[t]
		for s := 0; s < live; s++ {
			copy(st.x[s*in:s*in+in], inputs[s][t])
		}
		mat.GemmInto(e.z[:live*4*h], st.x[:live*in], e.w.wxT, live, in, 4*h)
		mat.GemmInto(e.ztmp[:live*4*h], hPrev[:live*h], e.w.whT, live, h, 4*h)
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
			mat.SigmoidInto(si, zs[:h])
			mat.SigmoidInto(sf, zs[h:2*h])
			mat.TanhInto(sg, zs[2*h:3*h])
			mat.SigmoidInto(so, zs[3*h:])
			for j := range sc {
				sc[j] = sf[j]*cp[j] + si[j]*sg[j]
			}
			mat.TanhInto(stc, sc)
			for j := range sh {
				sh[j] = so[j] * stc[j]
			}
		}
		mat.GemmInto(e.logits[:live*cls], st.h[:live*h], e.w.wyT, live, h, cls)
		for s := 0; s < live; s++ {
			lrow := e.logits[s*cls : (s+1)*cls]
			for j, v := range e.w.by {
				lrow[j] += v
			}
			mat.SoftmaxInto(st.probs[s*cls:(s+1)*cls], lrow)
		}
		hPrev, cPrev = st.h, st.c
	}
	return T
}

// labels writes slot s's per-timestep argmax into out, one per timestep.
func (e *engine) labels(out []int, s int) {
	c := e.classes
	for t := range out {
		out[t] = mat.ArgMax(e.steps[t].probs[s*c : (s+1)*c])
	}
}

// trainer is the backward half of a scratch, bound for one Train call.
type trainer struct {
	p    params    // the masters: the backward GEMMs read them, Adam updates them
	g    params    // the summed minibatch gradient
	adam adamState // the optimizer's moments
	cw   []float64 // Config.ClassWeights

	dz                           []float64 // B×4H
	dh, dc, dcNext, dhNext, htmp []float64 // B×H
	dLogits                      []float64 // B×C
	idx                          []int

	// The weight-gradient products, staged: dz rows with their x and hPrev
	// rows for g.wx and g.wh, dL rows with their h rows for g.wy.
	stageZ, stageY gradStage
}

// stageRows is how many rows a gradStage holds before it flushes. Eight is
// the widest GemmTAAccum kernel step, so a full flush is one pass over each
// gradient, and a trainer's staging stays at 8 × (6H + In + C) floats.
const stageRows = 8

// gradStage batches the weight-gradient products of the backward pass.
// Accumulating each timestep's rows with its own GemmTAAccum would, at
// Batch=1, be a rank-1 update that loads and stores every gradient cell for
// a single product. A stage keeps the rows instead, in the order they come
// (timestep descending, then slot ascending), and accumulates stageRows of
// them at a time. Every gradient cell still receives the same products, one
// at a time and in the same order, so the sums are bit-identical; nothing
// reads the gradients before the trainer's final flush.
//
// Row r of coef (width m) pairs with row r of each operand, and a flush
// adds coefᵀ·ops[i] into dst[i]. A stage has one or two destinations; an
// unused one is nil.
type gradStage struct {
	rows, m  int
	coef     []float64
	ops, dst [2][]float64
}

// lay carves from c a stage of width m whose destination dst[i] is m×k[i];
// a stage with one destination leaves the second nil with k 0.
func (s *gradStage) lay(c *carver, m int, dst [2][]float64, k [2]int) {
	*s = gradStage{m: m, coef: c.take(stageRows * m), dst: dst}
	for i, ki := range k {
		if ki > 0 {
			s.ops[i] = c.take(stageRows * ki)
		}
	}
}

// push stages one row: the coefficients c and one operand row per
// destination, flushing when the stage is full.
func (s *gradStage) push(c []float64, rows ...[]float64) {
	copy(s.coef[s.rows*s.m:], c)
	for i, b := range rows {
		copy(s.ops[i][s.rows*len(b):], b)
	}
	if s.rows++; s.rows == stageRows {
		s.flush()
	}
}

// flush accumulates the staged rows into the gradients and empties the
// stage.
func (s *gradStage) flush() {
	p := s.rows
	if p == 0 {
		return
	}
	for i, d := range s.dst {
		if d == nil {
			continue
		}
		k := len(d) / s.m
		mat.GemmTAAccum(d, s.coef[:p*s.m], s.ops[i][:p*k], p, s.m, k)
	}
	s.rows = 0
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
// membership and lengths.
func (t *scratch) run(seqs []Sequence, idx []int) (loss float64, counted, correct int) {
	h, in, cls := t.hidden, t.in, t.classes
	bs := len(idx)
	sorted := t.idx[:bs]
	copy(sorted, idx)
	sortByLenDesc(sorted, seqs)
	inputs := t.batch[:bs]
	for s, id := range sorted {
		inputs[s] = seqs[id].Inputs
	}
	T := t.forward(inputs)

	g := t.g
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
		// timestep is counted; the rest stay exactly zero, so their staged
		// wy rows and bias sums add only ±0. When no slot counts, the whole
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
			p := prow[label]
			if p < 1e-12 {
				p = 1e-12
			}
			loss += -wgt * math.Log(p)
			counted++
			if mat.ArgMax(prow) == label {
				correct++
			}
			drow := dL[s*cls : (s+1)*cls]
			copy(drow, prow)
			drow[label]--
			for j := range drow {
				drow[j] *= wgt
			}
			anyCounted = true
		}
		if anyCounted {
			for s := 0; s < live; s++ {
				drow := dL[s*cls : (s+1)*cls]
				t.stageY.push(drow, st.h[s*h:(s+1)*h])
				for j, v := range drow {
					g.by[j] += v
				}
			}
			mat.GemmInto(t.htmp[:live*h], dL[:live*cls], t.p.wy, live, cls, h)
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

		for s := 0; s < live; s++ {
			dzs := t.dz[s*4*h : (s+1)*4*h]
			t.stageZ.push(dzs, st.x[s*in:(s+1)*in], hPrev[s*h:(s+1)*h])
			for j, v := range dzs {
				g.b[j] += v
			}
		}
		mat.GemmInto(dhNext[:live*h], t.dz[:live*4*h], t.p.wh, live, 4*h, h)
	}
	t.stageY.flush()
	t.stageZ.flush()
	return loss, counted, correct
}
