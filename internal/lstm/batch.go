package lstm

import (
	"math"
	"sort"

	"leakydnn/internal/mat"
	"leakydnn/internal/par"
)

// This file implements the batched training path: a minibatch's timestep-t
// state lives in batch-major matrices (row s = minibatch slot s), so the
// per-sequence gemv calls of the legacy path become two GEMMs per timestep
// forward and four per timestep backward. The arithmetic is arranged so
// that every output cell accumulates in exactly the order the legacy
// per-sequence kernels use, which gives two properties the tests pin:
//
//   - At Batch=1 the batched pass is bit-identical to Network.backward —
//     the same IEEE operations in the same order, just routed through the
//     m=1 GEMM cases.
//   - The forward pass contains no cross-sequence reductions at all (each
//     output row only reads its own input row), so batched *inference* is
//     bit-identical to per-sequence inference at every batch width. Only
//     the backward weight-gradient accumulation sums across the batch, so
//     Batch>1 *training* diverges from the legacy per-slot reduction order
//     — by design, and documented on Train.
//
// Slots are ordered by non-increasing sequence length (stable on minibatch
// position, so the ordering is deterministic). At timestep t the sequences
// still running are then exactly the slot prefix [0, live), and every GEMM
// and activation loop runs over that prefix only — a minibatch costs the sum
// of its members' lengths, with no padding arithmetic at all. At Batch=1 the
// sort is a no-op and the prefix is the whole batch, so the bit-identity
// above is untouched.

// batchStep holds one timestep's forward intermediates for the whole batch,
// batch-major: element (s, j) of an H-wide quantity is at [s*H+j].
type batchStep struct {
	x                       []float64 // B×In packed inputs
	i, f, g, o, c, h, tanhC []float64 // B×H each, views into one buffer
	probs                   []float64 // B×C
}

// batchTrainer owns the reusable batch-major buffers for one Train call
// (or one PredictProbsBatch chunk). Not safe for concurrent use.
type batchTrainer struct {
	n       *Network
	bcap    int // allocated batch width
	workers int

	steps []*batchStep
	hzero []float64 // B×H all-zero h/c state for t=0

	z, ztmp, dz                  []float64 // B×4H
	dh, dc, dcNext, dhNext, htmp []float64 // B×H
	dLogits, logits              []float64 // B×C

	lens   []int // per-slot sequence length, non-increasing
	idx    []int // length-sorted copy of the current minibatch indices
	inputs [][][]float64
	g      *grads

	// Transposed weight copies the forward pass reads: x·Wᵀ over the
	// master layout is GemmInto over the transpose — the same per-cell
	// product sequence as GemmTB (both start from zero and add a·b terms in
	// ascending reduction order), but on the kernel that streams the weight
	// matrix once and vectorizes over output columns. refreshWeights
	// re-derives them after every optimizer step.
	wxT, whT, wyT []float64
}

func (n *Network) newBatchTrainer(bcap int) *batchTrainer {
	h, c := n.cfg.Hidden, n.cfg.Classes
	bt := &batchTrainer{
		n:       n,
		bcap:    bcap,
		workers: par.Workers(n.cfg.Workers),
		hzero:   make([]float64, bcap*h),
		z:       make([]float64, bcap*4*h),
		ztmp:    make([]float64, bcap*4*h),
		dz:      make([]float64, bcap*4*h),
		dh:      make([]float64, bcap*h),
		dc:      make([]float64, bcap*h),
		dcNext:  make([]float64, bcap*h),
		dhNext:  make([]float64, bcap*h),
		htmp:    make([]float64, bcap*h),
		dLogits: make([]float64, bcap*c),
		logits:  make([]float64, bcap*c),
		lens:    make([]int, bcap),
		idx:     make([]int, bcap),
		inputs:  make([][][]float64, bcap),
		g:       n.newGrads(),
		wxT:     make([]float64, n.cfg.InputDim*4*h),
		whT:     make([]float64, h*4*h),
		wyT:     make([]float64, h*c),
	}
	bt.refreshWeights()
	return bt
}

// refreshWeights re-derives the transposed weight copies from the master
// matrices; Train calls it after every optimizer step.
func (bt *batchTrainer) refreshWeights() {
	n := bt.n
	transpose64(bt.wxT, n.wx.Data, n.wx.Rows, n.wx.Cols)
	transpose64(bt.whT, n.wh.Data, n.wh.Rows, n.wh.Cols)
	transpose64(bt.wyT, n.wy.Data, n.wy.Rows, n.wy.Cols)
}

// sortByLenDesc stably sorts idx by non-increasing sequence length. A
// minibatch is at most a few dozen slots, so an insertion sort beats
// sort.SliceStable's reflection-based swaps in the per-minibatch hot path;
// the strict < comparison keeps equal-length slots in their original order,
// exactly sort.SliceStable's contract.
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

// transpose64 writes dst[c*rows+r] = src[r*cols+c].
func transpose64(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
}

// step returns the t-th reusable step buffer, growing the pool on demand.
func (bt *batchTrainer) step(t int) *batchStep {
	for len(bt.steps) <= t {
		b, h := bt.bcap, bt.n.cfg.Hidden
		buf := make([]float64, 7*b*h)
		bt.steps = append(bt.steps, &batchStep{
			x:     make([]float64, b*bt.n.cfg.InputDim),
			i:     buf[0 : b*h],
			f:     buf[b*h : 2*b*h],
			g:     buf[2*b*h : 3*b*h],
			o:     buf[3*b*h : 4*b*h],
			c:     buf[4*b*h : 5*b*h],
			h:     buf[5*b*h : 6*b*h],
			tanhC: buf[6*b*h : 7*b*h],
			probs: make([]float64, b*bt.n.cfg.Classes),
		})
	}
	return bt.steps[t]
}

// forward runs the batched forward pass over inputs (one sequence per slot,
// at most bcap of them, sorted by non-increasing length) and returns the
// longest length T. Step caches 0..T-1 are valid until the trainer's next
// use; for each timestep only the rows of the then-live slot prefix are
// written, rows beyond it hold stale garbage nothing may read.
func (bt *batchTrainer) forward(inputs [][][]float64) int {
	n := bt.n
	h, in, cls := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	w := bt.workers
	T := 0
	for s, seq := range inputs {
		bt.lens[s] = len(seq)
		if len(seq) > T {
			T = len(seq)
		}
	}

	hPrev, cPrev := bt.hzero, bt.hzero
	live := len(inputs)
	for t := 0; t < T; t++ {
		for live > 0 && bt.lens[live-1] <= t {
			live--
		}
		st := bt.step(t)
		for s := 0; s < live; s++ {
			copy(st.x[s*in:s*in+in], inputs[s][t])
		}
		// z = x·Wxᵀ, ztmp = hPrev·Whᵀ via the transposed copies: each cell
		// accumulates the same products in the same ascending-k order as
		// MulVecInto's register dot, so the results are bit-identical — but
		// the kernel streams the weight matrix once for the whole batch.
		mat.GemmInto(bt.z[:live*4*h], st.x[:live*in], bt.wxT, live, in, 4*h, w)
		mat.GemmInto(bt.ztmp[:live*4*h], hPrev[:live*h], bt.whT, live, h, 4*h, w)
		for s := 0; s < live; s++ {
			zs := bt.z[s*4*h : (s+1)*4*h]
			zt := bt.ztmp[s*4*h : (s+1)*4*h]
			cp := cPrev[s*h : s*h+h]
			si := st.i[s*h : s*h+h]
			sf := st.f[s*h : s*h+h]
			sg := st.g[s*h : s*h+h]
			so := st.o[s*h : s*h+h]
			sc := st.c[s*h : s*h+h]
			sh := st.h[s*h : s*h+h]
			stc := st.tanhC[s*h : s*h+h]
			for j := 0; j < h; j++ {
				// (x-part + h-part) + bias: the legacy evaluation order.
				si[j] = mat.Sigmoid(zs[j] + zt[j] + n.b[j])
				sf[j] = mat.Sigmoid(zs[h+j] + zt[h+j] + n.b[h+j])
				sg[j] = math.Tanh(zs[2*h+j] + zt[2*h+j] + n.b[2*h+j])
				so[j] = mat.Sigmoid(zs[3*h+j] + zt[3*h+j] + n.b[3*h+j])
				sc[j] = sf[j]*cp[j] + si[j]*sg[j]
				stc[j] = math.Tanh(sc[j])
				sh[j] = so[j] * stc[j]
			}
		}
		mat.GemmInto(bt.logits[:live*cls], st.h[:live*h], bt.wyT, live, h, cls, w)
		for s := 0; s < live; s++ {
			lrow := bt.logits[s*cls : (s+1)*cls]
			mat.AddVec(lrow, n.by)
			mat.SoftmaxInto(st.probs[s*cls:(s+1)*cls], lrow)
		}
		hPrev, cPrev = st.h, st.c
	}
	return T
}

// run computes the summed gradient of the minibatch seqs[idx...] into bt.g
// (zeroed first) and returns the batch's summed weighted loss, counted
// timesteps, and correct predictions — the same stats Network.backward
// reports per sequence. idx is not mutated; the trainer works on a
// length-sorted copy, so the cross-sequence accumulation order depends only
// on the minibatch's membership and lengths, never on Workers.
func (bt *batchTrainer) run(seqs []Sequence, idx []int) (loss float64, counted, correct int) {
	n := bt.n
	h, in, cls := n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	bs, w := len(idx), bt.workers
	sorted := bt.idx[:bs]
	copy(sorted, idx)
	sortByLenDesc(sorted, seqs)
	inputs := bt.inputs[:bs]
	for s, id := range sorted {
		inputs[s] = seqs[id].Inputs
	}
	T := bt.forward(inputs)

	g := bt.g
	g.zero()
	dh, dc, dcNext, dhNext := bt.dh, bt.dc, bt.dcNext, bt.dhNext
	zeroVec(dhNext[:bs*h])
	zeroVec(dcNext[:bs*h])

	live := 0
	for t := T - 1; t >= 0; t-- {
		for live < bs && bt.lens[live] > t {
			live++
		}
		st := bt.steps[t]
		copy(dh[:live*h], dhNext[:live*h])

		// Readout: rows of dLogits are only populated for live slots whose
		// timestep t is counted; the rest stay exactly zero so the rank-live
		// updates below add only ±0 for them. When no slot counts, the whole
		// block is skipped — the legacy masked-step behavior.
		dL := bt.dLogits
		zeroVec(dL[:live*cls])
		anyCounted := false
		for s := 0; s < live; s++ {
			seq := seqs[sorted[s]]
			if seq.Mask != nil && !seq.Mask[t] {
				continue
			}
			label := seq.Labels[t]
			wgt := 1.0
			if n.cfg.ClassWeights != nil {
				wgt = n.cfg.ClassWeights[label]
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
			mat.ScaleVec(drow, wgt)
			anyCounted = true
		}
		if anyCounted {
			mat.GemmTAAccum(g.wy.Data, dL[:live*cls], st.h[:live*h], live, cls, h, w)
			for s := 0; s < live; s++ {
				mat.AddVec(g.by, dL[s*cls:(s+1)*cls])
			}
			mat.GemmInto(bt.htmp[:live*h], dL[:live*cls], n.wy.Data, live, cls, h, w)
			mat.AddVec(dh[:live*h], bt.htmp[:live*h])
		}

		cPrev := bt.hzero
		hPrev := bt.hzero
		if t > 0 {
			cPrev = bt.steps[t-1].c
			hPrev = bt.steps[t-1].h
		}
		copy(dc[:live*h], dcNext[:live*h])
		for s := 0; s < live; s++ {
			dzs := bt.dz[s*4*h : (s+1)*4*h]
			dhs := dh[s*h : s*h+h]
			dcs := dc[s*h : s*h+h]
			dcn := dcNext[s*h : s*h+h]
			cp := cPrev[s*h : s*h+h]
			si := st.i[s*h : s*h+h]
			sf := st.f[s*h : s*h+h]
			sg := st.g[s*h : s*h+h]
			so := st.o[s*h : s*h+h]
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

		mat.GemmTAAccum(g.wx.Data, bt.dz[:live*4*h], st.x[:live*in], live, 4*h, in, w)
		mat.GemmTAAccum(g.wh.Data, bt.dz[:live*4*h], hPrev[:live*h], live, 4*h, h, w)
		for s := 0; s < live; s++ {
			mat.AddVec(g.b, bt.dz[s*4*h:(s+1)*4*h])
		}
		mat.GemmInto(dhNext[:live*h], bt.dz[:live*4*h], n.wh.Data, live, 4*h, h, w)
	}
	return loss, counted, correct
}

// predictBatchWidth bounds how many sequences PredictProbsBatch runs per
// forward chunk; it caps the step-cache memory at roughly
// 32 × maxLen × 7H floats while keeping the GEMMs wide.
const predictBatchWidth = 32

// PredictProbsBatch returns PredictProbs for every input sequence, running
// the batched GEMM forward pass across up to 32 of them at a time (grouped
// by length so chunks carry sequences of similar cost). The forward pass has
// no cross-sequence reductions, so the returned probabilities are
// bit-identical to per-sequence PredictProbs calls — this is a pure
// throughput API. Like PredictProbs it is safe for concurrent use on a
// trained network (each call owns its buffers).
func (n *Network) PredictProbsBatch(inputs [][][]float64) ([][][]float64, error) {
	for _, seq := range inputs {
		if err := n.checkInputs(seq); err != nil {
			return nil, err
		}
	}
	if len(inputs) == 0 {
		return nil, nil
	}
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(inputs[order[a]]) > len(inputs[order[b]])
	})

	width := predictBatchWidth
	if width > len(inputs) {
		width = len(inputs)
	}
	bt := n.newBatchTrainer(width)
	cls := n.cfg.Classes
	chunk := make([][][]float64, width)
	out := make([][][]float64, len(inputs))
	for start := 0; start < len(order); start += width {
		end := start + width
		if end > len(order) {
			end = len(order)
		}
		for s, oi := range order[start:end] {
			chunk[s] = inputs[oi]
		}
		bt.forward(chunk[:end-start])
		for s, oi := range order[start:end] {
			T := len(inputs[oi])
			probs := make([][]float64, T)
			backing := make([]float64, T*cls)
			for t := range probs {
				row := backing[t*cls : (t+1)*cls : (t+1)*cls]
				copy(row, bt.steps[t].probs[s*cls:(s+1)*cls])
				probs[t] = row
			}
			out[oi] = probs
		}
	}
	return out, nil
}

// PredictBatch is PredictProbsBatch reduced to per-timestep argmax labels,
// bit-identical to per-sequence Predict calls.
func (n *Network) PredictBatch(inputs [][][]float64) ([][]int, error) {
	probs, err := n.PredictProbsBatch(inputs)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(probs))
	for i, seq := range probs {
		out[i] = make([]int, len(seq))
		for t, p := range seq {
			out[i][t] = mat.ArgMax(p)
		}
	}
	return out, nil
}
