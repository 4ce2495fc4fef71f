// Package lstm implements the Long Short-Term Memory networks MoSConS uses
// as inference models (paper Table III): a single LSTM layer followed by a
// fully-connected layer and a softmax, trained with (optionally
// class-weighted, optionally masked) cross-entropy via full back-propagation
// through time and Adam. Everything is written from scratch on the repo's
// dense-matrix kernel; a numerical gradient check in the test suite pins the
// correctness of the BPTT derivation.
package lstm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"leakydnn/internal/mat"
)

// Config describes a network.
type Config struct {
	// InputDim is the per-timestep feature dimension.
	InputDim int
	// Hidden is the LSTM state size (256 for Mlong/Mop/voting, 128 for Mhp).
	Hidden int
	// Classes is the output alphabet size.
	Classes int

	// LearningRate is Adam's step size (default 1e-2).
	LearningRate float64
	// ClipAbs clamps every gradient entry to ±ClipAbs (default 5).
	ClipAbs float64
	// ClassWeights amplifies the loss of under-represented classes (the
	// paper's weighted softmax/cross-entropy for Mlong). Nil means uniform.
	ClassWeights []float64
	// Seed drives weight initialization and shuffling.
	Seed int64

	// Batch is the minibatch size: the gradients of up to Batch sequences
	// are accumulated into a single Adam step. Partial gradients are reduced
	// in fixed index order, so the trained network never depends on Workers.
	// 0 defaults to 1, which reproduces the historical per-sequence update
	// schedule bit for bit.
	Batch int
	// Workers bounds the worker pool the batched GEMM kernels partition
	// their output cells across. Any value trains a byte-identical network;
	// 1 runs serially, <= 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// Precision selects the training arithmetic. The default, PrecisionFP64,
	// is bit-identical to the historical trainer at Batch=1 and is what every
	// FP64 golden hash pins. PrecisionFP32 runs forward/backward in float32
	// (float64 Adam masters) — roughly twice the GEMM throughput for a
	// deliberately different, separately-pinned trajectory. Inference always
	// runs float64 regardless of this setting.
	Precision Precision
}

// Precision enumerates Config.Precision values.
type Precision int

const (
	// PrecisionFP64 trains in float64 throughout (the default).
	PrecisionFP64 Precision = iota
	// PrecisionFP32 trains forward/backward in float32 with float64 masters.
	PrecisionFP32
)

func (p Precision) String() string {
	switch p {
	case PrecisionFP64:
		return "fp64"
	case PrecisionFP32:
		return "fp32"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

func (c *Config) defaults() error {
	if c.InputDim <= 0 || c.Hidden <= 0 || c.Classes <= 1 {
		return fmt.Errorf("lstm: invalid dims input=%d hidden=%d classes=%d", c.InputDim, c.Hidden, c.Classes)
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1e-2
	}
	if c.LearningRate < 0 {
		return errors.New("lstm: negative learning rate")
	}
	if c.ClipAbs == 0 {
		c.ClipAbs = 5
	}
	if c.ClassWeights != nil && len(c.ClassWeights) != c.Classes {
		return fmt.Errorf("lstm: %d class weights for %d classes", len(c.ClassWeights), c.Classes)
	}
	if c.Batch < 0 {
		return fmt.Errorf("lstm: negative batch size %d", c.Batch)
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Precision != PrecisionFP64 && c.Precision != PrecisionFP32 {
		return fmt.Errorf("lstm: unknown precision %d", int(c.Precision))
	}
	return nil
}

// Sequence is one training sequence: per-timestep feature vectors, integer
// labels, and an optional mask selecting the timesteps whose loss counts
// (Mop and Mhp ignore the loss of irrelevant samples; the LSTM still
// consumes them to carry context).
type Sequence struct {
	Inputs [][]float64
	Labels []int
	Mask   []bool // nil = all timesteps count
}

// errEmptySequence and fmtInputDimError are shared by the per-sequence and
// batched entry points so both report identical diagnostics.
var errEmptySequence = errors.New("lstm: empty sequence")

func fmtInputDimError(t, got, want int) error {
	return fmt.Errorf("lstm: input %d has dim %d, want %d", t, got, want)
}

func (s Sequence) validate(inputDim, classes int) error {
	if len(s.Inputs) == 0 {
		return errEmptySequence
	}
	if len(s.Labels) != len(s.Inputs) {
		return fmt.Errorf("lstm: %d labels for %d inputs", len(s.Labels), len(s.Inputs))
	}
	if s.Mask != nil && len(s.Mask) != len(s.Inputs) {
		return fmt.Errorf("lstm: %d mask entries for %d inputs", len(s.Mask), len(s.Inputs))
	}
	for t, x := range s.Inputs {
		if len(x) != inputDim {
			return fmtInputDimError(t, len(x), inputDim)
		}
		if s.Labels[t] < 0 || s.Labels[t] >= classes {
			if s.Mask == nil || s.Mask[t] {
				return fmt.Errorf("lstm: label %d at t=%d out of range [0,%d)", s.Labels[t], t, classes)
			}
		}
	}
	return nil
}

// Network is a trained (or trainable) LSTM classifier. Predict and
// PredictProbs are safe for concurrent use on a trained network; Train is
// not (it parallelizes internally instead, see Config.Workers).
type Network struct {
	cfg Config
	rng *rand.Rand

	// Gate parameters, stacked [input; forget; cell; output] along rows.
	wx *mat.Matrix // (4H, In)
	wh *mat.Matrix // (4H, H)
	b  []float64   // 4H

	// Readout.
	wy *mat.Matrix // (C, H)
	by []float64   // C

	adam *adamState

	// trainedEpochs counts completed Train epochs; serialization records it
	// so a loaded network resumes on a shuffle stream distinct from the one
	// already consumed instead of replaying epoch 0's permutations.
	trainedEpochs int64

	// scratchPool recycles inference scratches across PredictProbs calls.
	// Each Get hands out a distinct scratch, so concurrent prediction on a
	// trained network stays safe while steady-state calls stop allocating.
	scratchPool sync.Pool
}

// New builds a network with Xavier-style initialization.
func New(cfg Config) (*Network, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h, in, c := cfg.Hidden, cfg.InputDim, cfg.Classes
	n := &Network{
		cfg: cfg,
		rng: rng,
		wx:  mat.Randn(4*h, in, 1/math.Sqrt(float64(in)), rng),
		wh:  mat.Randn(4*h, h, 1/math.Sqrt(float64(h)), rng),
		b:   make([]float64, 4*h),
		wy:  mat.Randn(c, h, 1/math.Sqrt(float64(h)), rng),
		by:  make([]float64, c),
	}
	// Positive forget-gate bias: the standard trick for remembering long
	// spans (the voting models rely on it).
	for j := h; j < 2*h; j++ {
		n.b[j] = 1
	}
	n.adam = newAdamState(n)
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// stepCache holds one timestep's forward intermediates for BPTT. Its gate
// and state vectors are views into one contiguous per-step buffer owned by a
// scratch, so a whole timestep costs one allocation — amortized to zero once
// the scratch has grown to the longest sequence it has seen.
type stepCache struct {
	x            []float64
	i, f, g, o   []float64
	c, h, tanhC  []float64
	probs        []float64
	hPrev, cPrev []float64
}

// scratch holds the reusable forward/backward buffers for one goroutine.
// Reusing a scratch across calls eliminates the per-timestep allocation
// churn of training; concurrent callers must use distinct scratches (each
// minibatch slot owns one).
type scratch struct {
	hidden, classes int
	steps           []*stepCache
	zero            []float64 // read-only all-zero h/c state for t=0
	z               []float64 // 4H gate pre-activations
	logits          []float64 // C readout logits
	dh, dc, hTmp    []float64 // H-sized backward temporaries
	dhNext, dcNext  []float64
	dz              []float64 // 4H stacked gate deltas
	dLogits         []float64 // C softmax/cross-entropy delta
}

func (n *Network) newScratch() *scratch {
	h, c := n.cfg.Hidden, n.cfg.Classes
	return &scratch{
		hidden: h, classes: c,
		zero:    make([]float64, h),
		z:       make([]float64, 4*h),
		logits:  make([]float64, c),
		dh:      make([]float64, h),
		dc:      make([]float64, h),
		hTmp:    make([]float64, h),
		dhNext:  make([]float64, h),
		dcNext:  make([]float64, h),
		dz:      make([]float64, 4*h),
		dLogits: make([]float64, c),
	}
}

// getScratch returns a pooled scratch (allocating on a cold pool); callers
// return it with putScratch once every value they need has been copied out.
func (n *Network) getScratch() *scratch {
	if s, ok := n.scratchPool.Get().(*scratch); ok {
		return s
	}
	return n.newScratch()
}

func (n *Network) putScratch(s *scratch) { n.scratchPool.Put(s) }

// step returns the t-th reusable step cache, growing the pool on demand.
func (s *scratch) step(t int) *stepCache {
	for len(s.steps) <= t {
		h := s.hidden
		buf := make([]float64, 7*h)
		s.steps = append(s.steps, &stepCache{
			i: buf[0:h], f: buf[h : 2*h], g: buf[2*h : 3*h], o: buf[3*h : 4*h],
			c: buf[4*h : 5*h], h: buf[5*h : 6*h], tanhC: buf[6*h : 7*h],
			probs: make([]float64, s.classes),
		})
	}
	return s.steps[t]
}

// forward runs the network over the sequence into s, returning per-step
// caches valid until the scratch's next use.
func (n *Network) forward(inputs [][]float64, s *scratch) []*stepCache {
	h := n.cfg.Hidden
	hPrev, cPrev := s.zero, s.zero

	for t, x := range inputs {
		sc := s.step(t)
		sc.x, sc.hPrev, sc.cPrev = x, hPrev, cPrev
		z := s.z
		mat.MulVecInto(z, n.wx, x)
		mat.MulVecAccum(z, n.wh, hPrev)
		mat.AddVec(z, n.b)

		for j := 0; j < h; j++ {
			sc.i[j] = mat.Sigmoid(z[j])
			sc.f[j] = mat.Sigmoid(z[h+j])
			sc.g[j] = math.Tanh(z[2*h+j])
			sc.o[j] = mat.Sigmoid(z[3*h+j])
			sc.c[j] = sc.f[j]*cPrev[j] + sc.i[j]*sc.g[j]
			sc.tanhC[j] = math.Tanh(sc.c[j])
			sc.h[j] = sc.o[j] * sc.tanhC[j]
		}
		mat.MulVecInto(s.logits, n.wy, sc.h)
		mat.AddVec(s.logits, n.by)
		mat.SoftmaxInto(sc.probs, s.logits)

		hPrev, cPrev = sc.h, sc.c
	}
	return s.steps[:len(inputs)]
}

// PredictProbs returns per-timestep class probabilities for the sequence.
// Scratch buffers are pooled across calls and concurrent calls each draw
// their own scratch, but every timestep's probabilities are copied out of
// the scratch into the returned slices. Predict skips that copy.
func (n *Network) PredictProbs(inputs [][]float64) ([][]float64, error) {
	if err := n.checkInputs(inputs); err != nil {
		return nil, err
	}
	s := n.getScratch()
	caches := n.forward(inputs, s)
	out := make([][]float64, len(caches))
	for t, sc := range caches {
		out[t] = mat.CloneVec(sc.probs)
	}
	n.putScratch(s)
	return out, nil
}

// Predict returns per-timestep argmax class predictions, taken straight
// from the pooled scratch's step caches: the result is the only allocation
// of a steady-state call, and each label is bit-identical to the argmax of
// the matching PredictProbs row.
func (n *Network) Predict(inputs [][]float64) ([]int, error) {
	if err := n.checkInputs(inputs); err != nil {
		return nil, err
	}
	s := n.getScratch()
	caches := n.forward(inputs, s)
	out := make([]int, len(caches))
	for t, sc := range caches {
		out[t] = mat.ArgMax(sc.probs)
	}
	n.putScratch(s)
	return out, nil
}

// checkInputs rejects an empty sequence or a timestep of the wrong width.
func (n *Network) checkInputs(inputs [][]float64) error {
	if len(inputs) == 0 {
		return errEmptySequence
	}
	for t, x := range inputs {
		if len(x) != n.cfg.InputDim {
			return fmtInputDimError(t, len(x), n.cfg.InputDim)
		}
	}
	return nil
}

// grads mirrors the parameter set.
type grads struct {
	wx, wh, wy *mat.Matrix
	b, by      []float64
}

func (n *Network) newGrads() *grads {
	return &grads{
		wx: mat.New(n.wx.Rows, n.wx.Cols),
		wh: mat.New(n.wh.Rows, n.wh.Cols),
		wy: mat.New(n.wy.Rows, n.wy.Cols),
		b:  make([]float64, len(n.b)),
		by: make([]float64, len(n.by)),
	}
}

// zero resets every gradient buffer in place.
func (g *grads) zero() {
	g.wx.Zero()
	g.wh.Zero()
	g.wy.Zero()
	zeroVec(g.b)
	zeroVec(g.by)
}

// add accumulates o into g.
func (g *grads) add(o *grads) {
	g.wx.Add(o.wx)
	g.wh.Add(o.wh)
	g.wy.Add(o.wy)
	mat.AddVec(g.b, o.b)
	mat.AddVec(g.by, o.by)
}

// reduceGrads sums the partial gradients into dst in slice order. The
// summation order is fixed — index 0 first, then 1, and so on — so the
// reduced gradient is independent of which worker produced which partial;
// this is the property the cross-worker determinism guarantee rests on,
// since floating-point addition is not associative.
func reduceGrads(dst *grads, partials []*grads) {
	dst.zero()
	for _, p := range partials {
		dst.add(p)
	}
}

// backward accumulates gradients for one sequence into g, using s for every
// intermediate buffer. It returns the sequence's summed weighted
// cross-entropy loss, the number of counted timesteps, and how many of them
// the forward pass already classified correctly — the epoch's monitoring
// stats, at no extra forward cost.
func (n *Network) backward(seq Sequence, g *grads, s *scratch) (loss float64, counted, correct int) {
	caches := n.forward(seq.Inputs, s)
	h := n.cfg.Hidden

	dhNext, dcNext := s.dhNext, s.dcNext
	zeroVec(dhNext)
	zeroVec(dcNext)

	for t := len(caches) - 1; t >= 0; t-- {
		sc := caches[t]
		dh := s.dh
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

			dLogits := s.dLogits
			copy(dLogits, sc.probs)
			dLogits[label] -= 1
			mat.ScaleVec(dLogits, w)

			g.wy.AddOuter(dLogits, sc.h)
			mat.AddVec(g.by, dLogits)
			mat.MulVecTInto(s.hTmp, n.wy, dLogits)
			mat.AddVec(dh, s.hTmp)
		}

		// Through h = o * tanh(c); the output-gate delta lands directly in
		// its dz quarter.
		dz := s.dz
		dc := s.dc
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

		g.wx.AddOuter(dz, sc.x)
		g.wh.AddOuter(dz, sc.hPrev)
		mat.AddVec(g.b, dz)
		mat.MulVecTInto(dhNext, n.wh, dz)
	}
	return loss, counted, correct
}

// TrainResult reports one epoch of training.
type TrainResult struct {
	Epoch    int
	AvgLoss  float64
	Accuracy float64 // masked training accuracy
}

// Train runs the given number of epochs of minibatch Adam updates over the
// training set (shuffled each epoch) and returns per-epoch stats. Every
// minibatch runs through the batched GEMM trainer (batch.go). At the default
// Batch of 1 with PrecisionFP64 this reproduces the historical per-sequence
// update schedule bit for bit: the batched kernels accumulate every output
// cell in exactly the order the per-sequence kernels did. Larger batches
// accumulate the members' gradients in one rank-B GEMM update before a
// shared Adam step — a different (cross-sequence) reduction order than the
// historical reduceGrads schedule, so Batch>1 runs are deterministic and
// worker-independent but not bit-comparable to pre-GEMM builds.
// Config.Workers only partitions GEMM output cells, never a reduction, so
// any worker count trains a byte-identical network.
//
// The reported stats are the masked accuracy and loss of the forward passes
// the backward pass performs anyway — predictions under the weights in
// effect when each minibatch was visited — so monitoring costs no second
// pass over the training set.
func (n *Network) Train(seqs []Sequence, epochs int) ([]TrainResult, error) {
	if len(seqs) == 0 {
		return nil, errors.New("lstm: no training sequences")
	}
	if epochs <= 0 {
		return nil, fmt.Errorf("lstm: epochs must be positive, got %d", epochs)
	}
	for i, s := range seqs {
		if err := s.validate(n.cfg.InputDim, n.cfg.Classes); err != nil {
			return nil, fmt.Errorf("sequence %d: %w", i, err)
		}
	}

	batch := n.cfg.Batch
	if batch > len(seqs) {
		batch = len(seqs)
	}

	// The precision paths share everything but the minibatch-gradient
	// producer: runBatch leaves the summed gradient in g, and postStep (FP32
	// only) refreshes the float32 shadow weights after each Adam update.
	var (
		runBatch func(idx []int) (loss float64, counted, correct int)
		g        *grads
		postStep func()
	)
	if n.cfg.Precision == PrecisionFP32 {
		bt := n.newBatchTrainer32(batch)
		runBatch = func(idx []int) (float64, int, int) { return bt.run(seqs, idx) }
		g = bt.g
		postStep = func() { bt.w.refresh(n) }
	} else {
		bt := n.newBatchTrainer(batch)
		runBatch = func(idx []int) (float64, int, int) { return bt.run(seqs, idx) }
		g = bt.g
		postStep = func() { bt.refreshWeights() }
	}

	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}

	results := make([]TrainResult, 0, epochs)
	for epoch := 0; epoch < epochs; epoch++ {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		var totalLoss float64
		var totalCounted, totalCorrect int
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			loss, counted, correct := runBatch(order[start:end])
			totalLoss += loss
			totalCounted += counted
			totalCorrect += correct
			if counted == 0 {
				continue
			}
			n.applyGrads(g, counted)
			if postStep != nil {
				postStep()
			}
		}

		res := TrainResult{Epoch: epoch}
		if totalCounted > 0 {
			res.AvgLoss = totalLoss / float64(totalCounted)
			res.Accuracy = float64(totalCorrect) / float64(totalCounted)
		}
		results = append(results, res)
		n.trainedEpochs++
	}
	return results, nil
}

// applyGrads performs the shared post-minibatch update: average the summed
// gradient over the counted timesteps, clip, and take one Adam step.
func (n *Network) applyGrads(g *grads, batchCounted int) {
	scale := 1 / float64(batchCounted)
	g.wx.Scale(scale)
	g.wh.Scale(scale)
	g.wy.Scale(scale)
	mat.ScaleVec(g.b, scale)
	mat.ScaleVec(g.by, scale)
	n.clip(g)
	n.adam.step(n, g)
}

func (n *Network) clip(g *grads) {
	lim := n.cfg.ClipAbs
	g.wx.ClipInPlace(lim)
	g.wh.ClipInPlace(lim)
	g.wy.ClipInPlace(lim)
	clipVec(g.b, lim)
	clipVec(g.by, lim)
}

func clipVec(v []float64, lim float64) {
	for i, x := range v {
		if x > lim {
			v[i] = lim
		} else if x < -lim {
			v[i] = -lim
		}
	}
}

func zeroVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
