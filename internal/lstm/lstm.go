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
	"slices"

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
	// are accumulated into a single Adam step by rank-B GEMM updates. 0
	// defaults to 1, the per-sequence update schedule every FP64 Batch=1
	// golden hash pins.
	Batch int
}

func (c *Config) defaults() error {
	if c.InputDim <= 0 || c.Hidden <= 0 || c.Classes <= 1 {
		return fmt.Errorf("lstm: invalid dims input=%d hidden=%d classes=%d", c.InputDim, c.Hidden, c.Classes)
	}
	// Every parameter tensor is sized by a product of the dims. A product
	// that wraps int would slip past a decode's size check and panic in the
	// allocator, so such dims are an error, never a crash.
	if !fitsInt(4, c.Hidden, c.InputDim) || !fitsInt(4, c.Hidden, c.Hidden) || !fitsInt(c.Classes, c.Hidden) {
		return fmt.Errorf("lstm: dims input=%d hidden=%d classes=%d overflow the parameter count", c.InputDim, c.Hidden, c.Classes)
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
	return nil
}

// fitsInt reports whether the product of the positive factors fits in an int.
func fitsInt(factors ...int) bool {
	p := 1
	for _, f := range factors {
		if p > math.MaxInt/f {
			return false
		}
		p *= f
	}
	return true
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

// errEmptySequence and fmtInputDimError are shared by training validation
// and every prediction entry point so all report identical diagnostics.
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

// Network is a trained (or trainable) LSTM classifier. Predict and its
// variants are safe for concurrent use on a trained network; Train is not.
// Train runs on the calling goroutine: callers that train several networks
// parallelize across them.
type Network struct {
	cfg Config
	rng *rand.Rand

	// w is the network's parameters, in the layout the forward pass reads.
	// New draws it, Walk writes and reads it as it is, and training refreshes
	// it from the masters after every optimizer step.
	w *weights

	// trainedEpochs counts completed Train epochs; serialization records it
	// so a loaded network resumes on a shuffle stream distinct from the one
	// already consumed instead of replaying epoch 0's permutations.
	trainedEpochs int64
}

// New builds a network with Xavier-style initialization.
func New(cfg Config) (*Network, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h, in, c := cfg.Hidden, cfg.InputDim, cfg.Classes
	// Xavier weights, drawn in master-layout order (wx, wh, wy) straight
	// into the transposed view the forward pass reads.
	w := &weights{
		wxT: mat.RandnT(4*h, in, 1/math.Sqrt(float64(in)), rng),
		whT: mat.RandnT(4*h, h, 1/math.Sqrt(float64(h)), rng),
		wyT: mat.RandnT(c, h, 1/math.Sqrt(float64(h)), rng),
		b:   make([]float64, 4*h),
		by:  make([]float64, c),
	}
	// Positive forget-gate bias: the standard trick for remembering long
	// spans (the voting models rely on it).
	for j := h; j < 2*h; j++ {
		w.b[j] = 1
	}
	return &Network{cfg: cfg, rng: rng, w: w}, nil
}

// predictBatchWidth bounds how many sequences one batched forward pass
// carries; it caps a prediction's scratch at roughly 32 × (maxLen × C + 14H)
// floats while keeping the GEMMs wide.
const predictBatchWidth = 32

// Predict returns per-timestep argmax class predictions, taken straight
// from the pass's engine: the result is the only allocation of a
// steady-state call, and each label is the argmax of that timestep's class
// probabilities.
func (n *Network) Predict(inputs [][]float64) ([]int, error) {
	var out []int
	if err := n.forwardBatch([][][]float64{inputs}, func(_ int, e *engine, s int) {
		out = make([]int, len(inputs))
		e.labels(out, s)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// forwardBatch runs every input sequence through one borrowed engine,
// longest first and up to predictBatchWidth at a time, and calls emit(i, e,
// s) once slot s of e holds input i's outputs. Each call borrows its own
// scratch, so concurrent prediction on a trained network is safe.
func (n *Network) forwardBatch(inputs [][][]float64, emit func(i int, e *engine, s int)) error {
	longest := 0
	for _, seq := range inputs {
		if err := n.checkInputs(seq); err != nil {
			return err
		}
		longest = max(longest, len(seq))
	}
	if len(inputs) == 0 {
		return nil
	}
	width := min(predictBatchWidth, len(inputs))
	sc := scratchList.Get()
	defer sc.release()
	sc.bind(n, width, longest, false)
	e := &sc.engine
	e.order = fit(e.order, len(inputs))
	order := e.order
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(inputs[b]) - len(inputs[a]) })
	for start := 0; start < len(order); start += width {
		chunk := order[start:min(start+width, len(order))]
		for s, i := range chunk {
			e.batch[s] = inputs[i]
		}
		e.forward(e.batch[:len(chunk)])
		for s, i := range chunk {
			emit(i, e, s)
		}
	}
	return nil
}

// PredictBatch returns Predict for every input sequence, running the
// forward pass across up to 32 of them at a time. The forward pass has no
// cross-sequence reductions, so the result is bit-identical to per-sequence
// Predict calls: this is a pure throughput API, safe for concurrent use.
func (n *Network) PredictBatch(inputs [][][]float64) ([][]int, error) {
	out := make([][]int, len(inputs))
	if err := n.forwardBatch(inputs, func(i int, e *engine, s int) {
		out[i] = make([]int, len(inputs[i]))
		e.labels(out[i], s)
	}); err != nil {
		return nil, err
	}
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

// TrainResult reports one epoch of training.
type TrainResult struct {
	Epoch    int
	AvgLoss  float64
	Accuracy float64 // masked training accuracy
}

// Train runs the given number of epochs of minibatch Adam updates over the
// training set (shuffled each epoch) and returns per-epoch stats. The
// master parameters, the Adam moments and every training buffer live in
// scratch borrowed for one call (scratch.go): a trained network holds only
// what prediction reads, and a later Train starts from fresh moments, as
// one on a loaded network does. Every
// minibatch runs through the batch-major engine (engine.go). Larger batches
// accumulate the members' gradients in one rank-B GEMM update before a
// shared Adam step, a cross-sequence reduction order that Batch=1 never
// has, so Batch>1 runs are deterministic but follow their own trajectory.
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
	longest := 0
	for i, s := range seqs {
		if err := s.validate(n.cfg.InputDim, n.cfg.Classes); err != nil {
			return nil, fmt.Errorf("sequence %d: %w", i, err)
		}
		longest = max(longest, len(s.Inputs))
	}
	batch := min(n.cfg.Batch, len(seqs))
	t := scratchList.Get()
	defer t.release()
	t.bind(n, batch, longest, true)
	t.order = fit(t.order, len(seqs))
	order := t.order
	for i := range order {
		order[i] = i
	}
	results := make([]TrainResult, 0, epochs)
	for epoch := 0; epoch < epochs; epoch++ {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		var totalLoss float64
		var totalCounted, totalCorrect int
		for start := 0; start < len(order); start += batch {
			loss, counted, correct := t.run(seqs, order[start:min(start+batch, len(order))])
			totalLoss += loss
			totalCounted += counted
			totalCorrect += correct
			if counted == 0 {
				continue
			}
			n.applyGrads(&t.adam, t.p, t.g, counted)
			n.refresh(t.p)
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

// applyGrads performs the shared post-minibatch update of the masters p:
// average the summed gradient over the counted timesteps, clip every entry
// to ±ClipAbs, and take one Adam step.
func (n *Network) applyGrads(adam *adamState, p, g params, batchCounted int) {
	scale := 1 / float64(batchCounted)
	lim := n.cfg.ClipAbs
	for _, s := range g.tensors() {
		for i, v := range s {
			v *= scale
			if v > lim {
				v = lim
			} else if v < -lim {
				v = -lim
			}
			s[i] = v
		}
	}
	adam.step(p, g, n.cfg.LearningRate)
}
