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
	// are accumulated into a single Adam step by rank-B GEMM updates whose
	// per-cell order never depends on Workers. 0 defaults to 1, the
	// per-sequence update schedule every FP64 Batch=1 golden hash pins.
	Batch int
	// Workers bounds the worker pool the batched GEMM kernels partition
	// their output cells across. Any value trains a byte-identical network;
	// 1 runs serially, <= 0 selects runtime.GOMAXPROCS(0).
	Workers int

	// Precision selects the training arithmetic. The default, PrecisionFP64,
	// is what every FP64 golden hash pins. PrecisionFP32 runs
	// forward/backward in float32 (float64 Adam masters) — roughly twice the
	// GEMM throughput for a deliberately different, separately-pinned
	// trajectory. Inference always runs float64 regardless of this setting.
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
	// Every parameter tensor is sized by a product of the dims. A product
	// that wraps int would slip past Load's size check and panic in the
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
	if c.Precision != PrecisionFP64 && c.Precision != PrecisionFP32 {
		return fmt.Errorf("lstm: unknown precision %d", int(c.Precision))
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
// variants are safe for concurrent use on a trained network; Train is not
// (it parallelizes internally instead, see Config.Workers).
type Network struct {
	cfg Config
	rng *rand.Rand

	// p holds the float64 master parameters, the source of truth every
	// precision trains and serializes.
	p params[float64]
	// w is the read-only view the FP64 engine reads: the masters plus their
	// transposed copies. New and Load build it, FP64 training refreshes it
	// after every optimizer step and FP32 training once at its end.
	w *weights[float64]

	// adam is allocated by the first Train call, so a network that is only
	// ever loaded and queried never carries optimizer state.
	adam *adamState

	// trainedEpochs counts completed Train epochs; serialization records it
	// so a loaded network resumes on a shuffle stream distinct from the one
	// already consumed instead of replaying epoch 0's permutations.
	trainedEpochs int64

	// pool recycles FP64 inference engines across prediction calls. Each
	// Get hands out a distinct engine, so concurrent prediction on a
	// trained network stays safe while steady-state calls stop allocating.
	pool sync.Pool
}

// New builds a network with Xavier-style initialization.
func New(cfg Config) (*Network, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h, in, c := cfg.Hidden, cfg.InputDim, cfg.Classes
	p := params[float64]{
		wx: mat.Randn(4*h, in, 1/math.Sqrt(float64(in)), rng).Data,
		wh: mat.Randn(4*h, h, 1/math.Sqrt(float64(h)), rng).Data,
		b:  make([]float64, 4*h),
		wy: mat.Randn(c, h, 1/math.Sqrt(float64(h)), rng).Data,
		by: make([]float64, c),
	}
	// Positive forget-gate bias: the standard trick for remembering long
	// spans (the voting models rely on it).
	for j := h; j < 2*h; j++ {
		p.b[j] = 1
	}
	return newNetwork(cfg, rng, p, 0), nil
}

func newNetwork(cfg Config, rng *rand.Rand, p params[float64], epochs int64) *Network {
	n := &Network{cfg: cfg, rng: rng, p: p, trainedEpochs: epochs}
	n.w = newWeights[float64](n)
	return n
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// predictBatchWidth bounds how many sequences one batched forward pass
// carries; it caps an inference engine's memory at roughly 32 × (maxLen × C
// + 14H) floats while keeping the GEMMs wide.
const predictBatchWidth = 32

// engine draws a pooled FP64 engine at least width slots wide. A pooled
// engine that is too narrow is dropped for a wider one; step buffers grow
// with the longest sequence an engine has seen.
func (n *Network) engine(width int) *engine[float64] {
	if e, ok := n.pool.Get().(*engine[float64]); ok && e.bcap >= width {
		return e
	}
	return newEngine(n, &kernels64, n.w, width)
}

// PredictProbs returns per-timestep class probabilities for the sequence,
// copied out of the pooled engine; Predict skips that copy.
func (n *Network) PredictProbs(inputs [][]float64) ([][]float64, error) {
	var out [][]float64
	if err := n.forwardBatch([][][]float64{inputs}, func(_ int, e *engine[float64], s int) {
		out = e.probs(s, len(inputs))
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Predict returns per-timestep argmax class predictions, taken straight
// from the pooled engine: the result is the only allocation of a
// steady-state call, and each label is the argmax of the matching
// PredictProbs row.
func (n *Network) Predict(inputs [][]float64) ([]int, error) {
	var out []int
	if err := n.forwardBatch([][][]float64{inputs}, func(_ int, e *engine[float64], s int) {
		out = make([]int, len(inputs))
		e.labels(out, s)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// forwardBatch runs every input sequence through pooled engines, longest
// first and up to predictBatchWidth at a time, and calls emit(i, e, s) once
// slot s of e holds input i's outputs.
func (n *Network) forwardBatch(inputs [][][]float64, emit func(i int, e *engine[float64], s int)) error {
	for _, seq := range inputs {
		if err := n.checkInputs(seq); err != nil {
			return err
		}
	}
	if len(inputs) == 0 {
		return nil
	}
	width := min(predictBatchWidth, len(inputs))
	e := n.engine(width)
	if cap(e.order) < len(inputs) {
		e.order = make([]int, len(inputs))
	}
	order := e.order[:len(inputs)]
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
	clear(e.batch)
	n.pool.Put(e)
	return nil
}

// PredictProbsBatch returns PredictProbs for every input sequence, running
// the forward pass across up to 32 of them at a time. The forward pass has
// no cross-sequence reductions, so the result is bit-identical to
// per-sequence PredictProbs calls: this is a pure throughput API, safe for
// concurrent use like PredictProbs.
func (n *Network) PredictProbsBatch(inputs [][][]float64) ([][][]float64, error) {
	out := make([][][]float64, len(inputs))
	if err := n.forwardBatch(inputs, func(i int, e *engine[float64], s int) {
		out[i] = e.probs(s, len(inputs[i]))
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatch is PredictProbsBatch reduced to per-timestep argmax labels,
// bit-identical to per-sequence Predict calls.
func (n *Network) PredictBatch(inputs [][][]float64) ([][]int, error) {
	out := make([][]int, len(inputs))
	if err := n.forwardBatch(inputs, func(i int, e *engine[float64], s int) {
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
// training set (shuffled each epoch) and returns per-epoch stats. Every
// minibatch runs through the batch-major engine (engine.go). Larger batches
// accumulate the members' gradients in one rank-B GEMM update before a
// shared Adam step, a cross-sequence reduction order that Batch=1 never
// has, so Batch>1 runs are deterministic and worker-independent but follow
// their own trajectory. Config.Workers only partitions GEMM output cells,
// never a reduction, so any worker count trains a byte-identical network.
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
	if n.adam == nil {
		n.adam = newAdamState(n.cfg)
	}
	batch := min(n.cfg.Batch, len(seqs))
	if n.cfg.Precision == PrecisionFP32 {
		res := train(n, newTrainer(n, &kernels32, newWeights[float32](n), batch), seqs, epochs)
		n.w.refresh(n)
		return res, nil
	}
	return train(n, newTrainer(n, &kernels64, n.w, batch), seqs, epochs), nil
}

// train is Train's epoch loop over one precision's trainer; after every
// optimizer step it refreshes the trainer's weight view from the masters.
func train[F mat.Float](n *Network, t *trainer[F], seqs []Sequence, epochs int) []TrainResult {
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	batch := t.bcap
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
			n.applyGrads(t.g, counted)
			t.w.refresh(n)
		}

		res := TrainResult{Epoch: epoch}
		if totalCounted > 0 {
			res.AvgLoss = totalLoss / float64(totalCounted)
			res.Accuracy = float64(totalCorrect) / float64(totalCounted)
		}
		results = append(results, res)
		n.trainedEpochs++
	}
	return results
}

// applyGrads performs the shared post-minibatch update: average the summed
// gradient over the counted timesteps, clip every entry to ±ClipAbs, and
// take one Adam step.
func (n *Network) applyGrads(g params[float64], batchCounted int) {
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
	n.adam.step(n.p, g, n.cfg.LearningRate)
}
