package lstm

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"leakydnn/internal/mat"
)

// randBatchSeqs builds a deterministic masked dataset with varied lengths so
// the batched path exercises slot padding.
func randBatchSeqs(seed int64, count, inputDim, classes int, masked bool) []Sequence {
	rng := rand.New(rand.NewSource(seed))
	var seqs []Sequence
	for i := 0; i < count; i++ {
		length := 1 + rng.Intn(9)
		in := make([][]float64, length)
		labels := make([]int, length)
		var mask []bool
		if masked {
			mask = make([]bool, length)
		}
		for t := range in {
			v := make([]float64, inputDim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			in[t] = v
			labels[t] = rng.Intn(classes)
			if masked {
				mask[t] = rng.Float64() < 0.75
			}
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}
	return seqs
}

// The engine's backward at Batch=1 must reproduce the per-sequence oracle
// bit for bit: same loss, same stats, same gradient bits. This is the
// property that keeps the FP64 Batch=1 golden hashes where the textbook
// derivation put them.
func TestBatchedRunMatchesBackwardAtBatch1(t *testing.T) {
	n, err := New(Config{
		InputDim: 3, Hidden: 5, Classes: 4, Seed: 77,
		ClassWeights: []float64{1, 1.5, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(31, 8, 3, 4, true)

	tr := newTrainer(n, &kernels64, n.w, 1)
	for i := range seqs {
		loss, counted, correct := tr.run(seqs, []int{i})
		g := newParams[float64](n.cfg)
		wantLoss, wantCounted, wantCorrect := oracleBackward(n, seqs[i], g)
		if loss != wantLoss || counted != wantCounted || correct != wantCorrect {
			t.Fatalf("seq %d: engine stats (%v,%d,%d) != oracle (%v,%d,%d)",
				i, loss, counted, correct, wantLoss, wantCounted, wantCorrect)
		}
		want := g.tensors()
		for k, got := range tr.g.tensors() {
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[k][j]) {
					t.Fatalf("seq %d: %s[%d] = %b, oracle %b", i, tensorNames[k], j, got[j], want[k][j])
				}
			}
		}
	}
}

// tensorNames labels params.tensors() entries in failure messages.
var tensorNames = [5]string{"wx", "wh", "wy", "b", "by"}

// trainerGrad runs the production trainer at the network's FP64 precision
// over the minibatch seqs[idx] and returns the batch loss and the summed
// gradient. Probes poke the master weights directly, so the engine's
// transposed view is re-derived first, exactly as Train does after every
// optimizer step.
func trainerGrad(n *Network, seqs []Sequence, idx []int) (float64, params[float64]) {
	n.w.refresh(n)
	tr := newTrainer(n, &kernels64, n.w, len(idx))
	loss, _, _ := tr.run(seqs, idx)
	return loss, tr.g
}

// checkNumericGrad compares the trainer's gradient of the summed loss of
// the minibatch seqs[idx] with central differences at the first, middle
// and last entry of every parameter tensor.
func checkNumericGrad(t *testing.T, n *Network, seqs []Sequence, idx []int) {
	t.Helper()
	_, analytic := trainerGrad(n, seqs, idx)
	grads := analytic.tensors()
	const eps = 1e-5
	for k, param := range n.p.tensors() {
		for _, j := range []int{0, len(param) / 2, len(param) - 1} {
			orig := param[j]
			param[j] = orig + eps
			up, _ := trainerGrad(n, seqs, idx)
			param[j] = orig - eps
			down, _ := trainerGrad(n, seqs, idx)
			param[j] = orig
			numeric := (up - down) / (2 * eps)
			if diff := math.Abs(numeric - grads[k][j]); diff > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", tensorNames[k], j, grads[k][j], numeric)
			}
		}
	}
	n.w.refresh(n)
}

// The engine's backward at Batch>1 must compute the gradient of the summed
// batch loss, on masked, class-weighted sequences of ragged length (so the
// live-prefix bookkeeping is exercised too).
func TestBatchedGradientMatchesNumeric(t *testing.T) {
	n, err := New(Config{InputDim: 2, Hidden: 3, Classes: 3, Seed: 13, ClassWeights: []float64{1, 2.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(47, 4, 2, 3, true)
	checkNumericGrad(t, n, seqs, []int{0, 1, 2, 3})
}

// The FP32 instantiation runs the same backward in float32 and stages its
// gradient to float64; it must track the FP64 gradient to float32 accuracy.
func TestFP32GradientTracksFP64(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 6, Classes: 4, Seed: 21, ClassWeights: []float64{1, 2, 1.5, 1}}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(59, 5, 3, 4, true)
	idx := []int{0, 1, 2, 3, 4}
	loss64, g64 := trainerGrad(n, seqs, idx)
	tr := newTrainer(n, &kernels32, newWeights[float32](n), len(idx))
	loss32, _, _ := tr.run(seqs, idx)
	if math.Abs(loss32-loss64) > 1e-4*(1+math.Abs(loss64)) {
		t.Fatalf("FP32 loss %v, FP64 %v", loss32, loss64)
	}
	want := g64.tensors()
	for k, got := range tr.g.tensors() {
		for j := range got {
			if math.Abs(got[j]-want[k][j]) > 1e-4*(1+math.Abs(want[k][j])) {
				t.Fatalf("%s[%d]: FP32 %v, FP64 %v", tensorNames[k], j, got[j], want[k][j])
			}
		}
	}
}

// The forward pass has no cross-sequence reductions, so every prediction
// entry point must be bit-identical to the per-sequence oracle at every
// batch width — including widths above predictBatchWidth, exercising the
// chunking.
func TestPredictProbsBatchBitIdentical(t *testing.T) {
	n, err := New(Config{InputDim: 4, Hidden: 6, Classes: 3, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	// 2*predictBatchWidth+5 sequences: full chunks plus a ragged tail.
	seqs := randBatchSeqs(53, 2*predictBatchWidth+5, 4, 3, false)
	inputs := make([][][]float64, len(seqs))
	for i, s := range seqs {
		inputs[i] = s.Inputs
	}

	batched, err := n.PredictProbsBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := n.PredictBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range inputs {
		want := oraclePredictProbs(n, seq)
		single, err := n.PredictProbs(seq)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := n.Predict(seq)
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i]) != len(want) || len(single) != len(want) {
			t.Fatalf("seq %d: %d timesteps batched, %d single, %d oracle", i, len(batched[i]), len(single), len(want))
		}
		for ts := range want {
			for j := range want[ts] {
				if math.Float64bits(batched[i][ts][j]) != math.Float64bits(want[ts][j]) ||
					math.Float64bits(single[ts][j]) != math.Float64bits(want[ts][j]) {
					t.Fatalf("seq %d t=%d class %d: batched %b, single %b, oracle %b",
						i, ts, j, batched[i][ts][j], single[ts][j], want[ts][j])
				}
			}
			if l := mat.ArgMax(want[ts]); pred[ts] != l || labels[i][ts] != l {
				t.Fatalf("seq %d t=%d: Predict %d, PredictBatch %d, oracle argmax %d", i, ts, pred[ts], labels[i][ts], l)
			}
		}
	}

	if _, err := n.PredictProbsBatch([][][]float64{{}}); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := n.PredictProbsBatch([][][]float64{{{1, 2}}}); err == nil {
		t.Fatal("wrong input dim accepted")
	}
}

// Prediction draws engines from a pool; concurrent callers must get
// distinct buffers and identical results. Run under -race this pins the
// goroutine-safety the pooling must preserve.
func TestPredictProbsConcurrentPooled(t *testing.T) {
	n, err := New(Config{InputDim: 3, Hidden: 8, Classes: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(71, 6, 3, 4, false)

	want := make([][][]float64, len(seqs))
	inputs := make([][][]float64, len(seqs))
	for i, s := range seqs {
		p, err := n.PredictProbs(s.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
		inputs[i] = s.Inputs
	}
	wantLabels, err := n.PredictBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i, s := range seqs {
					p, err := n.PredictProbs(s.Inputs)
					if err != nil {
						errs <- err.Error()
						return
					}
					for ts := range p {
						for j := range p[ts] {
							if p[ts][j] != want[i][ts][j] {
								errs <- "concurrent PredictProbs diverged from serial result"
								return
							}
						}
					}
				}
				// Batched prediction draws from the same engine pool.
				labels, err := n.PredictBatch(inputs)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(labels, wantLabels) {
					errs <- "concurrent PredictBatch diverged from serial result"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// A trained-then-saved network must resume fine-tuning on a shuffle stream
// distinct from the one its original run consumed (the old behavior replayed
// epoch 0's permutations), while staying fully deterministic: two loads of
// the same snapshot train byte-identically.
func TestLoadResumesDistinctShuffleStream(t *testing.T) {
	cfg := Config{InputDim: 2, Hidden: 4, Classes: 3, Seed: 99}
	seqs := randBatchSeqs(11, 6, 2, 3, false)

	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(seqs, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snapshotBytes := buf.Bytes()

	// Two loads must train to byte-identical networks: resuming is still
	// deterministic.
	finetune := func() []byte {
		ld, err := Load(bytes.NewReader(snapshotBytes))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ld.Train(seqs, 2); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := ld.Save(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(finetune(), finetune()) {
		t.Fatal("two loads of the same snapshot fine-tuned to different networks")
	}

	// White box: the loaded RNG must not sit at the start of cfg.Seed's
	// stream, or fine-tuning would replay the original run's epoch-0
	// shuffles.
	ld, err := Load(bytes.NewReader(snapshotBytes))
	if err != nil {
		t.Fatal(err)
	}
	if ld.trainedEpochs != 2 {
		t.Fatalf("loaded trainedEpochs = %d, want 2", ld.trainedEpochs)
	}
	fresh := rand.New(rand.NewSource(cfg.Seed))
	same := true
	for i := 0; i < 4; i++ {
		if ld.rng.Int63() != fresh.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("loaded trained network resumed on the epoch-0 shuffle stream")
	}

	// An untrained snapshot keeps the historical behavior: its stream is
	// cfg.Seed's from the top, matching what New would do.
	un, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ubuf bytes.Buffer
	if err := un.Save(&ubuf); err != nil {
		t.Fatal(err)
	}
	uld, err := Load(&ubuf)
	if err != nil {
		t.Fatal(err)
	}
	freshU := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 4; i++ {
		if got, want := uld.rng.Int63(), freshU.Int63(); got != want {
			t.Fatalf("untrained snapshot draw %d: %d, want cfg.Seed stream value %d", i, got, want)
		}
	}
}

// FP32 training must stay deterministic across worker counts (workers only
// partition GEMM output cells there too) and actually learn.
func TestFP32TrainDeterministicAndLearns(t *testing.T) {
	seqs := make([]Sequence, 0, 24)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 24; i++ {
		const length = 8
		in := make([][]float64, length)
		labels := make([]int, length)
		// Label = sign of the previous step's input: solvable only through
		// the recurrent state.
		prev := 0.0
		for t := range in {
			v := rng.NormFloat64()
			in[t] = []float64{v}
			if prev > 0 {
				labels[t] = 1
			}
			prev = v
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels})
	}

	train := func(workers int) (string, float64) {
		n, err := New(Config{
			InputDim: 1, Hidden: 12, Classes: 2, Seed: 5,
			LearningRate: 3e-2, Batch: 4, Workers: workers,
			Precision: PrecisionFP32,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.Train(seqs, 30)
		if err != nil {
			t.Fatal(err)
		}
		return hashParams(n), res[len(res)-1].Accuracy
	}
	h1, acc := train(1)
	h4, _ := train(4)
	if h1 != h4 {
		t.Fatalf("FP32 training depends on worker count: %s vs %s", h1, h4)
	}
	if acc < 0.85 {
		t.Fatalf("FP32 training failed to learn the temporal task: accuracy %v", acc)
	}
}
