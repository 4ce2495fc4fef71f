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

	tr := newTrainer(n, 1, seqs)
	for i := range seqs {
		loss, counted, correct := tr.run(seqs, []int{i})
		g := newParams(n.cfg)
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

// trainerGrad runs the production trainer over the minibatch seqs[idx] and
// returns the batch loss and the summed gradient.
func trainerGrad(n *Network, seqs []Sequence, idx []int) (float64, params) {
	tr := newTrainer(n, len(idx), seqs)
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
	p := n.masters()
	probe := func(k, j int, v float64) float64 {
		p.tensors()[k][j] = v
		n.refresh(p)
		loss, _ := trainerGrad(n, seqs, idx)
		return loss
	}
	for k, param := range p.tensors() {
		for _, j := range []int{0, len(param) / 2, len(param) - 1} {
			orig := param[j]
			up, down := probe(k, j, orig+eps), probe(k, j, orig-eps)
			probe(k, j, orig)
			numeric := (up - down) / (2 * eps)
			if diff := math.Abs(numeric - grads[k][j]); diff > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", tensorNames[k], j, grads[k][j], numeric)
			}
		}
	}
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
	snapshotBytes := save(n)

	// Two loads must train to byte-identical networks: resuming is still
	// deterministic.
	finetune := func() []byte {
		ld, err := load(snapshotBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ld.Train(seqs, 2); err != nil {
			t.Fatal(err)
		}
		return save(ld)
	}
	if !bytes.Equal(finetune(), finetune()) {
		t.Fatal("two loads of the same snapshot fine-tuned to different networks")
	}

	// White box: the loaded RNG must not sit at the start of cfg.Seed's
	// stream, or fine-tuning would replay the original run's epoch-0
	// shuffles.
	ld, err := load(snapshotBytes)
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
	uld, err := load(save(un))
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

// PredictProbsBatch returns PredictProbs for every input sequence, running
// the forward pass across up to 32 of them at a time. The forward pass has
// no cross-sequence reductions, so the result is bit-identical to
// per-sequence PredictProbs calls: this is a pure throughput API, safe for
// concurrent use like PredictProbs.
func (n *Network) PredictProbsBatch(inputs [][][]float64) ([][][]float64, error) {
	out := make([][][]float64, len(inputs))
	if err := n.forwardBatch(inputs, func(i int, e *engine, s int) {
		out[i] = e.probs(s, len(inputs[i]))
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// stagingSeq builds one sequence of the given length whose timestep t
// counts when counts(t) holds (nil counts: every timestep, no mask).
func stagingSeq(rng *rand.Rand, length, inputDim, classes int, counts func(t int) bool) Sequence {
	seq := Sequence{Inputs: make([][]float64, length), Labels: make([]int, length)}
	if counts != nil {
		seq.Mask = make([]bool, length)
	}
	for t := range seq.Inputs {
		v := make([]float64, inputDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		seq.Inputs[t] = v
		seq.Labels[t] = rng.Intn(classes)
		if counts != nil {
			seq.Mask[t] = counts(t)
		}
	}
	return seq
}

// The trainer stages its weight-gradient rows and accumulates them 8 at a
// time. One run's gradient must still equal the oracle's bit for bit,
// summed in the engine's cross-sequence order, wherever the flushes fall:
// a ragged batch whose live prefix shrinks across flush boundaries, steps
// where only some slots count (wy then takes zero dL rows), class weights,
// a sequence shorter than one flush, and a wide shape. A second run on the
// same trainer must repeat the first, so no row outlives its run.
func TestStagedGradientsMatchOracle(t *testing.T) {
	ragged := func(cfg Config, lens []int, counts func(s, t int) bool) []Sequence {
		rng := rand.New(rand.NewSource(int64(len(lens)*100 + cfg.Hidden)))
		seqs := make([]Sequence, len(lens))
		for s, l := range lens {
			var c func(int) bool
			if counts != nil {
				c = func(t int) bool { return counts(s, t) }
			}
			seqs[s] = stagingSeq(rng, l, cfg.InputDim, cfg.Classes, c)
		}
		return seqs
	}
	small := Config{InputDim: 3, Hidden: 5, Classes: 4, Seed: 21}
	weighted := small
	weighted.ClassWeights = []float64{1, 2.5, 0.5, 1.5}
	wide := Config{InputDim: 64, Hidden: 32, Classes: 5, Seed: 22}
	// Input order differs from length order, so the stable length sort
	// matters too.
	raggedLens := []int{3, 9, 7, 2, 7}
	someCount := func(s, t int) bool { return (s+t)%3 != 0 }
	cases := []struct {
		name string
		cfg  Config
		seqs []Sequence
	}{
		{"ragged", small, ragged(small, raggedLens, nil)},
		{"masked", small, ragged(small, raggedLens, someCount)},
		{"weighted", weighted, ragged(weighted, raggedLens, someCount)},
		{"short", small, ragged(small, []int{3}, nil)},
		{"single-long", weighted, ragged(weighted, []int{19}, func(_, t int) bool { return t%4 != 1 })},
		{"wide", wide, ragged(wide, []int{11, 6, 13}, someCount)},
	}
	for _, c := range cases {
		n, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int, len(c.seqs))
		for i := range idx {
			idx[i] = i
		}
		want := newParams(n.cfg)
		wantLoss, wantCounted, wantCorrect := oracleBatchBackward(n, c.seqs, idx, want)
		tr := newTrainer(n, len(idx), c.seqs)
		for run := 0; run < 2; run++ {
			loss, counted, correct := tr.run(c.seqs, idx)
			if math.Float64bits(loss) != math.Float64bits(wantLoss) || counted != wantCounted || correct != wantCorrect {
				t.Fatalf("%s run %d: stats (%v,%d,%d), oracle (%v,%d,%d)",
					c.name, run, loss, counted, correct, wantLoss, wantCounted, wantCorrect)
			}
			for k, got := range tr.g.tensors() {
				w := want.tensors()[k]
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(w[j]) {
						t.Fatalf("%s run %d: %s[%d] = %v, oracle %v",
							c.name, run, tensorNames[k], j, got[j], w[j])
					}
				}
			}
		}
	}
}
