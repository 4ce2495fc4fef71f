package lstm

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"leakydnn/internal/mat"
)

// The minibatch gradient must match the numeric gradient of the summed
// loss, i.e. the engine's rank-B accumulation across ragged sequences
// really computes the gradient of the batch objective.
func TestMinibatchGradientMatchesNumeric(t *testing.T) {
	n, err := New(Config{InputDim: 2, Hidden: 3, Classes: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	mkSeq := func(length int) Sequence {
		in := make([][]float64, length)
		labels := make([]int, length)
		for t2 := range in {
			in[t2] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			labels[t2] = rng.Intn(3)
		}
		return Sequence{Inputs: in, Labels: labels}
	}
	checkNumericGrad(t, n, []Sequence{mkSeq(3), mkSeq(5), mkSeq(4)}, []int{0, 1, 2})
}

// The load-bearing guarantee of the worker pool: any Workers value trains a
// byte-identical network and reports identical epoch stats.
func TestTrainDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var seqs []Sequence
	for i := 0; i < 10; i++ {
		length := 4 + rng.Intn(5)
		in := make([][]float64, length)
		labels := make([]int, length)
		mask := make([]bool, length)
		for t2 := range in {
			in[t2] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			labels[t2] = rng.Intn(3)
			mask[t2] = rng.Float64() < 0.8
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}

	train := func(workers int) ([]byte, []TrainResult) {
		n, err := New(Config{InputDim: 2, Hidden: 6, Classes: 3, Seed: 29, Batch: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		results, err := n.Train(seqs, 5)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), results
	}

	refBytes, refResults := train(1)
	for _, workers := range []int{2, 4, 0} {
		gotBytes, gotResults := train(workers)
		if !bytes.Equal(refBytes, gotBytes) {
			t.Errorf("Workers=%d trained a different network than Workers=1", workers)
		}
		if !reflect.DeepEqual(refResults, gotResults) {
			t.Errorf("Workers=%d epoch stats differ: %+v vs %+v", workers, gotResults, refResults)
		}
	}
}

// The epoch stats Train reports must be the masked accuracy and loss of the
// forward passes under the weights in effect when each sequence was visited —
// i.e. dropping the separate post-epoch Predict sweep changed the cost of
// monitoring, not its meaning.
func TestEpochStatsMatchPreUpdatePredictions(t *testing.T) {
	cfg := Config{InputDim: 1, Hidden: 5, Classes: 2, Seed: 31}
	rng := rand.New(rand.NewSource(37))
	var seqs []Sequence
	for i := 0; i < 8; i++ {
		length := 5
		in := make([][]float64, length)
		labels := make([]int, length)
		mask := make([]bool, length)
		for t2 := range in {
			v := rng.NormFloat64()
			in[t2] = []float64{v}
			if v > 0 {
				labels[t2] = 1
			}
			mask[t2] = t2%3 != 2
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}
	const epochs = 3

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := a.Train(seqs, epochs)
	if err != nil {
		t.Fatal(err)
	}

	// Twin replay: same seed, so the shuffle stream is identical. Before each
	// (Batch=1) update, predict with the current weights and tally the same
	// masked stats by hand, then apply the oracle's gradient through the
	// update Train performs.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	b.adam = newAdamState(b.cfg)
	g := newParams[float64](b.cfg)
	for epoch := 0; epoch < epochs; epoch++ {
		b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var wantLoss float64
		var wantCounted, wantCorrect int
		for _, idx := range order {
			seq := seqs[idx]
			probs, err := b.PredictProbs(seq.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			for t2 := range probs {
				if seq.Mask != nil && !seq.Mask[t2] {
					continue
				}
				label := seq.Labels[t2]
				wantCounted++
				if mat.ArgMax(probs[t2]) == label {
					wantCorrect++
				}
				p := probs[t2][label]
				if p < 1e-12 {
					p = 1e-12
				}
				wantLoss += -math.Log(p)
			}

			for _, s := range g.tensors() {
				clear(s)
			}
			_, counted, _ := oracleBackward(b, seq, g)
			if counted == 0 {
				continue
			}
			b.applyGrads(g, counted)
			b.w.refresh(b)
		}
		res := results[epoch]
		if wantAcc := float64(wantCorrect) / float64(wantCounted); res.Accuracy != wantAcc {
			t.Errorf("epoch %d: reported accuracy %v, pre-update predictions give %v", epoch, res.Accuracy, wantAcc)
		}
		wantAvg := wantLoss / float64(wantCounted)
		if math.Abs(res.AvgLoss-wantAvg) > 1e-9*(1+math.Abs(wantAvg)) {
			t.Errorf("epoch %d: reported avg loss %v, pre-update predictions give %v", epoch, res.AvgLoss, wantAvg)
		}
	}

	// The replay must have been faithful, or the comparison above is vacuous.
	// Compare raw parameters rather than Save bytes: Train counts its epochs
	// into the snapshot's TrainedEpochs field, which the manual replay
	// deliberately bypasses.
	if !paramsEqual(a, b) {
		t.Fatal("twin replay diverged from Train; stat comparison is not trustworthy")
	}
}

// paramsEqual reports whether two networks hold bitwise-identical parameters.
func paramsEqual(a, b *Network) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	at, bt := a.p.tensors(), b.p.tensors()
	for k := range at {
		if !eq(at[k], bt[k]) {
			return false
		}
	}
	return true
}

// Minibatch training (averaged gradients, fewer optimizer steps) must still
// solve the temporal task — batching may change the trajectory but not the
// ability to learn.
func TestMinibatchLearnsTemporalDependency(t *testing.T) {
	n, err := New(Config{InputDim: 1, Hidden: 12, Classes: 2, Seed: 5, LearningRate: 3e-2, Batch: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var train []Sequence
	for i := 0; i < 60; i++ {
		length := 12
		in := make([][]float64, length)
		labels := make([]int, length)
		mask := make([]bool, length)
		prevPos := false
		for t2 := 0; t2 < length; t2++ {
			v := rng.NormFloat64()
			in[t2] = []float64{v}
			if prevPos {
				labels[t2] = 1
			}
			mask[t2] = t2 > 0
			prevPos = v > 0
		}
		train = append(train, Sequence{Inputs: in, Labels: labels, Mask: mask})
	}
	results, err := n.Train(train, 20)
	if err != nil {
		t.Fatal(err)
	}
	if final := results[len(results)-1]; final.Accuracy < 0.9 {
		t.Fatalf("minibatch temporal accuracy = %.3f, want >= 0.9", final.Accuracy)
	}
}

// A batch larger than the training set must clamp, not crash or stall.
func TestBatchLargerThanDataset(t *testing.T) {
	n, err := New(Config{InputDim: 1, Hidden: 4, Classes: 2, Seed: 3, Batch: 64, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seqs := []Sequence{
		{Inputs: [][]float64{{1}, {-1}}, Labels: []int{1, 0}},
		{Inputs: [][]float64{{-2}, {2}}, Labels: []int{0, 1}},
	}
	if _, err := n.Train(seqs, 2); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeBatchRejected(t *testing.T) {
	if _, err := New(Config{InputDim: 1, Hidden: 2, Classes: 2, Batch: -1}); err == nil {
		t.Fatal("negative batch size accepted")
	}
}
