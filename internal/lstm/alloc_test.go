package lstm

import "testing"

// allocNet returns a small serial network and ragged inputs for the
// allocation ceilings; Workers=1 keeps every GEMM on the calling goroutine.
func allocNet(t *testing.T) (*Network, [][][]float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	n, err := New(Config{InputDim: 4, Hidden: 8, Classes: 3, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(83, 2*predictBatchWidth+3, 4, 3, false)
	inputs := make([][][]float64, len(seqs))
	for i, s := range seqs {
		inputs[i] = s.Inputs
	}
	return n, inputs
}

// A warmed Predict allocates only its result: the engine, its step buffers
// and the transposed weights all come from the network.
func TestPredictAllocsRegression(t *testing.T) {
	n, inputs := allocNet(t)
	seq := inputs[0]
	if _, err := n.Predict(seq); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := n.Predict(seq); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("Predict allocates %.1f objects per call, ceiling 1 (the result)", avg)
	}
}

// A warmed PredictBatch allocates only its outputs: the outer slice and one
// label slice per sequence.
func TestPredictBatchAllocsRegression(t *testing.T) {
	n, inputs := allocNet(t)
	if _, err := n.PredictBatch(inputs); err != nil {
		t.Fatal(err)
	}
	ceiling := float64(1 + len(inputs))
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := n.PredictBatch(inputs); err != nil {
			t.Fatal(err)
		}
	}); avg > ceiling {
		t.Errorf("PredictBatch allocates %.1f objects per call, ceiling %.0f (its outputs)", avg, ceiling)
	}
}
