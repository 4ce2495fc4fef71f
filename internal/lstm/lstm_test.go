package lstm

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero input", Config{InputDim: 0, Hidden: 4, Classes: 2}},
		{"zero hidden", Config{InputDim: 2, Hidden: 0, Classes: 2}},
		{"one class", Config{InputDim: 2, Hidden: 4, Classes: 1}},
		{"neg lr", Config{InputDim: 2, Hidden: 4, Classes: 2, LearningRate: -1}},
		{"bad weights", Config{InputDim: 2, Hidden: 4, Classes: 2, ClassWeights: []float64{1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestPredictShapes(t *testing.T) {
	n, err := New(Config{InputDim: 3, Hidden: 8, Classes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	probs, err := n.PredictProbs(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 3 || len(probs[0]) != 4 {
		t.Fatalf("probs shape = %dx%d, want 3x4", len(probs), len(probs[0]))
	}
	for t2, p := range probs {
		var sum float64
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probs[%d] sum = %v", t2, sum)
		}
	}
	if _, err := n.PredictProbs(nil); err == nil {
		t.Fatal("empty sequence accepted")
	}
	if _, err := n.PredictProbs([][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong input dim accepted")
	}
}

// Numerical gradient check: perturb each parameter, compare the trainer's
// analytic BPTT gradient at Batch=1 with the central finite difference. This
// pins the entire backward derivation.
func TestGradientCheck(t *testing.T) {
	n, err := New(Config{InputDim: 2, Hidden: 3, Classes: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	seq := Sequence{
		Inputs: [][]float64{
			{rng.NormFloat64(), rng.NormFloat64()},
			{rng.NormFloat64(), rng.NormFloat64()},
			{rng.NormFloat64(), rng.NormFloat64()},
			{rng.NormFloat64(), rng.NormFloat64()},
		},
		Labels: []int{0, 2, 1, 2},
		Mask:   []bool{true, false, true, true}, // exercise the masked path
	}
	checkNumericGrad(t, n, []Sequence{seq}, []int{0})
}

// Class weights must scale the loss and the whole gradient of a timestep of
// the weighted class.
func TestClassWeightsScaleLoss(t *testing.T) {
	mk := func(weights []float64) (float64, params) {
		n, err := New(Config{InputDim: 1, Hidden: 2, Classes: 2, Seed: 3, ClassWeights: weights})
		if err != nil {
			t.Fatal(err)
		}
		return trainerGrad(n, []Sequence{{Inputs: [][]float64{{1}}, Labels: []int{1}}}, []int{0})
	}
	plain, gPlain := mk(nil)
	weighted, gWeighted := mk([]float64{1, 3})
	if math.Abs(weighted-3*plain) > 1e-9 {
		t.Fatalf("weighted loss = %v, want 3x plain %v", weighted, plain)
	}
	want := gPlain.tensors()
	for k, got := range gWeighted.tensors() {
		for j := range got {
			if math.Abs(got[j]-3*want[k][j]) > 1e-12*(1+math.Abs(got[j])) {
				t.Fatalf("%s[%d]: weighted gradient %v, want 3x plain %v", tensorNames[k], j, got[j], want[k][j])
			}
		}
	}
}

// The network must learn a simple temporal task: classify each timestep by
// whether the *previous* input was positive — solvable only with memory.
func TestLearnsTemporalDependency(t *testing.T) {
	n, err := New(Config{InputDim: 1, Hidden: 12, Classes: 2, Seed: 5, LearningRate: 2e-2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	makeSeq := func() Sequence {
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
		return Sequence{Inputs: in, Labels: labels, Mask: mask}
	}
	var train []Sequence
	for i := 0; i < 60; i++ {
		train = append(train, makeSeq())
	}
	results, err := n.Train(train, 12)
	if err != nil {
		t.Fatal(err)
	}
	final := results[len(results)-1]
	if final.Accuracy < 0.95 {
		t.Fatalf("temporal task accuracy = %.3f, want >= 0.95", final.Accuracy)
	}
	if results[0].AvgLoss <= final.AvgLoss {
		// Loss should generally decrease; allow noise but the first epoch
		// must not already be the best.
		t.Logf("warning: first epoch loss %v <= final %v", results[0].AvgLoss, final.AvgLoss)
	}

	// Held-out generalization.
	test := makeSeq()
	pred, err := n.Predict(test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for t2 := 1; t2 < len(pred); t2++ {
		total++
		if pred[t2] == test.Labels[t2] {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("held-out accuracy = %.3f, want >= 0.8", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	n, err := New(Config{InputDim: 2, Hidden: 4, Classes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Train(nil, 1); err == nil {
		t.Fatal("empty training set accepted")
	}
	good := Sequence{Inputs: [][]float64{{1, 2}}, Labels: []int{0}}
	if _, err := n.Train([]Sequence{good}, 0); err == nil {
		t.Fatal("zero epochs accepted")
	}
	bad := Sequence{Inputs: [][]float64{{1, 2}}, Labels: []int{5}}
	if _, err := n.Train([]Sequence{bad}, 1); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	short := Sequence{Inputs: [][]float64{{1, 2}}, Labels: []int{0, 1}}
	if _, err := n.Train([]Sequence{short}, 1); err == nil {
		t.Fatal("label/input length mismatch accepted")
	}
}

func TestMaskedLabelsMayBeInvalid(t *testing.T) {
	// Timesteps excluded by the mask may carry out-of-range labels (e.g. -1
	// for "irrelevant"), as Mop's dataset construction produces.
	n, err := New(Config{InputDim: 1, Hidden: 4, Classes: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq := Sequence{
		Inputs: [][]float64{{1}, {2}},
		Labels: []int{-1, 1},
		Mask:   []bool{false, true},
	}
	if _, err := n.Train([]Sequence{seq}, 1); err != nil {
		t.Fatalf("masked invalid label rejected: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n, err := New(Config{InputDim: 3, Hidden: 6, Classes: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{{1, 2, 3}, {4, 5, 6}}
	want, err := n.PredictProbs(seq)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictProbs(seq)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range want {
		for c := range want[t2] {
			if math.Abs(want[t2][c]-got[t2][c]) > 1e-12 {
				t.Fatalf("probs[%d][%d] differ after round trip: %v vs %v",
					t2, c, want[t2][c], got[t2][c])
			}
		}
	}
}

// precisionEraConfig and precisionEraSnapshot copy the snapshot types as
// they stood while Config carried a Precision field (0 = fp64, 1 = fp32).
// Model files on disk, mosconsd's model cache among them, still hold it.
type precisionEraConfig struct {
	InputDim, Hidden, Classes int
	LearningRate, ClipAbs     float64
	ClassWeights              []float64
	Seed                      int64
	Batch, Workers            int
	Precision                 int
}

type precisionEraSnapshot struct {
	Cfg               precisionEraConfig
	Wx, Wh, Wy, B, By []float64
	TrainedEpochs     int64
}

// A network saved while Config had a Precision field must load, predict
// bit-identically to the same network saved without it, re-save to the same
// bytes, and fine-tune on the same shuffle stream. At precision 0 gob sends
// only the field's type; at 1 it sends a value the decoder must skip.
func TestLoadPrecisionEraSnapshot(t *testing.T) {
	cfg := Config{InputDim: 3, Hidden: 5, Classes: 4, Seed: 8, ClassWeights: []float64{1, 2, 1, 1.5}, Batch: 2}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := randBatchSeqs(17, 6, 3, 4, false)
	if _, err := n.Train(seqs, 2); err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := n.Save(&cur); err != nil {
		t.Fatal(err)
	}
	fineTuned := func(raw []byte) (*Network, string) {
		t.Helper()
		m, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := m.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), cur.Bytes()) {
			t.Fatal("loaded network re-saves to different bytes")
		}
		tuned, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tuned.Train(seqs, 1); err != nil {
			t.Fatal(err)
		}
		return m, hashParams(tuned)
	}
	want, wantTuned := fineTuned(cur.Bytes())

	np := n.masters()
	for _, precision := range []int{0, 1} {
		old := precisionEraSnapshot{
			Cfg: precisionEraConfig{
				InputDim: cfg.InputDim, Hidden: cfg.Hidden, Classes: cfg.Classes,
				LearningRate: n.cfg.LearningRate, ClipAbs: n.cfg.ClipAbs,
				ClassWeights: cfg.ClassWeights, Seed: cfg.Seed, Batch: cfg.Batch,
				Precision: precision,
			},
			Wx: np.wx, Wh: np.wh, Wy: np.wy, B: np.b, By: np.by,
			TrainedEpochs: 2,
		}
		var raw bytes.Buffer
		if err := gob.NewEncoder(&raw).Encode(old); err != nil {
			t.Fatal(err)
		}
		got, gotTuned := fineTuned(raw.Bytes())
		for _, seq := range seqs {
			wp, err := want.PredictProbs(seq.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := got.PredictProbs(seq.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			for ts := range wp {
				for c := range wp[ts] {
					if math.Float64bits(gp[ts][c]) != math.Float64bits(wp[ts][c]) {
						t.Fatalf("precision %d: probs[%d][%d] = %v, want %v", precision, ts, c, gp[ts][c], wp[ts][c])
					}
				}
			}
		}
		if gotTuned != wantTuned {
			t.Fatalf("precision %d: fine-tuning the loaded network diverged: %s vs %s", precision, gotTuned, wantTuned)
		}
	}
}

// Dims whose parameter counts overflow int must be an error from New and
// from Load, never a panic: a crafted snapshot with Hidden = 1<<62 used to
// wrap Load's size check (4*h*in = 0) and crash in the allocator.
func TestOverflowingDimsRejected(t *testing.T) {
	cfg := Config{InputDim: 1, Hidden: 1 << 62, Classes: 4}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted dims that overflow int")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Cfg: cfg, By: make([]float64, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("Load accepted dims that overflow int")
	}
	for _, cfg := range []Config{
		{InputDim: 1 << 40, Hidden: 1 << 30, Classes: 2},
		{InputDim: 1, Hidden: 3, Classes: math.MaxInt / 2},
	} {
		if err := cfg.defaults(); err == nil {
			t.Fatalf("%+v: overflowing dims accepted", cfg)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	build := func() *Network {
		n, err := New(Config{InputDim: 2, Hidden: 4, Classes: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		seqs := []Sequence{{Inputs: [][]float64{{1, 2}, {3, 4}}, Labels: []int{0, 1}}}
		if _, err := n.Train(seqs, 3); err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := build(), build()
	pa, _ := a.PredictProbs([][]float64{{1, 1}})
	pb, _ := b.PredictProbs([][]float64{{1, 1}})
	for c := range pa[0] {
		if pa[0][c] != pb[0][c] {
			t.Fatal("identical seeds produced different networks")
		}
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	n, err := New(Config{InputDim: 10, Hidden: 32, Classes: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var seqs []Sequence
	for i := 0; i < 8; i++ {
		in := make([][]float64, 50)
		labels := make([]int, 50)
		for t2 := range in {
			v := make([]float64, 10)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			in[t2] = v
			labels[t2] = rng.Intn(4)
		}
		seqs = append(seqs, Sequence{Inputs: in, Labels: labels})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Train(seqs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// The network must stay numerically stable on extreme inputs: no NaN/Inf in
// probabilities even for huge or tiny feature values and long sequences.
func TestNumericalStabilityOnExtremeInputs(t *testing.T) {
	n, err := New(Config{InputDim: 3, Hidden: 8, Classes: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	seq := make([][]float64, 200)
	for i := range seq {
		switch i % 4 {
		case 0:
			seq[i] = []float64{1e9, -1e9, 1e9}
		case 1:
			seq[i] = []float64{1e-12, 0, -1e-12}
		case 2:
			seq[i] = []float64{0, 0, 0}
		default:
			seq[i] = []float64{-5, 5, -5}
		}
	}
	probs, err := n.PredictProbs(seq)
	if err != nil {
		t.Fatal(err)
	}
	for t2, p := range probs {
		var sum float64
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("t=%d produced invalid probability %v", t2, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("t=%d probabilities sum to %v", t2, sum)
		}
	}
}

// Training with gradient clipping must survive pathological inputs without
// parameter blow-up.
func TestTrainingStableOnOutliers(t *testing.T) {
	n, err := New(Config{InputDim: 2, Hidden: 6, Classes: 2, Seed: 18, LearningRate: 5e-2})
	if err != nil {
		t.Fatal(err)
	}
	seqs := []Sequence{{
		Inputs: [][]float64{{1e6, -1e6}, {0, 0}, {1, 1}},
		Labels: []int{0, 1, 0},
	}}
	if _, err := n.Train(seqs, 10); err != nil {
		t.Fatal(err)
	}
	probs, err := n.PredictProbs([][]float64{{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range probs[0] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("post-training prediction invalid: %v", probs[0])
		}
	}
}

// PredictProbs returns per-timestep class probabilities for the sequence,
// copied out of the pooled engine; Predict skips that copy.
func (n *Network) PredictProbs(inputs [][]float64) ([][]float64, error) {
	var out [][]float64
	if err := n.forwardBatch([][][]float64{inputs}, func(_ int, e *engine, s int) {
		out = e.probs(s, len(inputs))
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// probs copies slot s's first T timesteps of probabilities into fresh rows
// that share one backing array.
func (e *engine) probs(s, T int) [][]float64 {
	c := e.classes
	out := make([][]float64, T)
	backing := make([]float64, T*c)
	for t := range out {
		row := backing[t*c : (t+1)*c : (t+1)*c]
		copy(row, e.steps[t].probs[s*c:(s+1)*c])
		out[t] = row
	}
	return out
}
