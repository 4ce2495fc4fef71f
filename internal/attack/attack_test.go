package attack

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"leakydnn/internal/dnn"
	"leakydnn/internal/gbdt"
	"leakydnn/internal/gpu"
	"leakydnn/internal/lstm"
	"leakydnn/internal/spy"
	"leakydnn/internal/tfsim"
	"leakydnn/internal/trace"
	"leakydnn/internal/wire"
)

// attackScale is the simulated-time scale shared by every attack test.
const attackScale = 0.002

func testRunConfig(seed int64, iterations int) trace.RunConfig {
	return trace.RunConfig{
		Device: gpu.DefaultDeviceConfig().ScaledTime(attackScale),
		Session: tfsim.Config{
			Iterations: iterations,
			IterGap:    120 * gpu.Microsecond,
		},
		Spy: spy.Config{
			Probe:        spy.Conv200,
			Slowdown:     true,
			TimeScale:    attackScale,
			SamplePeriod: 20 * gpu.Microsecond,
		},
		Seed: seed,
	}
}

// profiledModels are the adversary's own models (structurally diverse,
// covering the tested model's op letters and hyper-parameter values).
func profiledModels() []dnn.Model {
	return []dnn.Model{
		{
			Name: "prof-cnn", Input: dnn.Shape{H: 32, W: 32, C: 3}, Batch: 16,
			Layers: []dnn.Layer{
				dnn.Conv(5, 32, 2, dnn.ActReLU),
				dnn.MaxPool(),
				dnn.Conv(3, 64, 1, dnn.ActReLU),
				dnn.FC(128, dnn.ActTanh),
				dnn.FC(10, dnn.ActSigmoid),
			},
			Optimizer: dnn.OptimizerAdam,
		},
		{
			Name: "prof-mlp", Input: dnn.Shape{H: 16, W: 16, C: 3}, Batch: 16,
			Layers: []dnn.Layer{
				dnn.FC(64, dnn.ActReLU),
				dnn.FC(128, dnn.ActTanh),
				dnn.FC(32, dnn.ActSigmoid),
			},
			Optimizer: dnn.OptimizerGD,
		},
		{
			Name: "prof-vgg", Input: dnn.Shape{H: 32, W: 32, C: 3}, Batch: 16,
			Layers: []dnn.Layer{
				dnn.Conv(3, 16, 1, dnn.ActReLU),
				dnn.Conv(3, 32, 1, dnn.ActReLU),
				dnn.MaxPool(),
				dnn.FC(64, dnn.ActReLU),
				dnn.FC(10, dnn.ActReLU),
			},
			Optimizer: dnn.OptimizerAdagrad,
		},
	}
}

// testedModel is the victim: same building blocks, different composition.
func testedModel() dnn.Model {
	return dnn.Model{
		Name: "victim-cnn", Input: dnn.Shape{H: 32, W: 32, C: 3}, Batch: 16,
		Layers: []dnn.Layer{
			dnn.Conv(3, 32, 1, dnn.ActReLU),
			dnn.MaxPool(),
			dnn.Conv(3, 64, 1, dnn.ActReLU),
			dnn.FC(128, dnn.ActReLU),
			dnn.FC(10, dnn.ActSigmoid),
		},
		Optimizer: dnn.OptimizerAdam,
	}
}

func collectAll(t *testing.T, models []dnn.Model, iterations int, seed int64) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for i, m := range models {
		tr, err := trace.Collect(m, testRunConfig(seed+int64(i), iterations))
		if err != nil {
			t.Fatalf("collect %s: %v", m.Name, err)
		}
		out = append(out, tr)
	}
	return out
}

// TestEndToEndExtraction is the pipeline integration test: profile, train
// every inference model, attack a victim trace, and check the recovered
// structure against ground truth.
func TestEndToEndExtraction(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end attack is expensive")
	}
	profiled := collectAll(t, profiledModels(), 6, 100)
	cfg := FastConfig()

	models, err := TrainModels(profiled, cfg)
	if err != nil {
		t.Fatal(err)
	}

	victim := testedModel()
	victimTrace, err := trace.Collect(victim, testRunConfig(999, 6))
	if err != nil {
		t.Fatal(err)
	}

	rec, err := models.Extract(victimTrace.Samples)
	if err != nil {
		t.Fatal(err)
	}

	// Iteration splitting must find most of the 6 iterations.
	if len(rec.Split.All) < 4 {
		t.Fatalf("Mgap found %d iterations, want >= 4 of 6", len(rec.Split.All))
	}

	// Mgap accuracy against ground truth (Table VI's metric).
	labels := victimTrace.Labels()
	nopAcc, busyAcc, nopN, busyN := GapAccuracy(rec.Split.IsNOP, labels)
	t.Logf("Mgap: NOP %.1f%% (n=%d), BUSY %.1f%% (n=%d)", nopAcc*100, nopN, busyAcc*100, busyN)
	if busyAcc < 0.8 {
		t.Errorf("BUSY accuracy = %.3f, want >= 0.8", busyAcc)
	}
	if nopAcc < 0.6 {
		t.Errorf("NOP accuracy = %.3f, want >= 0.6", nopAcc)
	}

	// Pre-voting Mlong accuracy on the base iteration.
	truthLong := TruthLongClasses(labels, rec.Base)
	_, preAcc := ClassAccuracy(rec.PreVoteLong[0], truthLong, nil)
	_, votedAcc := ClassAccuracy(rec.VotedLong, truthLong, nil)
	t.Logf("Mlong: pre-vote %.1f%%, voted %.1f%%", preAcc*100, votedAcc*100)
	if votedAcc < 0.6 {
		t.Errorf("voted Mlong accuracy = %.3f, want >= 0.6", votedAcc)
	}

	// Letter-level accuracy (Table VII's metric).
	truthLetters := LetterTruth(labels, rec.Base)
	_, letterAcc := LetterAccuracy(rec.Letters, truthLetters)
	t.Logf("letters: %.1f%%  opseq=%s", letterAcc*100, rec.OpSeq)

	// Structure recovery (Table IX's metric).
	layerAcc, hpAcc := LayerAccuracy(rec.Layers, victim)
	t.Logf("layers: %.1f%% hp: %.1f%% recovered=%d/%d optimizer=%v",
		layerAcc*100, hpAcc*100, len(rec.Layers), len(victim.Layers), rec.Optimizer)
	if layerAcc < 0.5 {
		t.Errorf("layer accuracy = %.3f, want >= 0.5", layerAcc)
	}

	// Persistence: a saved and reloaded model set must reproduce the exact
	// same extraction (profile once, attack many victims).
	var buf bytes.Buffer
	if err := models.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := reloaded.Extract(victimTrace.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.OpSeq != rec.OpSeq {
		t.Fatalf("reloaded models recovered %q, original %q", rec2.OpSeq, rec.OpSeq)
	}
	if rec2.Optimizer != rec.Optimizer {
		t.Fatalf("reloaded optimizer %v, original %v", rec2.Optimizer, rec.Optimizer)
	}
}

// TestTrainModelsDeterministicAcrossWorkers pins the PR's load-bearing
// guarantee at the pipeline level: the full MoSConS training run — the head
// fan-out — produces byte-identical models and identical reports for every
// worker count.
func TestTrainModelsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full training run is expensive")
	}
	profiled := collectAll(t, profiledModels(), 4, 300)

	train := func(workers int) *Models {
		cfg := FastConfig()
		cfg.Epochs = 6
		cfg.Batch = 2
		cfg.Workers = workers
		m, err := TrainModels(profiled, cfg)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		return m
	}
	netBytes := func(net *lstm.Network) []byte {
		if net == nil {
			return nil
		}
		c := wire.NewEncoder(nil)
		net.Walk(c)
		return c.Bytes()
	}

	ref := train(1)
	for _, workers := range []int{4, 0} {
		got := train(workers)
		nets := []struct {
			name     string
			ref, got *lstm.Network
		}{
			{"Mlong", ref.Long, got.Long},
			{"Vlong", ref.VLong, got.VLong},
			{"Mop", ref.Op, got.Op},
			{"Vop", ref.VOp, got.VOp},
		}
		for kind := HPKind(0); kind < NumHPKinds; kind++ {
			nets = append(nets, struct {
				name     string
				ref, got *lstm.Network
			}{fmt.Sprintf("Mhp[%s]", kind), ref.HP[kind], got.HP[kind]})
		}
		for _, n := range nets {
			if !bytes.Equal(netBytes(n.ref), netBytes(n.got)) {
				t.Errorf("Workers=%d: %s differs from Workers=1", workers, n.name)
			}
		}
		if !reflect.DeepEqual(ref.Report, got.Report) {
			t.Errorf("Workers=%d: report differs:\n  got  %v\n  want %v", workers, got.Report, ref.Report)
		}
		if !reflect.DeepEqual(ref.HPVocab, got.HPVocab) {
			t.Errorf("Workers=%d: HP vocabularies differ", workers)
		}
		if got.majorityLong != ref.majorityLong || got.majorityOp != ref.majorityOp {
			t.Errorf("Workers=%d: majority selection differs", workers)
		}
	}

	// Every LSTM that trained must have reported its final accuracy —
	// including the five Mhp heads, whose results used to be discarded.
	for kind := HPKind(0); kind < NumHPKinds; kind++ {
		key := fmt.Sprintf("Mhp[%s]", kind)
		_, reported := ref.Report[key]
		if trained := ref.HP[kind] != nil; trained != reported {
			t.Errorf("%s: trained=%v but reported=%v", key, trained, reported)
		}
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTrainModelsValidation(t *testing.T) {
	if _, err := TrainModels(nil, FastConfig()); err == nil {
		t.Fatal("empty trace set accepted")
	}
	bad := FastConfig()
	bad.Epochs = 0
	if _, err := TrainModels(nil, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSplitIterationsOnSyntheticStream(t *testing.T) {
	// Train a trivial Mgap on synthetic two-cluster data, then check the
	// run-length splitting logic precisely.
	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		x = append(x, []float64{0.1}) // busy
		y = append(y, 0)
		x = append(x, []float64{0.9}) // nop
		y = append(y, 1)
	}
	gapModel, err := gbdt.Train(x, y, gbdt.Config{Rounds: 10, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &Models{Cfg: FastConfig(), Gap: gapModel}
	m.Cfg.THGap = 3

	busy, nop := []float64{0.1}, []float64{0.9}
	var stream [][]float64
	pattern := []struct {
		v []float64
		n int
	}{
		{nop, 4}, // leading gap
		{busy, 10} /* iteration 1 */, {nop, 1} /* short NOP inside */, {busy, 5},
		{nop, 4}, // real gap
		{busy, 14}, {nop, 5},
		{busy, 3}, // runt iteration (incomplete)
		{nop, 4},
	}
	for _, p := range pattern {
		for i := 0; i < p.n; i++ {
			stream = append(stream, p.v)
		}
	}
	res, err := m.SplitIterations(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 3 {
		t.Fatalf("found %d segments, want 3: %+v", len(res.All), res.All)
	}
	// Segment 1 spans both busy runs around the short internal NOP.
	if got := res.All[0].End - res.All[0].Start; got != 16 {
		t.Fatalf("segment 0 length = %d, want 16 (10 busy + 1 nop + 5 busy)", got)
	}
	// The 3-sample runt must be filtered by RMin.
	for _, r := range res.Valid {
		if r.End-r.Start == 3 {
			t.Fatal("runt iteration not filtered")
		}
	}
	if len(res.Valid) != 2 {
		t.Fatalf("valid segments = %d, want 2", len(res.Valid))
	}
}

func TestExtractValidation(t *testing.T) {
	m := &Models{Cfg: FastConfig()}
	if _, err := m.Extract(nil); err == nil {
		t.Fatal("empty sample stream accepted")
	}
}

// ClassAccuracy reports per-class and overall accuracy of per-sample integer
// predictions against ground-truth labels drawn from a trace. The mask, when
// non-nil, selects the positions that count.
func ClassAccuracy(pred []int, truth []int, mask []bool) (perClass map[int]float64, overall float64) {
	perClass = make(map[int]float64)
	correct := make(map[int]int)
	total := make(map[int]int)
	var allCorrect, allTotal int
	for i := range pred {
		if i >= len(truth) {
			break
		}
		if mask != nil && !mask[i] {
			continue
		}
		total[truth[i]]++
		allTotal++
		if pred[i] == truth[i] {
			correct[truth[i]]++
			allCorrect++
		}
	}
	for cls, n := range total {
		perClass[cls] = float64(correct[cls]) / float64(n)
	}
	if allTotal > 0 {
		overall = float64(allCorrect) / float64(allTotal)
	}
	return perClass, overall
}

// TruthLongClasses extracts per-sample Mlong ground-truth classes for the
// range.
func TruthLongClasses(labels []trace.Label, r Range) []int {
	out := make([]int, 0, r.End-r.Start)
	for i := r.Start; i < r.End && i < len(labels); i++ {
		out = append(out, int(labels[i].Long))
	}
	return out
}

// TestGoldenModelSet pins a whole trained model set as a constant: the
// SHA-256 of Models.Save after training on a fixed profiling collection,
// with per-sequence (Batch 0) and minibatch (Batch 2) updates. Any change
// to labelling, head geometry, seeds, the voting datasets or their noise
// shows here as a different hash.
func TestGoldenModelSet(t *testing.T) {
	if testing.Short() {
		t.Skip("full training run is expensive")
	}
	profiled := collectAll(t, profiledModels(), 4, 300)
	golden := map[int]string{
		0: "06f78f39cee99f1c870c44c3ba4852bd77c833ec0fe47ab2c4299fb1d7c55532",
		2: "08f48ad7aecaf92f70b23260c1266ac01a519ef3fb1777e3687597a8fb4e5cf8",
	}
	for _, batch := range []int{0, 2} {
		cfg := FastConfig()
		cfg.Epochs = 6
		cfg.Batch = batch
		m, err := TrainModels(profiled, cfg)
		if err != nil {
			t.Fatalf("Batch=%d: %v", batch, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != golden[batch] {
			t.Errorf("Batch=%d: model set SHA-256 = %s, want %s", batch, got, golden[batch])
		}
	}
}
