package attack

import (
	"math"
	"strings"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/cupti"
	"leakydnn/internal/gbdt"
	"leakydnn/internal/trace"
)

// trivialGapModels trains a one-feature Mgap (0.1 = busy, 0.9 = NOP) so the
// splitting logic can be driven over hand-built streams.
func trivialGapModels(t *testing.T) *Models {
	t.Helper()
	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		x = append(x, []float64{0.1})
		y = append(y, 0)
		x = append(x, []float64{0.9})
		y = append(y, 1)
	}
	gapModel, err := gbdt.Train(x, y, gbdt.Config{Rounds: 10, MinLeaf: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &Models{Cfg: FastConfig(), Gap: gapModel}
	m.Cfg.THGap = 3
	return m
}

func repeat(v []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Degenerate streams must split without panicking, and the quarantine
// identity Valid + QuarantinedShort + QuarantinedLong == All must hold on
// every one of them.
func TestSplitIterationsDegenerateStreams(t *testing.T) {
	m := trivialGapModels(t)
	busy, nop := []float64{0.1}, []float64{0.9}
	cases := map[string][][]float64{
		"empty":         nil,
		"all-nop":       repeat(nop, 30),
		"all-busy":      repeat(busy, 30),
		"single-sample": repeat(busy, 1),
		"single-iteration": append(append(append([][]float64{},
			repeat(nop, 4)...), repeat(busy, 12)...), repeat(nop, 4)...),
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			res, err := m.SplitIterations(stream)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Valid) + res.QuarantinedShort + res.QuarantinedLong; got != len(res.All) {
				t.Fatalf("quarantine identity broken: valid=%d short=%d long=%d vs all=%d",
					len(res.Valid), res.QuarantinedShort, res.QuarantinedLong, len(res.All))
			}
			if len(res.IsNOP) != len(stream) {
				t.Fatalf("IsNOP length %d, stream length %d", len(res.IsNOP), len(stream))
			}
		})
	}
	if res, _ := m.SplitIterations(cases["all-nop"]); len(res.All) != 0 {
		t.Fatalf("all-NOP stream produced %d segments", len(res.All))
	}
	if res, _ := m.SplitIterations(cases["single-iteration"]); len(res.Valid) != 1 {
		t.Fatalf("single clean iteration not recovered: %+v", res)
	}
}

// A truncation mid-iteration leaves a runt segment; the length filter must
// quarantine it as short and count it.
func TestSplitIterationsQuarantinesTruncatedRunt(t *testing.T) {
	m := trivialGapModels(t)
	busy, nop := []float64{0.1}, []float64{0.9}
	var stream [][]float64
	for i := 0; i < 3; i++ {
		stream = append(stream, repeat(busy, 12)...)
		stream = append(stream, repeat(nop, 4)...)
	}
	// The fourth iteration was cut off after 3 samples (trace truncated).
	stream = append(stream, repeat(busy, 3)...)
	res, err := m.SplitIterations(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 4 || len(res.Valid) != 3 {
		t.Fatalf("segments: all=%d valid=%d, want 4/3", len(res.All), len(res.Valid))
	}
	if res.QuarantinedShort != 1 || res.QuarantinedLong != 0 {
		t.Fatalf("runt not quarantined as short: short=%d long=%d",
			res.QuarantinedShort, res.QuarantinedLong)
	}
}

// Half-trained model sets must be rejected with an error, never a nil
// dereference mid-pipeline.
func TestExtractRejectsUntrainedModels(t *testing.T) {
	samples := []cupti.Sample{{}}
	if _, err := (&Models{Cfg: FastConfig()}).Extract(samples); err == nil ||
		!strings.Contains(err.Error(), "scaler") {
		t.Fatalf("nil scaler not reported: %v", func() error {
			_, err := (&Models{Cfg: FastConfig()}).Extract(samples)
			return err
		}())
	}
	m := trivialGapModels(t)
	scaler, err := gbdt.FitScaler([][]float64{make([]float64, FeatureDim), make([]float64, FeatureDim)})
	if err != nil {
		t.Fatal(err)
	}
	m.Scaler = scaler
	if _, err := m.Extract(samples); err == nil || !strings.Contains(err.Error(), "Mlong/Mop") {
		t.Fatalf("untrained Mlong/Mop not reported: %v", err)
	}
}

// Counter values that are negative or non-finite (corrupt traces, hostile
// inputs) must featurize to finite values.
func TestFeaturizeClampsNonFiniteCounters(t *testing.T) {
	var s cupti.Sample
	s.Values[0] = math.NaN()
	s.Values[1] = math.Inf(1)
	s.Values[2] = -500
	s.Values[3] = math.Inf(-1)
	for i, v := range Featurize(s) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d is non-finite: %v", i, v)
		}
	}
}

// Dataset building must reject trace sets that cannot train anything —
// traces with no samples at all — with an error, not a panic, and must
// tolerate a trace whose Timeline is missing (labels degrade to all-NOP).
func TestTrainModelsDegenerateTraces(t *testing.T) {
	empty := &trace.Trace{}
	if _, err := TrainModels([]*trace.Trace{empty}, FastConfig()); err == nil {
		t.Fatal("sample-less trace set accepted")
	}
	// A trace with samples but no timeline yields only NOP labels; training
	// needs at least both classes somewhere, so it must error cleanly.
	noTL := &trace.Trace{Samples: make([]cupti.Sample, 50)}
	if _, err := TrainModels([]*trace.Trace{noTL}, FastConfig()); err == nil {
		t.Fatal("timeline-less trace set trained successfully from NOP-only labels")
	}
}

// End-to-end graceful degradation: train on clean profiled traces, then
// extract from a victim trace whose sample stream was truncated
// mid-iteration by the fault injector. The pipeline must complete without
// panicking and report its reduced coverage honestly.
func TestExtractFromTruncatedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the full model set")
	}
	profiled := collectAll(t, profiledModels(), 6, 600)
	models, err := TrainModels(profiled, FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testRunConfig(999, 6)
	cfg.Chaos = chaos.Plan{TruncateFrac: 0.45}
	victimTrace, err := trace.Collect(testedModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if victimTrace.Health.Faults.Truncated == 0 {
		t.Fatal("truncation plan removed nothing")
	}
	rec, err := models.Extract(victimTrace.Samples)
	if err != nil {
		t.Fatalf("extraction from truncated trace must degrade, not fail: %v", err)
	}
	cov := rec.Coverage
	if cov.SegmentsValid+cov.QuarantinedShort+cov.QuarantinedLong != cov.SegmentsDetected {
		t.Fatalf("coverage identity broken: %+v", cov)
	}
	if cov.Samples != len(victimTrace.Samples) {
		t.Fatalf("coverage saw %d samples, trace has %d", cov.Samples, len(victimTrace.Samples))
	}
	if len(rec.Layers) == 0 {
		t.Fatal("truncated-trace recovery produced no layers at all")
	}
}

// Featurize converts one CUPTI sample into the attack's feature vector:
// log-compressed counters (their magnitudes span decades between starved and
// idle windows) plus the traffic-mix ratios that expose the context-switch
// refetch fraction — the component of the spy's traffic that fingerprints
// the concurrently running victim op.
func Featurize(s cupti.Sample) []float64 {
	v := make([]float64, 0, FeatureDim)
	return featurizeAppend(v, s)
}
