package attack

import (
	"testing"

	"leakydnn/internal/dnn"
)

func TestCollapseOps(t *testing.T) {
	letters := []byte("CCCBRNNPPMMBS")
	ops := collapseOps(letters)
	want := "CBRPMBS"
	if got := OpSeqString(ops); got != want {
		t.Fatalf("collapsed = %s, want %s", got, want)
	}
	// Index bookkeeping: the first C run spans samples 0..2.
	if ops[0].FirstIdx != 0 || ops[0].LastIdx != 2 {
		t.Fatalf("C run indices = [%d,%d], want [0,2]", ops[0].FirstIdx, ops[0].LastIdx)
	}
	// The P run follows the NOPs and spans 7..8.
	if ops[3].Letter != 'P' || ops[3].FirstIdx != 7 || ops[3].LastIdx != 8 {
		t.Fatalf("P run = %+v, want letter P at [7,8]", ops[3])
	}
}

func TestCollapseMergesAcrossNOPs(t *testing.T) {
	// A NOP inside a long conv (the paper sees NOPs within layers) must not
	// split the op.
	ops := collapseOps([]byte("CCNNCC"))
	if got := OpSeqString(ops); got != "C" {
		t.Fatalf("collapsed = %s, want C", got)
	}
	if ops[0].LastIdx != 5 {
		t.Fatalf("merged C LastIdx = %d, want 5", ops[0].LastIdx)
	}
}

func TestSmoothAbsorbsSingleSampleLongOps(t *testing.T) {
	// A 1-sample M run splitting a conv is a misclassification.
	ops := collapseOps([]byte("CCCMCCC"))
	smoothed := smoothOps(ops)
	if got := OpSeqString(smoothed); got != "C" {
		t.Fatalf("smoothed = %s, want C", got)
	}
	// A multi-sample M run is legitimate and must survive.
	ops = collapseOps([]byte("CCCMMCC"))
	smoothed = smoothOps(ops)
	if got := OpSeqString(smoothed); got != "CMC" {
		t.Fatalf("smoothed = %s, want CMC", got)
	}
}

func TestDeriveLayersCNN(t *testing.T) {
	// Forward: conv+B+R, pool, fc+B+S; backward mirror starts with S.
	ops := collapseOps([]byte("CBRPMBSSBMMPRBC"))
	layers := deriveLayers(ops)
	if len(layers) != 3 {
		t.Fatalf("derived %d layers, want 3: %+v", len(layers), layers)
	}
	if layers[0].Kind != dnn.LayerConv || layers[0].Act != dnn.ActReLU {
		t.Fatalf("layer 0 = %+v, want conv+ReLU", layers[0])
	}
	if layers[1].Kind != dnn.LayerMaxPool {
		t.Fatalf("layer 1 = %+v, want pool", layers[1])
	}
	if layers[2].Kind != dnn.LayerFC || layers[2].Act != dnn.ActSigmoid {
		t.Fatalf("layer 2 = %+v, want fc+Sigmoid", layers[2])
	}
}

func TestDeriveLayersMLPStopsAtMirror(t *testing.T) {
	// M B R, M B T | T B M M B R ... the duplicate T marks the mirror.
	ops := collapseOps([]byte("MBRMBTTBMMBR"))
	layers := deriveLayers(ops)
	if len(layers) != 2 {
		t.Fatalf("derived %d layers, want 2: %+v", len(layers), layers)
	}
	if layers[0].Act != dnn.ActReLU || layers[1].Act != dnn.ActTanh {
		t.Fatalf("activations = %v, %v; want ReLU, Tanh", layers[0].Act, layers[1].Act)
	}
}

func TestDeriveLayersSkipsBoundedNoise(t *testing.T) {
	// A stray activation letter after a pool is skipped as noise (within
	// budget) and parsing resumes at the following MatMul.
	ops := collapseOps([]byte("CBRPTMBS"))
	layers := deriveLayers(ops)
	if len(layers) != 3 {
		t.Fatalf("derived %d layers, want 3 (conv, pool, fc): %+v", len(layers), layers)
	}
	if layers[2].Kind != dnn.LayerFC || layers[2].Act != dnn.ActSigmoid {
		t.Fatalf("layer 2 = %+v, want fc+Sigmoid", layers[2])
	}
	// Beyond the noise budget the parse ends.
	got := deriveLayers(collapseOps([]byte("CBRTSTSMBS")))
	if len(got) != 1 {
		t.Fatalf("noise-flood parse produced %d layers, want 1", len(got))
	}
	// Pool cannot open a model.
	if got := deriveLayers(collapseOps([]byte("PCBR"))); len(got) != 0 {
		t.Fatalf("pool-first parse produced %d layers, want 0", len(got))
	}
}

func TestDeriveLayersStopsAtBareBiasAndOptimizer(t *testing.T) {
	// A 'B' not following conv/MatMul is the back-propagation boundary.
	layers := deriveLayers(collapseOps([]byte("MBRMBTBMMBR")))
	if len(layers) != 2 {
		t.Fatalf("derived %d layers, want 2 (stop at backward B): %+v", len(layers), layers)
	}
	// 'O' ends the forward structure.
	layers = deriveLayers(collapseOps([]byte("CBROOO")))
	if len(layers) != 1 {
		t.Fatalf("derived %d layers, want 1 (stop at O)", len(layers))
	}
}

func TestApplySyntaxCorrections(t *testing.T) {
	layers := []RecoveredLayer{
		{Kind: dnn.LayerConv, Act: dnn.ActReLU, Stride: 1},
		{Kind: dnn.LayerConv, Act: dnn.ActNone}, // missing act + stride
		{Kind: dnn.LayerMaxPool},
		{Kind: dnn.LayerFC, Act: dnn.ActReLU},
	}
	fixed := applySyntaxCorrections(layers)
	if fixed[1].Act != dnn.ActReLU {
		t.Fatalf("missing activation not filled with majority: %v", fixed[1].Act)
	}
	if fixed[1].Stride != 1 {
		t.Fatalf("missing stride not defaulted: %d", fixed[1].Stride)
	}
	if fixed[2].Act != dnn.ActNone {
		t.Fatal("pool layer was given an activation")
	}
}

// A tied activation vote must resolve the same way on every run (ties used
// to fall to Go's randomized map iteration order, which made end-to-end
// extraction nondeterministic run-to-run).
func TestApplySyntaxCorrectionsTieDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		layers := []RecoveredLayer{
			{Kind: dnn.LayerFC, Act: dnn.ActTanh},
			{Kind: dnn.LayerFC, Act: dnn.ActSigmoid},
			{Kind: dnn.LayerFC, Act: dnn.ActNone},
		}
		fixed := applySyntaxCorrections(layers)
		if fixed[2].Act != dnn.ActTanh {
			t.Fatalf("run %d: tie resolved to %v, want smallest code %v",
				i, fixed[2].Act, dnn.ActTanh)
		}
	}
}

func TestLayerAccuracyMetric(t *testing.T) {
	truth := dnn.Model{
		Name: "m", Input: dnn.Shape{H: 32, W: 32, C: 3}, Batch: 4,
		Layers: []dnn.Layer{
			dnn.Conv(3, 16, 1, dnn.ActReLU),
			dnn.MaxPool(),
			dnn.FC(64, dnn.ActSigmoid),
		},
		Optimizer: dnn.OptimizerGD,
	}
	perfect := []RecoveredLayer{
		{Kind: dnn.LayerConv, FilterSize: 3, NumFilters: 16, Stride: 1, Act: dnn.ActReLU},
		{Kind: dnn.LayerMaxPool},
		{Kind: dnn.LayerFC, Neurons: 64, Act: dnn.ActSigmoid},
	}
	layerAcc, hpAcc := LayerAccuracy(perfect, truth)
	if layerAcc != 1 || hpAcc != 1 {
		t.Fatalf("perfect recovery scored %v/%v, want 1/1", layerAcc, hpAcc)
	}

	flawed := []RecoveredLayer{
		{Kind: dnn.LayerConv, FilterSize: 5, NumFilters: 16, Stride: 1, Act: dnn.ActReLU},
		{Kind: dnn.LayerFC, Neurons: 64, Act: dnn.ActSigmoid}, // wrong kind at pos 1
	}
	layerAcc, hpAcc = LayerAccuracy(flawed, truth)
	if layerAcc != 1.0/3 {
		t.Fatalf("layerAcc = %v, want 1/3", layerAcc)
	}
	if hpAcc != 0.75 { // conv matched: 3 of 4 HPs right
		t.Fatalf("hpAcc = %v, want 0.75", hpAcc)
	}
}

func TestClassAccuracy(t *testing.T) {
	pred := []int{0, 1, 1, 2}
	truth := []int{0, 1, 2, 2}
	perClass, overall := ClassAccuracy(pred, truth, nil)
	if overall != 0.75 {
		t.Fatalf("overall = %v, want 0.75", overall)
	}
	if perClass[2] != 0.5 {
		t.Fatalf("class 2 acc = %v, want 0.5", perClass[2])
	}
	_, masked := ClassAccuracy(pred, truth, []bool{true, true, false, false})
	if masked != 1 {
		t.Fatalf("masked overall = %v, want 1", masked)
	}
}

func TestLetterAccuracy(t *testing.T) {
	perLetter, overall := LetterAccuracy([]byte("CCBR"), []byte("CCBB"))
	if overall != 0.75 {
		t.Fatalf("overall = %v, want 0.75", overall)
	}
	if perLetter['B'] != 0.5 {
		t.Fatalf("B accuracy = %v, want 0.5", perLetter['B'])
	}
	if perLetter['C'] != 1 {
		t.Fatalf("C accuracy = %v, want 1", perLetter['C'])
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := FastConfig().Validate(); err != nil {
		t.Fatalf("fast config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.THGap = 0
	if bad.Validate() == nil {
		t.Fatal("THGap=0 accepted")
	}
	bad = DefaultConfig()
	bad.RMax = 0.1
	if bad.Validate() == nil {
		t.Fatal("RMax < RMin accepted")
	}
}

func TestOtherOpLetterRoundTrip(t *testing.T) {
	for i := 0; i < NumOtherOps; i++ {
		l := OtherOpLetter(i)
		if otherOpClass(l) != i {
			t.Fatalf("letter %c does not round trip class %d", l, i)
		}
	}
	if OtherOpLetter(-1) != '?' || OtherOpLetter(99) != '?' {
		t.Fatal("out-of-range letter lookup should return ?")
	}
	if otherOpClass('C') != -1 {
		t.Fatal("conv letter should not be an OtherOp")
	}
}

// Mlong decides NOP, Conv and MatMul; Mop names every other op, even where
// it predicted a class of its own at a Mlong-decided sample.
func TestMergeLetters(t *testing.T) {
	long := []int{int(dnn.LongNOP), int(dnn.LongConv), int(dnn.LongMatMul), int(dnn.LongOther), int(dnn.LongOther), int(dnn.LongOther)}
	op := []int{0, 1, 2, 0, 3, 99}
	if got := string(MergeLetters(long, op)); got != "NCMBS?" {
		t.Fatalf("MergeLetters = %q, want %q", got, "NCMBS?")
	}
}

func TestApplyResNetHeuristic(t *testing.T) {
	layers := []RecoveredLayer{
		{Kind: dnn.LayerConv, NumFilters: 16},
		{Kind: dnn.LayerConv, NumFilters: 16}, // closes block 1
		{Kind: dnn.LayerConv, NumFilters: 16},
		{Kind: dnn.LayerConv, NumFilters: 16}, // closes block 2
		{Kind: dnn.LayerMaxPool},
		{Kind: dnn.LayerConv, NumFilters: 32},
		{Kind: dnn.LayerConv, NumFilters: 32}, // closes block 3
		{Kind: dnn.LayerFC, Neurons: 10},
	}
	out := ApplyResNetHeuristic(layers)
	wantShortcut := map[int]bool{1: true, 3: true, 6: true}
	for i, l := range out {
		if wantShortcut[i] && l.ShortcutFrom != 2 {
			t.Errorf("layer %d: ShortcutFrom = %d, want 2", i, l.ShortcutFrom)
		}
		if !wantShortcut[i] && l.ShortcutFrom != 0 {
			t.Errorf("layer %d: spurious shortcut %d", i, l.ShortcutFrom)
		}
	}
	// Width changes break runs: no shortcut across the 16->32 transition.
	if out[5].ShortcutFrom != 0 {
		t.Error("shortcut placed across a width change")
	}
	// The input must not be mutated.
	if layers[1].ShortcutFrom != 0 {
		t.Error("heuristic mutated its input")
	}
}

func TestShortcutsInvisibleInOpSignature(t *testing.T) {
	// A residual model's ground-truth letters contain extra 'B's where the
	// adds occur — the ambiguity of §IV-C: the same letter sequence could
	// come from a plain model with more BiasAdds.
	withShortcut := dnn.Model{
		Name: "sc", Input: dnn.Shape{H: 8, W: 8, C: 4}, Batch: 2,
		Layers: []dnn.Layer{
			dnn.Conv(3, 4, 1, dnn.ActReLU),
			func() dnn.Layer {
				l := dnn.Conv(3, 4, 1, dnn.ActReLU)
				l.ShortcutFrom = 2
				return l
			}(),
		},
		Optimizer: dnn.OptimizerGD,
	}
	ops, err := dnn.Compile(withShortcut)
	if err != nil {
		t.Fatal(err)
	}
	sig := dnn.OpSignature(ops)
	// Forward: C B R | C B R B(shortcut add) ...
	if sig[:8] != "CBRCBRB"+"B" && sig[:7] != "CBRCBRB" {
		t.Fatalf("signature %q does not show the shortcut as a bare B", sig)
	}
}
