package dnn

import (
	"strings"
	"testing"

	"leakydnn/internal/gpu"
)

func tinyCNN() Model {
	return Model{
		Name:  "t",
		Input: Shape{H: 32, W: 32, C: 3},
		Batch: 8,
		Layers: []Layer{
			Conv(3, 16, 1, ActReLU),
			MaxPool(),
			FC(32, ActSigmoid),
		},
		Optimizer: OptimizerAdam,
	}
}

func TestValidateShapes(t *testing.T) {
	shapes, err := tinyCNN().Validate()
	if err != nil {
		t.Fatal(err)
	}
	want := []Shape{
		{H: 32, W: 32, C: 3},
		{H: 32, W: 32, C: 16},
		{H: 16, W: 16, C: 16},
		{H: 1, W: 1, C: 32},
	}
	if len(shapes) != len(want) {
		t.Fatalf("got %d shapes, want %d", len(shapes), len(want))
	}
	for i, s := range want {
		if shapes[i] != s {
			t.Fatalf("shape[%d] = %v, want %v", i, shapes[i], s)
		}
	}
}

func TestValidateStride(t *testing.T) {
	m := tinyCNN()
	m.Layers[0].Stride = 2
	shapes, err := m.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if shapes[1] != (Shape{H: 16, W: 16, C: 16}) {
		t.Fatalf("stride-2 output = %v, want 16x16x16", shapes[1])
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Model)
	}{
		{"zero batch", func(m *Model) { m.Batch = 0 }},
		{"no layers", func(m *Model) { m.Layers = nil }},
		{"bad optimizer", func(m *Model) { m.Optimizer = 0 }},
		{"zero filters", func(m *Model) { m.Layers[0].NumFilters = 0 }},
		{"zero stride", func(m *Model) { m.Layers[0].Stride = 0 }},
		{"conv after fc", func(m *Model) {
			m.Layers = []Layer{FC(8, ActReLU), Conv(3, 4, 1, ActReLU)}
		}},
		{"pool window too large", func(m *Model) {
			m.Input = Shape{H: 1, W: 1, C: 3}
			m.Layers = []Layer{MaxPool()}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := tinyCNN()
			tt.mutate(&m)
			if _, err := m.Validate(); err == nil {
				t.Fatal("invalid model accepted")
			}
		})
	}
}

func TestLayerParams(t *testing.T) {
	conv := Conv(3, 16, 1, ActReLU)
	if got := conv.Params(Shape{H: 32, W: 32, C: 3}); got != 3*3*3*16 {
		t.Fatalf("conv params = %d, want %d", got, 3*3*3*16)
	}
	if got := conv.Biases(); got != 16 {
		t.Fatalf("conv biases = %d, want 16", got)
	}
	fc := FC(32, ActNone)
	if got := fc.Params(Shape{H: 4, W: 4, C: 8}); got != 4*4*8*32 {
		t.Fatalf("fc params = %d, want %d", got, 4*4*8*32)
	}
	if got := MaxPool().Params(Shape{H: 4, W: 4, C: 8}); got != 0 {
		t.Fatalf("pool params = %d, want 0", got)
	}
}

func TestCompileOpStructure(t *testing.T) {
	ops, err := Compile(tinyCNN())
	if err != nil {
		t.Fatal(err)
	}
	// Forward: Conv2D, BiasAdd, ReLU, MaxPool, MatMul, BiasAdd, Sigmoid.
	// Backward: SigmoidGrad, BiasAddGrad, MatMulGradW, MatMulGradIn,
	//           MaxPoolGrad, ReLUGrad, BiasAddGrad, Conv2DBackpropFilter.
	// Optimizer: 2 Adam per trainable layer (conv, fc) = 4.
	var kinds []string
	for _, o := range ops {
		kinds = append(kinds, o.Kind.String())
	}
	want := []string{
		"Conv2D", "BiasAdd", "ReLU", "MaxPool", "MatMul", "BiasAdd", "Sigmoid",
		"SigmoidGrad", "BiasAddGrad", "MatMulGradWeights", "MatMulGradInput",
		"MaxPoolGrad", "ReLUGrad", "BiasAddGrad", "Conv2DBackpropFilter",
		"ApplyAdam", "ApplyAdam", "ApplyAdam", "ApplyAdam",
	}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("op sequence =\n%v\nwant\n%v", kinds, want)
	}
	for i, o := range ops {
		if o.Seq != i {
			t.Fatalf("op %d Seq = %d", i, o.Seq)
		}
	}
}

func TestCompileFirstLayerSkipsInputGradient(t *testing.T) {
	ops, err := Compile(tinyCNN())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if o.Kind == OpConv2DBackpropInput && o.Layer == 0 {
			t.Fatal("layer 0 emitted an input-gradient op")
		}
	}
}

func TestOpSignatureLetters(t *testing.T) {
	ops, err := Compile(tinyCNN())
	if err != nil {
		t.Fatal(err)
	}
	sig := OpSignature(ops)
	want := "CBRPMBSSBMMPRBCOOOO"
	if sig != want {
		t.Fatalf("signature = %s, want %s", sig, want)
	}
}

func TestLongClassMapping(t *testing.T) {
	tests := []struct {
		kind OpKind
		want LongClass
	}{
		{OpConv2D, LongConv},
		{OpConv2DBackpropFilter, LongConv},
		{OpConv2DBackpropInput, LongConv},
		{OpMatMul, LongMatMul},
		{OpMatMulGradWeights, LongMatMul},
		{OpBiasAdd, LongOther},
		{OpReLUGrad, LongOther},
		{OpApplyAdam, LongOther},
	}
	for _, tt := range tests {
		if got := tt.kind.LongClass(); got != tt.want {
			t.Errorf("%s.LongClass() = %v, want %v", tt.kind, got, tt.want)
		}
	}
}

func TestConvCostScalesWithHyperParameters(t *testing.T) {
	base := tinyCNN()
	opsOf := func(m Model) []Op {
		ops, err := Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	convFLOPs := func(ops []Op) float64 {
		for _, o := range ops {
			if o.Kind == OpConv2D {
				return o.FLOPs
			}
		}
		t.Fatal("no Conv2D found")
		return 0
	}

	f0 := convFLOPs(opsOf(base))

	doubled := tinyCNN()
	doubled.Layers[0].NumFilters *= 2
	if f := convFLOPs(opsOf(doubled)); f < f0*1.9 || f > f0*2.1 {
		t.Fatalf("doubling filters: FLOPs %v -> %v, want ~2x", f0, f)
	}

	bigger := tinyCNN()
	bigger.Layers[0].FilterSize = 5 // (5/3)^2 ≈ 2.78x
	if f := convFLOPs(opsOf(bigger)); f < f0*2.5 || f > f0*3.1 {
		t.Fatalf("5x5 filters: FLOPs %v -> %v, want ~2.78x", f0, f)
	}

	strided := tinyCNN()
	strided.Layers[0].Stride = 2 // quarter the output positions
	if f := convFLOPs(opsOf(strided)); f < f0*0.2 || f > f0*0.3 {
		t.Fatalf("stride 2: FLOPs %v -> %v, want ~0.25x", f0, f)
	}
}

func TestMatMulCostScalesWithNeurons(t *testing.T) {
	m := Model{
		Name: "m", Input: Shape{H: 8, W: 8, C: 2}, Batch: 4,
		Layers:    []Layer{FC(64, ActReLU)},
		Optimizer: OptimizerGD,
	}
	ops, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	f0 := ops[0].FLOPs

	m.Layers[0].Neurons = 128
	ops2, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if f := ops2[0].FLOPs; f < f0*1.9 || f > f0*2.1 {
		t.Fatalf("doubling neurons: FLOPs %v -> %v, want ~2x", f0, f)
	}
}

func TestOptimizerCostsOrdered(t *testing.T) {
	// Adam must move more bytes than Adagrad than GD for the same variable —
	// this is the signal Mhp uses to recover the optimizer.
	cost := func(opt OptimizerKind) float64 {
		m := tinyCNN()
		m.Optimizer = opt
		ops, err := Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, o := range ops {
			if o.Kind.IsOptimizer() {
				total += o.ReadBytes + o.WriteBytes
			}
		}
		return total
	}
	gd, ada, adam := cost(OptimizerGD), cost(OptimizerAdagrad), cost(OptimizerAdam)
	if !(gd < ada && ada < adam) {
		t.Fatalf("optimizer traffic not ordered: GD=%v Adagrad=%v Adam=%v", gd, ada, adam)
	}
}

func TestActivationDurationsDiffer(t *testing.T) {
	cfg := gpu.DefaultDeviceConfig()
	durOf := func(act Activation) gpu.Nanos {
		m := Model{
			Name: "m", Input: Shape{H: 64, W: 64, C: 16}, Batch: 32,
			Layers:    []Layer{Conv(3, 16, 1, act)},
			Optimizer: OptimizerGD,
		}
		ops, err := Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			switch ops[i].Kind {
			case OpReLU, OpTanh, OpSigmoid:
				return ops[i].Kernel(cfg).FixedDuration
			}
		}
		t.Fatal("no activation op")
		return 0
	}
	relu, tanh, sigmoid := durOf(ActReLU), durOf(ActTanh), durOf(ActSigmoid)
	if !(relu < sigmoid && sigmoid < tanh) {
		t.Fatalf("activation durations not ordered: ReLU=%v Sigmoid=%v Tanh=%v", relu, sigmoid, tanh)
	}
}

func TestKernelLoweringCarriesGroundTruth(t *testing.T) {
	cfg := gpu.DefaultDeviceConfig()
	ops, err := Compile(tinyCNN())
	if err != nil {
		t.Fatal(err)
	}
	k := ops[0].Kernel(cfg)
	if k.Name != "Conv2D" {
		t.Fatalf("kernel name = %q, want Conv2D", k.Name)
	}
	tag, ok := k.Tag.(*Op)
	if !ok || tag.Kind != OpConv2D {
		t.Fatalf("kernel tag = %#v, want *Op{Conv2D}", k.Tag)
	}
	if k.FixedDuration <= 0 {
		t.Fatal("kernel has no duration")
	}
	if k.Occupancy(cfg) != 1 {
		t.Fatalf("victim kernel occupancy = %v, want 1", k.Occupancy(cfg))
	}
}

func TestIterationDurationPositiveAndAdditive(t *testing.T) {
	cfg := gpu.DefaultDeviceConfig()
	ops, err := Compile(tinyCNN())
	if err != nil {
		t.Fatal(err)
	}
	total := IterationDuration(ops, cfg)
	if total <= 0 {
		t.Fatal("iteration duration not positive")
	}
	var sum gpu.Nanos
	for i := range ops {
		sum += ops[i].Kernel(cfg).FixedDuration
	}
	if total != sum {
		t.Fatalf("IterationDuration = %v, want sum %v", total, sum)
	}
}

func TestOpKindStringsAndPredicates(t *testing.T) {
	if OpConv2D.String() != "Conv2D" || OpApplyAdam.String() != "ApplyAdam" {
		t.Fatalf("op names wrong: %s %s", OpConv2D, OpApplyAdam)
	}
	if !OpReLUGrad.IsBackward() || OpReLU.IsBackward() {
		t.Fatal("IsBackward wrong")
	}
	if !OpApplyGD.IsOptimizer() || OpMatMul.IsOptimizer() {
		t.Fatal("IsOptimizer wrong")
	}
	if OpMaxPoolGrad.Letter() != 'P' || OpTanhGrad.Letter() != 'T' {
		t.Fatal("Letter mapping wrong for grads")
	}
}

// IsBackward reports whether the op belongs to the back-propagation pass.
func (k OpKind) IsBackward() bool {
	switch k {
	case OpConv2DBackpropFilter, OpConv2DBackpropInput, OpMatMulGradWeights,
		OpMatMulGradInput, OpBiasAddGrad, OpReLUGrad, OpTanhGrad,
		OpSigmoidGrad, OpMaxPoolGrad, OpResidualAddGrad:
		return true
	}
	return false
}
