package leakydnn

import (
	"errors"
	"testing"

	"leakydnn/internal/cupti"
)

// The facade must expose a coherent, usable public surface: model
// construction, compilation, trace collection, the driver gate and the
// experiment scale, without reaching into internal packages.
func TestFacadeModelLifecycle(t *testing.T) {
	model := Model{
		Name:  "facade-cnn",
		Batch: 8,
		Layers: []Layer{
			Conv(3, 16, 1, ActReLU),
			MaxPool(),
			FC(32, ActSigmoid),
		},
		Optimizer: OptimizerAdam,
	}
	model.Input.H, model.Input.W, model.Input.C = 32, 32, 3
	ops, err := Compile(model)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no ops compiled")
	}

	sc := TinyScale()
	tr, err := CollectTrace(model, sc.RunConfig(5, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) == 0 {
		t.Fatal("no samples collected through the facade")
	}

	quantized, err := QuantizeCounters(tr.Samples, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(quantized) != len(tr.Samples) {
		t.Fatal("quantization changed sample count")
	}
}

func TestFacadeDriverGate(t *testing.T) {
	drv, err := NewDriver(PatchedDriverVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := drv.CheckAccess(); !errors.Is(err, cupti.ErrAccessRestricted) {
		t.Fatalf("patched driver access = %v, want restricted", err)
	}
	if err := drv.Downgrade(UnpatchedDriverVersion); err != nil {
		t.Fatal(err)
	}
	if err := drv.CheckAccess(); err != nil {
		t.Fatalf("downgraded driver still restricted: %v", err)
	}
}

func TestFacadeScalesAndZoo(t *testing.T) {
	sc := TinyScale()
	if len(sc.Profiled) == 0 || len(sc.Tested) == 0 {
		t.Fatalf("scale %s lacks zoo models", sc.Name)
	}
}

func TestFacadeSyntheticDataset(t *testing.T) {
	data, err := SyntheticDataset(32, 16, 3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := data.Example(31); err != nil {
		t.Fatal(err)
	}
	if _, err := data.Example(32); err == nil {
		t.Fatal("example 32 of a 32-image dataset accepted")
	}
	batch, err := data.Batch(0, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Images) != 8 || batch.Shape.H != 32 {
		t.Fatalf("batch %d images shape %v", len(batch.Images), batch.Shape)
	}
}
