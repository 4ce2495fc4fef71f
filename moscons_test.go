package leakydnn

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"leakydnn/internal/attack"
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

// TestExtractScratchReuse pins the extraction scratch's ownership rule on
// the trained tiny set. ExtractTrace over X, Y, X — the second X running on
// matrices Y's extraction left behind — and then over every tested trace
// from 4 goroutines at once must return the first pass's fingerprints;
// under -race the concurrent pass also checks that no scratch serves two
// live extractions. The first pass's recoveries, kept throughout, must
// still deep-equal fresh ones at the end: nothing in a Recovery points into
// scratch a later extraction overwrote.
func TestExtractScratchReuse(t *testing.T) {
	wb := tinyWorkbench(t)
	traces := wb.Tested
	if len(traces) < 2 {
		t.Fatalf("need two tested traces, have %d", len(traces))
	}
	extract := func(i int) *attack.Recovery {
		rec, err := wb.Models.ExtractTrace(traces[i])
		if err != nil {
			t.Error(err)
		}
		return rec
	}
	first := make([]*attack.Recovery, len(traces))
	want := make([]string, len(traces))
	for i := range traces {
		first[i] = extract(i)
		want[i] = first[i].Fingerprint()
	}
	for _, i := range []int{0, 1, 0} {
		if got := extract(i).Fingerprint(); got != want[i] {
			t.Fatalf("trace %d: fingerprint %s after reuse, first pass %s", i, got, want[i])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (w + r) % len(traces)
				if rec := extract(i); rec != nil && rec.Fingerprint() != want[i] {
					t.Errorf("trace %d: concurrent fingerprint %s, first pass %s", i, rec.Fingerprint(), want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	for i, rec := range first {
		if !reflect.DeepEqual(rec, extract(i)) {
			t.Fatalf("trace %d: the first pass's Recovery changed under later extractions", i)
		}
	}
}
