package defense

import (
	"math/rand"
	"testing"

	"leakydnn/internal/cupti"
	"leakydnn/internal/gpu"
)

func sample(values ...float64) cupti.Sample {
	var s cupti.Sample
	copy(s.Values[:], values)
	return s
}

func TestQuantizeSamples(t *testing.T) {
	in := []cupti.Sample{sample(127, 99.9, 0, 1500)}
	out, err := QuantizeSamples(in, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 0, 0, 1500}
	for i, v := range want {
		if out[0].Values[i] != v {
			t.Fatalf("quantized[%d] = %v, want %v", i, out[0].Values[i], v)
		}
	}
	// The input must not be mutated.
	if in[0].Values[0] != 127 {
		t.Fatal("QuantizeSamples mutated its input")
	}
	if _, err := QuantizeSamples(in, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestNoiseSamples(t *testing.T) {
	in := []cupti.Sample{sample(1000, 2000)}
	out, err := NoiseSamples(in, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Values[0] == 1000 && out[0].Values[1] == 2000 {
		t.Fatal("noise changed nothing")
	}
	for _, v := range out[0].Values {
		if v < 0 {
			t.Fatalf("noise produced negative counter %v", v)
		}
	}
	// Deterministic under seed.
	again, _ := NoiseSamples(in, 0.2, 1)
	if again[0].Values[0] != out[0].Values[0] {
		t.Fatal("noise not deterministic under seed")
	}
	if _, err := NoiseSamples(in, -1, 1); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestHardenSchedulerValidation(t *testing.T) {
	cfg := gpu.DefaultDeviceConfig()
	if _, err := HardenScheduler(cfg, 0, 4, 1); err == nil {
		t.Fatal("zero context accepted")
	}
	if _, err := HardenScheduler(cfg, 1, 0.5, 1); err == nil {
		t.Fatal("boost < 1 accepted")
	}
	if _, err := HardenScheduler(cfg, 1, 4, 0); err == nil {
		t.Fatal("zero channel cap accepted")
	}
	hard, err := HardenScheduler(cfg, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hard.ProtectedCtx != 1 || hard.ProtectedBoost != 4 || hard.MaxChannelsPerCtx != 1 {
		t.Fatalf("hardened config wrong: %+v", hard)
	}
}

// The channel cap must reject the slow-down attack's extra channels while
// the protected victim registers freely.
func TestHardenedEngineCapsSpyChannels(t *testing.T) {
	cfg, err := HardenScheduler(gpu.DefaultDeviceConfig(), 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := gpu.NewEngine(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	k := gpu.KernelProfile{Name: "k", FixedDuration: gpu.Millisecond}
	if !eng.AddChannel(1, &gpu.RepeatSource{Kernel: k, Limit: 1}) {
		t.Fatal("protected context channel rejected")
	}
	if !eng.AddChannel(1, &gpu.RepeatSource{Kernel: k, Limit: 1}) {
		t.Fatal("protected context second channel rejected")
	}
	if !eng.AddChannel(2, &gpu.RepeatSource{Kernel: k, Limit: 1}) {
		t.Fatal("spy's first channel rejected")
	}
	if eng.AddChannel(2, &gpu.RepeatSource{Kernel: k, Limit: 1}) {
		t.Fatal("spy's second channel accepted despite cap")
	}
}

// The protected context's boosted slices reduce the spy's preemption
// granularity: the victim finishes in fewer, longer slices.
func TestProtectedBoostCoarsensPreemption(t *testing.T) {
	run := func(boost float64) int {
		cfg := gpu.DefaultDeviceConfig()
		cfg.JitterFrac = 0
		if boost > 1 {
			var err error
			cfg, err = HardenScheduler(cfg, 1, boost, 8)
			if err != nil {
				t.Fatal(err)
			}
		}
		eng, err := gpu.NewEngine(cfg, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		victimSlices := 0
		eng.OnSlice = func(r *gpu.SliceRecord) {
			if r.Ctx == 1 {
				victimSlices++
			}
		}
		long := gpu.KernelProfile{
			Name: "victim", FixedDuration: 20 * gpu.Millisecond,
			Blocks: 64, ThreadsPerBlock: 256,
		}
		spyK := gpu.KernelProfile{
			Name: "spy", FixedDuration: 5 * gpu.Millisecond,
			Blocks: 64, ThreadsPerBlock: 256,
		}
		q := &gpu.QueueSource{}
		q.Enqueue(long, 0)
		eng.AddChannel(1, q)
		eng.AddChannel(2, &gpu.RepeatSource{Kernel: spyK})
		eng.Run(2 * gpu.Second)
		return victimSlices
	}
	plain := run(1)
	protected := run(4)
	if protected >= plain {
		t.Fatalf("protected run used %d slices, plain %d; want fewer under boost", protected, plain)
	}
}
