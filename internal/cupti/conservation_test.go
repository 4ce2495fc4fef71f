package cupti

import (
	"math"
	"math/rand"
	"testing"

	"leakydnn/internal/gpu"
)

// Property: the window sampler conserves counters — the sum over all
// emitted windows equals the sum over all observed slices, no matter how
// slices straddle window boundaries.
func TestWindowSamplerConservesCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		period := gpu.Nanos(rng.Intn(900) + 100)
		w, err := NewWindowSampler(1, period, nil)
		if err != nil {
			t.Fatal(err)
		}
		var now gpu.Nanos
		var inputTotal float64
		for i := 0; i < 60; i++ {
			// Random gaps and random slice lengths, some spanning several
			// windows.
			now += gpu.Nanos(rng.Intn(700))
			length := gpu.Nanos(rng.Intn(2500) + 1)
			amount := rng.Float64() * 1000
			rec := gpu.SliceRecord{
				Ctx:   1,
				Start: now,
				End:   now + length,
				Counters: gpu.CounterDelta{
					FBReadSectors: [2]float64{amount, amount / 3},
					TexQueries:    [2]float64{amount / 7, 0},
				},
			}
			inputTotal += amount + amount/3 + amount/7
			w.Observe(&rec)
			now += length
		}
		samples := w.Finish(now + 4*period)
		var outputTotal float64
		for _, s := range samples {
			outputTotal += s.Values[FBSubp0ReadSectors] + s.Values[FBSubp1ReadSectors] +
				s.Values[Tex0CacheSectorQueries] + s.Values[Tex1CacheSectorQueries]
		}
		if math.Abs(outputTotal-inputTotal) > 1e-6*(1+inputTotal) {
			t.Fatalf("trial %d: windows sum to %v, slices sum to %v", trial, outputTotal, inputTotal)
		}
	}
}

// Property: window boundaries tile time exactly — consecutive samples abut
// with no gaps or overlaps, each exactly one period long.
func TestWindowSamplerTiling(t *testing.T) {
	w, err := NewWindowSampler(1, 250, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	var now gpu.Nanos = 37
	for i := 0; i < 40; i++ {
		length := gpu.Nanos(rng.Intn(600) + 1)
		w.Observe(&gpu.SliceRecord{Ctx: 1, Start: now, End: now + length})
		now += length + gpu.Nanos(rng.Intn(100))
	}
	samples := w.Finish(now)
	if len(samples) == 0 {
		t.Fatal("no samples emitted")
	}
	for i, s := range samples {
		if s.End-s.Start != 250 {
			t.Fatalf("sample %d has width %d, want 250", i, s.End-s.Start)
		}
		if i > 0 && s.Start != samples[i-1].End {
			t.Fatalf("sample %d starts at %d, previous ended at %d", i, s.Start, samples[i-1].End)
		}
	}
}

// Property: the kernel sampler conserves counters across probe completions.
func TestKernelSamplerConservesCounters(t *testing.T) {
	k := NewKernelSampler(1, "probe", nil)
	rng := rand.New(rand.NewSource(23))
	var total float64
	var now gpu.Nanos
	for i := 0; i < 50; i++ {
		amount := rng.Float64() * 100
		total += amount
		k.Observe(&gpu.SliceRecord{
			Ctx: 1, Start: now, End: now + 10,
			Counters: gpu.CounterDelta{L2WriteMisses: [2]float64{amount, 0}},
		})
		now += 10
		if rng.Intn(3) == 0 {
			k.ObserveKernelEnd(gpu.KernelSpan{Ctx: 1,
				Kernel: gpu.KernelProfile{Name: "probe"}, Start: 0, End: now})
		}
	}
	// Flush the remainder with one final probe completion.
	k.ObserveKernelEnd(gpu.KernelSpan{Ctx: 1,
		Kernel: gpu.KernelProfile{Name: "probe"}, Start: 0, End: now})

	var out float64
	for _, s := range k.Samples() {
		out += s.Values[L2Subp0WriteSectorMisses]
	}
	if math.Abs(out-total) > 1e-9 {
		t.Fatalf("samples sum to %v, slices sum to %v", out, total)
	}
}
