package spy

import (
	"math/rand"
	"strings"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/cupti"
	"leakydnn/internal/gpu"
)

func TestProbeKernelSpecs(t *testing.T) {
	for _, kind := range Kinds() {
		k, err := ProbeKernel(kind, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if k.FixedDuration <= 0 {
			t.Errorf("%v has no duration", kind)
		}
		if k.Blocks != 4 || k.ThreadsPerBlock != 32 {
			t.Errorf("%v geometry = %dx%d, want 4x32 (§III-C)", kind, k.Blocks, k.ThreadsPerBlock)
		}
		if !strings.HasPrefix(k.Name, "spy.") {
			t.Errorf("%v name = %q, want spy. prefix", kind, k.Name)
		}
	}
}

func TestConv200IsTheRichestProbe(t *testing.T) {
	conv200, _ := ProbeKernel(Conv200, 1)
	for _, kind := range []Kind{VectorAdd, VectorMul, MatMul, Conv100} {
		k, _ := ProbeKernel(kind, 1)
		if k.WorkingSetBytes >= conv200.WorkingSetBytes {
			t.Errorf("%v working set %v >= Conv200's %v", kind, k.WorkingSetBytes, conv200.WorkingSetBytes)
		}
		if k.WriteBytes >= conv200.WriteBytes {
			t.Errorf("%v write traffic %v >= Conv200's %v", kind, k.WriteBytes, conv200.WriteBytes)
		}
	}
	// Conv200 must still be short enough for a high sampling rate: the paper
	// reports 2.5 ms.
	if conv200.FixedDuration != 2500*gpu.Microsecond {
		t.Fatalf("Conv200 duration = %v, want 2.5ms", conv200.FixedDuration)
	}
}

func TestProbeKernelValidation(t *testing.T) {
	if _, err := ProbeKernel(Kind(99), 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ProbeKernel(Conv200, 0); err == nil {
		t.Fatal("zero timeScale accepted")
	}
	if _, err := ProbeKernel(Conv200, -1); err == nil {
		t.Fatal("negative timeScale accepted")
	}
}

func TestProbeKernelTimeScale(t *testing.T) {
	full, _ := ProbeKernel(Conv200, 1)
	small, _ := ProbeKernel(Conv200, 0.01)
	if small.FixedDuration >= full.FixedDuration {
		t.Fatal("timeScale did not shrink duration")
	}
	ratio := float64(full.FixedDuration) / float64(small.FixedDuration)
	if ratio < 90 || ratio > 110 {
		t.Fatalf("duration scale ratio = %v, want ~100", ratio)
	}
	// The working set scales with time so warm-up/eviction ratios are
	// invariant under timeScale.
	if small.WorkingSetBytes >= full.WorkingSetBytes {
		t.Fatal("timeScale did not scale the working set")
	}
	wsRatio := full.WorkingSetBytes / small.WorkingSetBytes
	if wsRatio < 90 || wsRatio > 110 {
		t.Fatalf("working-set scale ratio = %v, want ~100", wsRatio)
	}
}

func TestSlowdownKernelsGeometry(t *testing.T) {
	kernels := SlowdownKernels(1)
	if len(kernels) != 8 {
		t.Fatalf("got %d slow-down kernels, want 8 (4 groups x 2)", len(kernels))
	}
	for group := 0; group < 4; group++ {
		wantBlocks := 4 << group
		wantThreads := wantBlocks * 32
		for j := 0; j < 2; j++ {
			k := kernels[group*2+j]
			if k.Blocks != wantBlocks || k.ThreadsPerBlock != wantThreads {
				t.Errorf("G%d.%d geometry = %dx%d, want %dx%d",
					group, j, k.Blocks, k.ThreadsPerBlock, wantBlocks, wantThreads)
			}
		}
	}
}

func TestProgramWindowSamplingCollectsSamples(t *testing.T) {
	dev := gpu.DefaultDeviceConfig().ScaledTime(0.01)
	dev.JitterFrac, dev.NoiseFrac, dev.SubpImbalance = 0, 0, 0
	prog, err := NewProgram(Config{
		Ctx: 2, Probe: Conv200, TimeScale: 0.01,
		SamplePeriod: 30 * gpu.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := gpu.NewEngine(dev, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	eng.OnSlice = prog.ObserveSlice
	eng.OnKernelEnd = prog.ObserveKernelEnd
	if err := prog.AttachTimeSliced(eng); err != nil {
		t.Fatal(err)
	}
	eng.Run(3 * gpu.Millisecond)

	samples := prog.Samples(eng.Now())
	if len(samples) < 50 {
		t.Fatalf("collected %d samples, want >= 50", len(samples))
	}
	if prog.ProbeLaunches() == 0 {
		t.Fatal("no probe launches recorded")
	}
	// Running alone, every window should show the probe's own traffic.
	var nonZero int
	for _, s := range samples {
		if s.Values[2]+s.Values[3] > 0 { // fb read sectors
			nonZero++
		}
	}
	if nonZero < len(samples)/2 {
		t.Fatalf("only %d/%d windows carry traffic", nonZero, len(samples))
	}
}

func TestProgramKernelSampling(t *testing.T) {
	dev := gpu.DefaultDeviceConfig().ScaledTime(0.01)
	prog, err := NewProgram(Config{Ctx: 2, Probe: Conv200, TimeScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := gpu.NewEngine(dev, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	eng.OnSlice = prog.ObserveSlice
	eng.OnKernelEnd = prog.ObserveKernelEnd
	if err := prog.AttachTimeSliced(eng); err != nil {
		t.Fatal(err)
	}
	eng.Run(gpu.Millisecond)

	samples := prog.Samples(eng.Now())
	if len(samples) < 10 {
		t.Fatalf("collected %d per-kernel samples, want >= 10", len(samples))
	}
}

func TestProgramSlowdownAddsChannels(t *testing.T) {
	dev := gpu.DefaultDeviceConfig().ScaledTime(0.01)
	countChannels := func(slowdown bool) int {
		prog, err := NewProgram(Config{Ctx: 2, Probe: Conv200, TimeScale: 0.01,
			Slowdown: slowdown, SamplePeriod: 30 * gpu.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := gpu.NewEngine(dev, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		eng.OnSlice = func(r *gpu.SliceRecord) { names[r.Kernel.Name] = true }
		if err := prog.AttachTimeSliced(eng); err != nil {
			t.Fatal(err)
		}
		eng.Run(2 * gpu.Millisecond)
		return len(names)
	}
	if n := countChannels(false); n != 1 {
		t.Fatalf("without slowdown: %d distinct kernels, want 1", n)
	}
	if n := countChannels(true); n != 9 {
		t.Fatalf("with slowdown: %d distinct kernels, want 9", n)
	}
}

// The §II-D driver gate: a patched driver blocks the spy until the
// adversary downgrades it in her own VM.
func TestProgramRespectsDriverGate(t *testing.T) {
	drv, err := cupti.NewDriver(cupti.PatchedDriverVersion)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Ctx: 2, Probe: Conv200, TimeScale: 0.01,
		SamplePeriod: 50 * gpu.Microsecond, Driver: drv}
	if _, err := NewProgram(cfg); err == nil {
		t.Fatal("spy initialized CUPTI under a patched driver")
	}
	if err := drv.Downgrade(cupti.UnpatchedDriverVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProgram(cfg); err != nil {
		t.Fatalf("spy blocked after downgrade: %v", err)
	}
}

// Injected arming faults: the spy retries with backoff, loses at most the
// optional slow-down channels, and accounts for every retry and failure.
func TestProgramArmingFaults(t *testing.T) {
	dev := gpu.DefaultDeviceConfig().ScaledTime(0.01)
	attach := func(failRate float64, seed int64) (*Program, error) {
		inj, err := chaos.NewInjector(chaos.Plan{ArmFailRate: failRate, ArmMaxRetries: 1, Seed: seed}, 0)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := NewProgram(Config{Ctx: 2, Probe: Conv200, TimeScale: 0.01,
			Slowdown: true, SamplePeriod: 30 * gpu.Microsecond, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := gpu.NewEngine(dev, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		eng.OnSlice = prog.ObserveSlice
		eng.OnKernelEnd = prog.ObserveKernelEnd
		return prog, prog.AttachTimeSliced(eng)
	}

	// Without faults firing (rate 0 via nil-equivalent plan path is covered
	// elsewhere): a low rate should arm everything, possibly with retries.
	prog, err := attach(0.9, 11)
	if err == nil {
		// The probe survived its 64-retry budget; with 8 slow-down channels at
		// rate 0.9 and 1 retry each, some must have been abandoned.
		if prog.RejectedChannels() == 0 {
			t.Fatal("no slow-down channels lost at ArmFailRate=0.9, ArmMaxRetries=1")
		}
		if prog.ArmFailures() != prog.RejectedChannels() {
			t.Fatalf("ArmFailures=%d but RejectedChannels=%d (no scheduler cap configured)",
				prog.ArmFailures(), prog.RejectedChannels())
		}
		if prog.ArmRetries() == 0 {
			t.Fatal("arming at rate 0.9 recorded no retries")
		}
	}
	// Either outcome (probe armed or probe error) is legal at rate 0.9; what
	// must never happen is a panic or a silent half-armed state — covered by
	// the assertions above and by err carrying the probe-arming story.
	if err != nil && !strings.Contains(err.Error(), "probe channel arming failed") {
		t.Fatalf("unexpected attach error: %v", err)
	}
}

// The arming backoff must delay the probe's first launch: a spy that spent
// time re-arming starts sampling late, visibly shortening its sample stream.
func TestDelayedSourcePostponesFirstLaunch(t *testing.T) {
	k, _ := ProbeKernel(Conv200, 0.01)
	src := &delayedSource{inner: &gpu.RepeatSource{Kernel: k}, delay: 500 * gpu.Microsecond}
	_, notBefore, ok := src.Next(0)
	if !ok || notBefore != 500*gpu.Microsecond {
		t.Fatalf("first launch notBefore = %v, want 500µs", notBefore)
	}
	_, notBefore, ok = src.Next(gpu.Millisecond)
	if !ok || notBefore != gpu.Millisecond {
		t.Fatalf("second launch notBefore = %v, want now (1ms)", notBefore)
	}
}
