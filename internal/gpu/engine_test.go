package gpu

import (
	"math/rand"
	"testing"
)

func testConfig() DeviceConfig {
	cfg := DefaultDeviceConfig()
	cfg.JitterFrac = 0
	cfg.NoiseFrac = 0
	cfg.SubpImbalance = 0
	return cfg
}

// fullKernel returns a full-occupancy compute kernel with the given
// exclusive-device duration.
func fullKernel(name string, d Nanos, cfg DeviceConfig) KernelProfile {
	return KernelProfile{
		Name:            name,
		Blocks:          cfg.NumSMs,
		ThreadsPerBlock: 256,
		FLOPs:           float64(d) * cfg.FLOPsPerNs,
		ReadBytes:       1 << 20,
		WriteBytes:      1 << 20,
		WorkingSetBytes: 512 << 10,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultDeviceConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultDeviceConfig()
	bad.NumSMs = 0
	if bad.Validate() == nil {
		t.Fatal("NumSMs=0 accepted")
	}
	bad = DefaultDeviceConfig()
	bad.MinSlice = bad.SliceQuantum + 1
	if bad.Validate() == nil {
		t.Fatal("MinSlice > SliceQuantum accepted")
	}
}

func TestKernelDurationComputeBound(t *testing.T) {
	cfg := testConfig()
	k := fullKernel("k", 5*Millisecond, cfg)
	got := k.Duration(cfg)
	if got < 4*Millisecond || got > 6*Millisecond {
		t.Fatalf("Duration = %v, want ~5ms", got)
	}
}

func TestKernelDurationBandwidthBound(t *testing.T) {
	cfg := testConfig()
	k := KernelProfile{
		Name:            "stream",
		Blocks:          cfg.NumSMs,
		ThreadsPerBlock: 256,
		FLOPs:           1, // negligible compute
		ReadBytes:       cfg.DRAMBytesPerNs * float64(2*Millisecond),
	}
	got := k.Duration(cfg)
	if got < 19*Millisecond/10 || got > 21*Millisecond/10 {
		t.Fatalf("Duration = %v, want ~2ms", got)
	}
}

func TestKernelFixedDurationOverride(t *testing.T) {
	cfg := testConfig()
	k := KernelProfile{Name: "spy", FixedDuration: 2500 * Microsecond, FLOPs: 1e12}
	if got := k.Duration(cfg); got != 2500*Microsecond {
		t.Fatalf("Duration = %v, want 2.5ms", got)
	}
}

func TestOccupancyScaling(t *testing.T) {
	cfg := testConfig()
	full := KernelProfile{Blocks: cfg.NumSMs, ThreadsPerBlock: 256}
	if occ := full.Occupancy(cfg); occ != 1 {
		t.Fatalf("full occupancy = %v, want 1", occ)
	}
	tiny := KernelProfile{Blocks: 4, ThreadsPerBlock: 32}
	if occ := tiny.Occupancy(cfg); occ <= 0 || occ >= 0.1 {
		t.Fatalf("tiny occupancy = %v, want small positive", occ)
	}
}

func TestEngineRunsSingleKernelToCompletion(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var spans []KernelSpan
	eng.OnKernelEnd = func(s KernelSpan) { spans = append(spans, s) }

	q := &QueueSource{}
	q.Enqueue(fullKernel("solo", 3*Millisecond, cfg), 0)
	eng.AddChannel(1, q)
	eng.Run(Second)

	if len(spans) != 1 {
		t.Fatalf("got %d kernel spans, want 1", len(spans))
	}
	d := spans[0].End - spans[0].Start
	if d < 28*Millisecond/10 || d > 35*Millisecond/10 {
		t.Fatalf("solo kernel wall time = %v, want ~3ms", d)
	}
}

// Two equal full-occupancy channels must share the device roughly fairly —
// the property the paper relies on for the time-sliced scheduler.
func TestTimeSlicedFairSharing(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	a := &RepeatSource{Kernel: fullKernel("a", 2*Millisecond, cfg)}
	b := &RepeatSource{Kernel: fullKernel("b", 2*Millisecond, cfg)}
	eng.AddChannel(1, a)
	eng.AddChannel(2, b)
	eng.Run(200 * Millisecond)

	ba, bb := float64(eng.BusyTime(1)), float64(eng.BusyTime(2))
	if ba == 0 || bb == 0 {
		t.Fatalf("starved channel: busy(a)=%v busy(b)=%v", ba, bb)
	}
	ratio := ba / bb
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair sharing: busy(a)/busy(b) = %v", ratio)
	}
}

// The slow-down attack: adding spy channels must stretch the victim's wall
// time far more than the spy's own (paper §V-F: victim 17-48x, spy <3x).
func TestSlowdownAttackAsymmetry(t *testing.T) {
	cfg := testConfig()

	victimWall := func(spyChannels int) Nanos {
		eng, err := NewEngine(cfg, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		var end Nanos
		eng.OnKernelEnd = func(s KernelSpan) {
			if s.Ctx == 1 {
				end = s.End
			}
		}
		q := &QueueSource{}
		q.Enqueue(fullKernel("victim", 20*Millisecond, cfg), 0)
		eng.AddChannel(1, q)
		for i := 0; i < spyChannels; i++ {
			eng.AddChannel(2, &RepeatSource{Kernel: KernelProfile{
				Name:            "spy.slowdown",
				Blocks:          cfg.NumSMs,
				ThreadsPerBlock: 256,
				FLOPs:           float64(5*Millisecond) * cfg.FLOPsPerNs,
				ReadBytes:       8 << 20,
				WorkingSetBytes: 1 << 20,
			}})
		}
		eng.Run(10 * Second)
		if end == 0 {
			t.Fatalf("victim never finished with %d spy channels", spyChannels)
		}
		return end
	}

	alone := victimWall(0)
	with8 := victimWall(8)
	slowdown := float64(with8) / float64(alone)
	if slowdown < 5 {
		t.Fatalf("victim slow-down with 8 spy kernels = %.1fx, want >= 5x", slowdown)
	}

	// Spy aggregate throughput must degrade far less: it holds 8 of 9 slots.
	spyBusyWith := func(victimOn bool) Nanos {
		eng, err := NewEngine(cfg, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		if victimOn {
			eng.AddChannel(1, &RepeatSource{Kernel: fullKernel("victim", 20*Millisecond, cfg)})
		}
		for i := 0; i < 8; i++ {
			eng.AddChannel(2, &RepeatSource{Kernel: fullKernel("spy.slowdown", 5*Millisecond, cfg)})
		}
		eng.Run(300 * Millisecond)
		return eng.BusyTime(2)
	}
	spyAlone := spyBusyWith(false)
	spyContended := spyBusyWith(true)
	spySlowdown := float64(spyAlone) / float64(spyContended)
	if spySlowdown > 3 {
		t.Fatalf("spy slow-down = %.2fx, want < 3x (paper §V-F)", spySlowdown)
	}
}

// A context resuming after another context ran must pay a refetch penalty
// proportional to its working set — the core side-channel signal.
func TestContextSwitchRefetchPenalty(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	var spyRefetch []float64
	eng.OnSlice = func(r *SliceRecord) {
		if r.Ctx == 2 {
			spyRefetch = append(spyRefetch, r.RefetchBytes)
		}
	}

	streamer := KernelProfile{ // bandwidth-heavy victim that flushes L2
		Name:            "victim.stream",
		Blocks:          cfg.NumSMs,
		ThreadsPerBlock: 256,
		FLOPs:           1,
		ReadBytes:       cfg.DRAMBytesPerNs * float64(50*Millisecond),
		WorkingSetBytes: cfg.L2Bytes,
	}
	spy := KernelProfile{
		Name:            "spy.probe",
		Blocks:          cfg.NumSMs,
		ThreadsPerBlock: 256,
		FLOPs:           float64(5*Millisecond) * cfg.FLOPsPerNs,
		ReadBytes:       16 << 20, // enough read rate to re-warm within a slice
		WorkingSetBytes: 512 << 10,
	}
	eng.AddChannel(1, &RepeatSource{Kernel: streamer})
	eng.AddChannel(2, &RepeatSource{Kernel: spy})
	eng.Run(100 * Millisecond)

	if len(spyRefetch) < 3 {
		t.Fatalf("too few spy slices: %d", len(spyRefetch))
	}
	// After warm-up, every spy slice should refetch ~its working set because
	// the streaming victim flushes L2 between spy slices.
	var late float64
	for _, v := range spyRefetch[2:] {
		late += v
	}
	avg := late / float64(len(spyRefetch)-2)
	if avg < 0.5*float64(512<<10) {
		t.Fatalf("avg spy refetch = %.0f bytes, want >= half the working set", avg)
	}
}

// Without a competing context there must be no recurring refetch penalty.
func TestNoRefetchWhenAlone(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	var refetches []float64
	eng.OnSlice = func(r *SliceRecord) { refetches = append(refetches, r.RefetchBytes) }
	eng.AddChannel(1, &RepeatSource{Kernel: fullKernel("solo", 2*Millisecond, cfg), Limit: 20})
	eng.Run(Second)

	if len(refetches) < 5 {
		t.Fatalf("too few slices: %d", len(refetches))
	}
	for i, v := range refetches[1:] {
		if v != 0 {
			t.Fatalf("slice %d refetched %.0f bytes while running alone", i+1, v)
		}
	}
}

// Regression test for the grantSlice horizon clamp: a grant must never start
// at or after the Run horizon, and Now() may overshoot the horizon only by
// the cost already committed when the horizon hit — a context switch charged
// before the check, or one refetch stall. With zero working sets the stall is
// zero, pinning the permitted overshoot to exactly SwitchCost.
func TestRunHorizonOvershootBounded(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	// Two contexts alternating, so nearly every grant pays the switch cost;
	// no working set or traffic, so every refetch stall is zero.
	k := KernelProfile{
		Name:            "plain",
		FixedDuration:   700 * Microsecond,
		Blocks:          cfg.NumSMs,
		ThreadsPerBlock: 256,
	}
	eng.AddChannel(1, &RepeatSource{Kernel: k})
	eng.AddChannel(2, &RepeatSource{Kernel: k})

	var horizon Nanos
	eng.OnSlice = func(rec *SliceRecord) {
		if rec.Start >= horizon {
			t.Fatalf("grant started at %v, at/after horizon %v", rec.Start, horizon)
		}
	}
	// Steps smaller than the slice quantum force grants to straddle the
	// horizon constantly.
	step := cfg.SliceQuantum / 3
	for i := 0; i < 300; i++ {
		horizon = eng.Now() + step
		eng.Run(horizon)
		if over := eng.Now() - horizon; over > cfg.SwitchCost {
			t.Fatalf("step %d: Now()=%v overshoots horizon %v by %v (> switch cost %v)",
				i, eng.Now(), horizon, over, cfg.SwitchCost)
		}
	}
}

func TestCountersScaleWithTraffic(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var total CounterDelta
	eng.OnSlice = func(r *SliceRecord) { total.Add(r.Counters) }

	k := fullKernel("traffic", 2*Millisecond, cfg)
	k.ReadBytes = 64 << 20
	k.WriteBytes = 32 << 20
	k.TexBytes = 16 << 20
	q := &QueueSource{}
	q.Enqueue(k, 0)
	eng.AddChannel(1, q)
	eng.Run(Second)

	tex, fbRead, fbWrite, l2Read, l2Write := total.Total()
	wantRead := float64(64<<20) / cfg.SectorBytes
	if fbRead < wantRead*0.9 || fbRead > wantRead*1.2 {
		t.Fatalf("fb read sectors = %.0f, want ~%.0f", fbRead, wantRead)
	}
	wantWrite := float64(32<<20) / cfg.SectorBytes
	if fbWrite < wantWrite*0.9 || fbWrite > wantWrite*1.1 {
		t.Fatalf("fb write sectors = %.0f, want ~%.0f", fbWrite, wantWrite)
	}
	wantTex := float64(16<<20) / cfg.SectorBytes
	if tex < wantTex*0.9 || tex > wantTex*1.1 {
		t.Fatalf("tex queries = %.0f, want ~%.0f", tex, wantTex)
	}
	if l2Read <= 0 || l2Write <= 0 {
		t.Fatalf("l2 miss counters not populated: read=%v write=%v", l2Read, l2Write)
	}
}

func TestCounterDeltaScaleAndAdd(t *testing.T) {
	d := CounterDelta{FBReadSectors: [2]float64{10, 20}}
	d.Scale(0.5)
	if d.FBReadSectors[0] != 5 || d.FBReadSectors[1] != 10 {
		t.Fatalf("Scale wrong: %v", d.FBReadSectors)
	}
	var sum CounterDelta
	sum.Add(d)
	sum.Add(d)
	if sum.FBReadSectors[1] != 20 {
		t.Fatalf("Add wrong: %v", sum.FBReadSectors)
	}
}

func TestQueueSourceOrderingAndExhaustion(t *testing.T) {
	q := &QueueSource{}
	q.Enqueue(KernelProfile{Name: "a"}, 5)
	q.Enqueue(KernelProfile{Name: "b"}, 7)
	k, nb, ok := q.Next(100)
	if !ok || k.Name != "a" || nb != 105 {
		t.Fatalf("first Next = %v %v %v", k.Name, nb, ok)
	}
	k, nb, ok = q.Next(200)
	if !ok || k.Name != "b" || nb != 207 {
		t.Fatalf("second Next = %v %v %v", k.Name, nb, ok)
	}
	if _, _, ok = q.Next(300); ok {
		t.Fatal("exhausted queue returned ok")
	}
}

func TestRepeatSourceLimit(t *testing.T) {
	r := &RepeatSource{Kernel: KernelProfile{Name: "k"}, Limit: 2}
	for i := 0; i < 2; i++ {
		if _, _, ok := r.Next(0); !ok {
			t.Fatalf("launch %d refused", i)
		}
	}
	if _, _, ok := r.Next(0); ok {
		t.Fatal("limit exceeded")
	}
	if r.Launched() != 2 {
		t.Fatalf("Launched = %d, want 2", r.Launched())
	}
}

// MPS leftover policy: while a full-occupancy victim runs, the spy must make
// no progress; it completes kernels only in inter-kernel gaps (Figure 2).
func TestMPSStarvesSpyDuringFullOccupancyKernels(t *testing.T) {
	cfg := testConfig()
	victim := &QueueSource{}
	for i := 0; i < 5; i++ {
		victim.Enqueue(fullKernel("victim.op", 5*Millisecond, cfg), 1*Millisecond)
	}
	eng, err := NewMPSEngine(cfg, rand.New(rand.NewSource(8)), victim)
	if err != nil {
		t.Fatal(err)
	}
	var spyCompletions []KernelSpan
	eng.OnKernelEnd = func(s KernelSpan) {
		if s.Ctx == 1 {
			spyCompletions = append(spyCompletions, s)
		}
	}
	spy := KernelProfile{Name: "spy.Conv200", FixedDuration: 2500 * Microsecond,
		Blocks: 4, ThreadsPerBlock: 32, FLOPs: 1e6}
	eng.AddSecondary(1, &RepeatSource{Kernel: spy})
	eng.Run(40 * Millisecond)

	// The victim's 5 kernels finish by ~30ms; spy kernels completing while
	// the victim is active must be stretched across victim kernels, because
	// each needs 2.5ms of leftover time but the gaps are only 1ms.
	const victimActiveUntil = 30 * Millisecond
	var duringVictim int
	for _, s := range spyCompletions {
		if s.Start >= victimActiveUntil {
			continue
		}
		duringVictim++
		if s.End-s.Start < 5*Millisecond {
			t.Fatalf("spy kernel completed in %v; should be stretched past a victim kernel", s.End-s.Start)
		}
	}
	if duringVictim == 0 {
		t.Fatal("spy never completed a kernel while the victim was active")
	}
}

// Under time-slicing the same spy completes many kernels in the same window
// (Figure 3 contrast with Figure 2).
func TestTimeSlicedSpyCompletesManyKernels(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var spyCompletions int
	eng.OnKernelEnd = func(s KernelSpan) {
		if s.Ctx == 2 {
			spyCompletions++
		}
	}
	eng.AddChannel(1, &RepeatSource{Kernel: fullKernel("victim.op", 5*Millisecond, cfg)})
	spy := KernelProfile{Name: "spy.Conv200", FixedDuration: 2500 * Microsecond,
		Blocks: 4, ThreadsPerBlock: 32, FLOPs: 1e6}
	eng.AddChannel(2, &RepeatSource{Kernel: spy})
	eng.Run(400 * Millisecond)

	if spyCompletions < 3 {
		t.Fatalf("spy completed %d kernels under time-slicing, want >= 3", spyCompletions)
	}
}

func TestEngineRequiresRand(t *testing.T) {
	if _, err := NewEngine(testConfig(), nil); err == nil {
		t.Fatal("NewEngine accepted nil rng")
	}
	if _, err := NewMPSEngine(testConfig(), nil, &QueueSource{}); err == nil {
		t.Fatal("NewMPSEngine accepted nil rng")
	}
}

func TestEngineStopsAtHorizon(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	eng.AddChannel(1, &RepeatSource{Kernel: fullKernel("forever", 1*Millisecond, cfg)})
	eng.Run(25 * Millisecond)
	if eng.Now() < 25*Millisecond || eng.Now() > 27*Millisecond {
		t.Fatalf("Now = %v, want ~25ms", eng.Now())
	}
}
