package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: slice records are emitted in non-decreasing start order, never
// overlap, and counters are never negative — the contract the CUPTI
// samplers and the trace aligner depend on.
func TestSliceRecordInvariants(t *testing.T) {
	cfg := DefaultDeviceConfig().ScaledTime(0.01)
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd Nanos
	var prevStart Nanos = -1
	violations := 0
	eng.OnSlice = func(r *SliceRecord) {
		if r.Start < prevStart {
			violations++
		}
		if r.Start < prevEnd {
			violations++
		}
		if r.End <= r.Start {
			violations++
		}
		tex, fbR, fbW, l2R, l2W := r.Counters.Total()
		for _, v := range []float64{tex, fbR, fbW, l2R, l2W, r.RefetchBytes, r.TexRefetchBytes} {
			if v < 0 {
				violations++
			}
		}
		prevStart, prevEnd = r.Start, r.End
	}
	for i := 0; i < 3; i++ {
		eng.AddChannel(ContextID(i+1), &RepeatSource{Kernel: KernelProfile{
			Name:            "k",
			Blocks:          cfg.NumSMs,
			ThreadsPerBlock: 256,
			FLOPs:           float64(500*Microsecond) * cfg.FLOPsPerNs,
			ReadBytes:       1 << 20,
			WriteBytes:      1 << 19,
			TexBytes:        1 << 18,
			WorkingSetBytes: 1 << 19,
		}})
	}
	eng.Run(50 * Millisecond)
	if violations > 0 {
		t.Fatalf("%d slice-record invariant violations", violations)
	}
}

// Property: kernel spans always cover their slices — a kernel's reported
// wall time begins at its first slice and ends at its last.
func TestKernelSpanCoversSlices(t *testing.T) {
	cfg := DefaultDeviceConfig().ScaledTime(0.01)
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	sliceTime := make(map[ContextID]Nanos)
	eng.OnSlice = func(r *SliceRecord) { sliceTime[r.Ctx] += r.End - r.Start }
	spanTime := make(map[ContextID]Nanos)
	eng.OnKernelEnd = func(s KernelSpan) {
		if s.End <= s.Start {
			t.Errorf("kernel span [%d, %d] empty or inverted", s.Start, s.End)
		}
		spanTime[s.Ctx] += s.End - s.Start
	}
	k := KernelProfile{Name: "k", Blocks: cfg.NumSMs, ThreadsPerBlock: 256,
		FLOPs: float64(300*Microsecond) * cfg.FLOPsPerNs}
	eng.AddChannel(1, repeated(k, 10))
	eng.AddChannel(2, repeated(k, 10))
	eng.Run(Second)
	for ctx, span := range spanTime {
		// Wall-clock span includes preemption, so span >= own slice time.
		if span < sliceTime[ctx] {
			t.Errorf("ctx %d span %v < slice time %v", ctx, span, sliceTime[ctx])
		}
	}
}

// Property: the engine is deterministic — identical seeds produce identical
// slice streams.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []SliceRecord {
		cfg := DefaultDeviceConfig().ScaledTime(0.01)
		eng, err := NewEngine(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var recs []SliceRecord
		eng.OnSlice = func(r *SliceRecord) { recs = append(recs, *r) }
		k := KernelProfile{Name: "k", Blocks: cfg.NumSMs, ThreadsPerBlock: 256,
			FLOPs: float64(200*Microsecond) * cfg.FLOPsPerNs, ReadBytes: 1 << 18}
		eng.AddChannel(1, &RepeatSource{Kernel: k})
		eng.AddChannel(2, &RepeatSource{Kernel: k})
		eng.Run(10 * Millisecond)
		return recs
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("slice counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Counters != b[i].Counters {
			t.Fatalf("slice %d differs between identical runs", i)
		}
	}
	c := run(8)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].Counters != c[i].Counters {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical counter streams")
		}
	}
}

// Property: busy time never exceeds wall-clock time and is conserved across
// contexts (total busy <= elapsed).
func TestBusyTimeConservation(t *testing.T) {
	cfg := DefaultDeviceConfig().ScaledTime(0.01)
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	k := KernelProfile{Name: "k", Blocks: cfg.NumSMs, ThreadsPerBlock: 256,
		FLOPs: float64(400*Microsecond) * cfg.FLOPsPerNs}
	busy := meterBusy(eng)
	eng.AddChannel(1, &RepeatSource{Kernel: k})
	eng.AddChannel(2, &RepeatSource{Kernel: k})
	eng.AddChannel(3, &RepeatSource{Kernel: k})
	horizon := 40 * Millisecond
	eng.Run(horizon)
	total := busy[1] + busy[2] + busy[3]
	if total > eng.Now() {
		t.Fatalf("total busy %v exceeds elapsed %v", total, eng.Now())
	}
	if total < eng.Now()/2 {
		t.Fatalf("device under 50%% utilized (%v of %v) with saturating work", total, eng.Now())
	}
}

// Property: occupancy is monotone in threads and bounded in [0, 1].
func TestOccupancyProperties(t *testing.T) {
	cfg := DefaultDeviceConfig()
	f := func(blocks, threads uint8) bool {
		k := KernelProfile{Blocks: int(blocks), ThreadsPerBlock: int(threads)}
		occ := k.Occupancy(cfg)
		if occ < 0 || occ > 1 {
			return false
		}
		bigger := KernelProfile{Blocks: int(blocks) + 1, ThreadsPerBlock: int(threads) + 1}
		return bigger.Occupancy(cfg) >= occ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ScaledTime preserves ordering relations between time constants.
func TestScaledTimeProperties(t *testing.T) {
	f := func(scaleRaw uint16) bool {
		scale := float64(scaleRaw)/65535*0.99 + 0.01 // (0.01, 1]
		cfg := DefaultDeviceConfig()
		s := cfg.ScaledTime(scale)
		if s.MinSlice > s.SliceQuantum {
			return false
		}
		return s.SliceQuantum > 0 && s.SwitchCost > 0 && s.LaunchGap > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
