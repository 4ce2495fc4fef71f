package cupti

import (
	"errors"
	"math"
	"testing"

	"leakydnn/internal/gpu"
)

func TestEventNamesAndGroups(t *testing.T) {
	tests := []struct {
		event Event
		name  string
		group Group
	}{
		{Tex0CacheSectorQueries, "tex0_cache_sector_queries", GroupTexture},
		{Tex1CacheSectorQueries, "tex1_cache_sector_queries", GroupTexture},
		{FBSubp0ReadSectors, "fb_subp0_read_sectors", GroupFrameBuffer},
		{FBSubp1WriteSectors, "fb_subp1_write_sectors", GroupFrameBuffer},
		{L2Subp0ReadSectorMisses, "l2_subp0_read_sector_misses", GroupL2},
		{L2Subp1WriteSectorMisses, "l2_subp1_write_sector_misses", GroupL2},
	}
	for _, tt := range tests {
		if got := tt.event.String(); got != tt.name {
			t.Errorf("%d.String() = %q, want %q", tt.event, got, tt.name)
		}
		if got := tt.event.Group(); got != tt.group {
			t.Errorf("%s.Group() = %d, want %d", tt.name, got, tt.group)
		}
	}
}

func TestSelectedEventsMatchTableIV(t *testing.T) {
	events := SelectedEvents()
	if len(events) != 10 {
		t.Fatalf("len(SelectedEvents()) = %d, want 10 (Table IV)", len(events))
	}
	groups := GroupsOf(events)
	if len(groups) != 3 {
		t.Fatalf("selected events span %d groups, want 3", len(groups))
	}
}

func TestProfilingOverheadGrowsWithGroups(t *testing.T) {
	one := ProfilingOverhead([]Event{Tex0CacheSectorQueries})
	three := ProfilingOverhead(SelectedEvents())
	if one <= 1 {
		t.Fatalf("single-group overhead = %v, want > 1", one)
	}
	if three <= one {
		t.Fatalf("three-group overhead %v not greater than one-group %v", three, one)
	}
	if none := ProfilingOverhead(nil); none != 1 {
		t.Fatalf("no-event overhead = %v, want 1", none)
	}
}

func sliceRec(ctx gpu.ContextID, start, end gpu.Nanos, fbRead float64) *gpu.SliceRecord {
	return &gpu.SliceRecord{
		Ctx:   ctx,
		Start: start,
		End:   end,
		Counters: gpu.CounterDelta{
			FBReadSectors: [2]float64{fbRead / 2, fbRead / 2},
		},
	}
}

func TestWindowSamplerSplitsSlicesAcrossWindows(t *testing.T) {
	w, err := NewWindowSampler(1, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A slice of 200ns straddling two 100ns windows with 1000 read sectors.
	w.Observe(sliceRec(1, 50, 250, 1000))
	samples := w.Finish(300)
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	got := []float64{
		samples[0].Values[FBSubp0ReadSectors] + samples[0].Values[FBSubp1ReadSectors],
		samples[1].Values[FBSubp0ReadSectors] + samples[1].Values[FBSubp1ReadSectors],
		samples[2].Values[FBSubp0ReadSectors] + samples[2].Values[FBSubp1ReadSectors],
	}
	want := []float64{250, 500, 250}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("window %d read sectors = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWindowSamplerIgnoresOtherContexts(t *testing.T) {
	w, err := NewWindowSampler(1, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(sliceRec(2, 0, 100, 1000))
	w.Observe(sliceRec(1, 100, 200, 400))
	samples := w.Finish(200)
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	if sum := samples[0].Values[FBSubp0ReadSectors] + samples[0].Values[FBSubp1ReadSectors]; sum != 400 {
		t.Fatalf("read sectors = %v, want 400 (ctx 2 leaked in)", sum)
	}
}

func TestWindowSamplerEmitsEmptyStarvedWindows(t *testing.T) {
	w, err := NewWindowSampler(1, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(sliceRec(1, 0, 50, 100))
	w.Observe(sliceRec(1, 450, 500, 100)) // 3 empty windows in between
	samples := w.Finish(500)
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5", len(samples))
	}
	for i := 1; i <= 3; i++ {
		if sum := samples[i].Values[FBSubp0ReadSectors] + samples[i].Values[FBSubp1ReadSectors]; sum != 0 {
			t.Fatalf("starved window %d has %v sectors, want 0", i, sum)
		}
	}
}

func TestWindowSamplerRejectsBadPeriod(t *testing.T) {
	if _, err := NewWindowSampler(1, 0, nil); err == nil {
		t.Fatal("period 0 accepted")
	}
}

func TestSampleVectorOrder(t *testing.T) {
	var s Sample
	s.addDelta(gpu.CounterDelta{
		TexQueries:     [2]float64{1, 2},
		FBReadSectors:  [2]float64{3, 4},
		FBWriteSectors: [2]float64{5, 6},
		L2ReadMisses:   [2]float64{7, 8},
		L2WriteMisses:  [2]float64{9, 10},
	})
	v := s.Vector()
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vector[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestKernelSamplerEmitsPerProbeCompletion(t *testing.T) {
	k := NewKernelSampler(1, "spy.Conv200", nil)
	k.Observe(sliceRec(1, 0, 100, 50))
	k.Observe(sliceRec(1, 100, 200, 70))
	k.ObserveKernelEnd(gpu.KernelSpan{Ctx: 1, Kernel: gpu.KernelProfile{Name: "spy.Conv200"}, Start: 0, End: 200})
	k.Observe(sliceRec(1, 200, 300, 30))
	// Completion of a non-probe kernel must not emit.
	k.ObserveKernelEnd(gpu.KernelSpan{Ctx: 1, Kernel: gpu.KernelProfile{Name: "spy.slowdown"}, Start: 0, End: 250})
	k.ObserveKernelEnd(gpu.KernelSpan{Ctx: 1, Kernel: gpu.KernelProfile{Name: "spy.Conv200"}, Start: 200, End: 300})

	samples := k.Samples()
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	first := samples[0].Values[FBSubp0ReadSectors] + samples[0].Values[FBSubp1ReadSectors]
	second := samples[1].Values[FBSubp0ReadSectors] + samples[1].Values[FBSubp1ReadSectors]
	if first != 120 || second != 30 {
		t.Fatalf("sample sums = %v, %v; want 120, 30", first, second)
	}
	if samples[1].Start != 200 || samples[1].End != 300 {
		t.Fatalf("second sample span = [%d,%d], want [200,300]", samples[1].Start, samples[1].End)
	}
}

func TestKernelSamplerIgnoresOtherContexts(t *testing.T) {
	k := NewKernelSampler(1, "probe", nil)
	k.Observe(sliceRec(2, 0, 100, 50))
	k.ObserveKernelEnd(gpu.KernelSpan{Ctx: 2, Kernel: gpu.KernelProfile{Name: "probe"}, Start: 0, End: 100})
	if len(k.Samples()) != 0 {
		t.Fatal("kernel sampler leaked another context's completion")
	}
}

func TestDriverAccessGateAndDowngrade(t *testing.T) {
	d, err := NewDriver(PatchedDriverVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckAccess(); !errors.Is(err, ErrAccessRestricted) {
		t.Fatalf("patched driver CheckAccess = %v, want ErrAccessRestricted", err)
	}
	if err := d.Downgrade(UnpatchedDriverVersion); err != nil {
		t.Fatalf("downgrade failed: %v", err)
	}
	if err := d.CheckAccess(); err != nil {
		t.Fatalf("unpatched driver CheckAccess = %v, want nil", err)
	}
	if d.Version() != UnpatchedDriverVersion {
		t.Fatalf("Version = %q, want %q", d.Version(), UnpatchedDriverVersion)
	}
	if err := d.Downgrade(PatchedDriverVersion); err == nil {
		t.Fatal("upgrade via Downgrade accepted")
	}
}

func TestDriverRejectsMalformedVersions(t *testing.T) {
	if _, err := NewDriver("not-a-version"); err == nil {
		t.Fatal("malformed version accepted")
	}
	if _, err := NewDriver("-1.0"); err == nil {
		t.Fatal("negative version accepted")
	}
}
