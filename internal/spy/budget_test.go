package spy

import (
	"math/rand"
	"strings"
	"testing"

	"leakydnn/internal/gpu"
)

// attachAndName deploys a spy on a fresh engine and returns the set of spy
// kernel names the scheduler actually granted slices to.
func attachAndName(t *testing.T, dev gpu.DeviceConfig, cfg Config) (*Program, map[string]bool) {
	t.Helper()
	prog, err := NewProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := gpu.NewEngine(dev, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	eng.OnSlice = func(rec *gpu.SliceRecord) {
		if rec.Ctx == cfg.Ctx {
			names[rec.Kernel.Name] = true
		}
	}
	if err := prog.AttachTimeSliced(eng); err != nil {
		t.Fatal(err)
	}
	eng.Run(200 * gpu.Millisecond * gpu.Nanos(1))
	return prog, names
}

// SlowdownChannels caps the slow-down set to a prefix: a budget of 3 launches
// exactly the first three kernels of the paper's eight, and nothing is
// counted as rejected — the spy never asked for the rest.
func TestSlowdownChannelBudget(t *testing.T) {
	dev := gpu.DefaultDeviceConfig().ScaledTime(0.01)
	prog, names := attachAndName(t, dev, Config{
		Ctx: 2, Probe: Conv200, TimeScale: 0.01, Slowdown: true,
		SlowdownChannels: 3, SamplePeriod: 30 * gpu.Microsecond,
	})
	if prog.RejectedChannels() != 0 {
		t.Fatalf("budgeted spy counted %d rejects, want 0", prog.RejectedChannels())
	}
	var slowdown []string
	for name := range names {
		if strings.HasPrefix(name, "spy.slowdown.") {
			slowdown = append(slowdown, name)
		}
	}
	if len(slowdown) != 3 {
		t.Fatalf("budget of 3 granted slices to %d slow-down kernels: %v", len(slowdown), slowdown)
	}
	for _, want := range []string{"spy.slowdown.G0.0", "spy.slowdown.G0.1", "spy.slowdown.G1.0"} {
		if !names[want] {
			t.Fatalf("budgeted set missing %s (got %v)", want, slowdown)
		}
	}
}

// A hardened cap that fits the probe but only part of the slow-down batch
// must reject the batch wholesale: the pre-batched arming could leave the spy
// half-armed with however many channels happened to fit, a state no real
// driver transaction would produce and none of the analysis stages expect.
func TestSlowdownBatchAllOrNothing(t *testing.T) {
	dev := gpu.DefaultDeviceConfig().ScaledTime(0.01)
	dev.MaxChannelsPerCtx = 5 // probe + 4 of 8 slow-down kernels
	dev.ProtectedCtx = 1
	prog, names := attachAndName(t, dev, Config{
		Ctx: 2, Probe: Conv200, TimeScale: 0.01, Slowdown: true,
		SamplePeriod: 30 * gpu.Microsecond,
	})
	if got := prog.RejectedChannels(); got != 8 {
		t.Fatalf("partial cap rejected %d channels, want all 8", got)
	}
	for name := range names {
		if strings.HasPrefix(name, "spy.slowdown.") {
			t.Fatalf("slow-down kernel %s armed despite batch rejection", name)
		}
	}
	if !names["spy.Conv200"] {
		t.Fatal("probe did not run under the partial cap")
	}
}
