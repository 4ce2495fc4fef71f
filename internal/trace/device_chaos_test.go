package trace

import (
	"errors"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/dnn"
	"leakydnn/internal/zoo"
)

// collectTwice runs the same configuration twice and fails unless the two
// collections are byte-identical — every fault class below must stay a pure
// function of (seed, plan).
func collectTwice(t *testing.T, m dnn.Model, cfg RunConfig) *Trace {
	t.Helper()
	a, err := Collect(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("rerun changed the sample count: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("rerun changed sample %d", i)
		}
	}
	if a.Health.Summary() != b.Health.Summary() {
		t.Fatalf("rerun changed Health:\n first  %s\n second %s", a.Health.Summary(), b.Health.Summary())
	}
	return a
}

// TestDeviceCrashReturnsTypedError: an injected whole-device crash aborts the
// collection with a *chaos.DeviceCrashError carrying the crash time — the
// typed error the fleet supervisor matches to schedule a retry.
func TestDeviceCrashReturnsTypedError(t *testing.T) {
	cfg := fastRun(5, 4, true)
	cfg.Chaos.Device = chaos.DeviceFaults{CrashFrac: 0.5}
	_, err := Collect(zoo.TinyTestedModels()[0], cfg)
	if err == nil {
		t.Fatal("crashed collection returned no error")
	}
	var crash *chaos.DeviceCrashError
	if !errors.As(err, &crash) {
		t.Fatalf("crash surfaced as %T (%v), want *chaos.DeviceCrashError", err, err)
	}
	if crash.At <= 0 {
		t.Fatalf("crash carries no time: %+v", crash)
	}
}

// TestSpyKillCutsSampleTail: killing the spy process mid-run loses every
// window past the kill, while the victim trains to completion — and the
// degraded trace stays deterministic.
func TestSpyKillCutsSampleTail(t *testing.T) {
	m := zoo.TinyTestedModels()[0]
	cfg := fastRun(5, 4, true)
	cfg.Chaos.Device = chaos.DeviceFaults{SpyKillFrac: 0.4}
	tr := collectTwice(t, m, cfg)
	d := tr.Health.Device
	if d.SpyKilledAt == 0 {
		t.Fatal("spy kill not recorded")
	}
	if d.SamplesLostToSpyKill == 0 {
		t.Fatal("spy killed at 40% of the run but no windows lost")
	}
	for i, s := range tr.Samples {
		if s.End > d.SpyKilledAt {
			t.Fatalf("sample %d ends at %v, past the kill at %v", i, s.End, d.SpyKilledAt)
		}
	}
	if got := tr.Timeline.Iterations(); got != cfg.Session.Iterations {
		t.Fatalf("victim committed %d iterations after spy kill, want %d", got, cfg.Session.Iterations)
	}
	if tr.Health.Clean() {
		t.Fatal("spy-killed run reported clean")
	}
}

// TestArmLossCutsSampleTail: invalidating the CUPTI arming session loses the
// window tail exactly like a spy kill, but attributed to the arming loss.
func TestArmLossCutsSampleTail(t *testing.T) {
	cfg := fastRun(5, 4, true)
	cfg.Chaos.Device = chaos.DeviceFaults{ArmLossFrac: 0.4}
	tr := collectTwice(t, zoo.TinyTestedModels()[0], cfg)
	d := tr.Health.Device
	if d.ArmSessionLostAt == 0 {
		t.Fatal("arming-session loss not recorded")
	}
	if d.SamplesLostToArmLoss == 0 {
		t.Fatal("arming session lost at 40% of the run but no windows lost")
	}
	if d.SamplesLostToSpyKill != 0 {
		t.Fatalf("arm loss misattributed %d windows to a spy kill", d.SamplesLostToSpyKill)
	}
	for i, s := range tr.Samples {
		if s.End > d.ArmSessionLostAt {
			t.Fatalf("sample %d ends at %v, past the loss at %v", i, s.End, d.ArmSessionLostAt)
		}
	}
}

// TestEarlierDeviceCutoffWinsAttribution: when both the arming session and
// the spy process die, the earlier event owns the lost tail — each window is
// lost exactly once.
func TestEarlierDeviceCutoffWinsAttribution(t *testing.T) {
	cfg := fastRun(5, 4, true)
	cfg.Chaos.Device = chaos.DeviceFaults{SpyKillFrac: 0.7, ArmLossFrac: 0.3}
	tr, err := Collect(zoo.TinyTestedModels()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Health.Device
	if d.SpyKilledAt == 0 || d.ArmSessionLostAt == 0 {
		t.Fatalf("both faults should have fired: %+v", d)
	}
	if d.ArmSessionLostAt >= d.SpyKilledAt {
		t.Fatalf("arm loss at %v should precede spy kill at %v", d.ArmSessionLostAt, d.SpyKilledAt)
	}
	if d.SamplesLostToArmLoss == 0 || d.SamplesLostToSpyKill != 0 {
		t.Fatalf("earlier cutoff must own the tail: %+v", d)
	}
}

// TestZeroDeviceFaultsAreIdentity: a measurement-chaos plan whose Device half
// is zero must not build device events at all — byte-identical to the same
// plan without the field mentioned (the zero value injects nothing).
func TestZeroDeviceFaultsAreIdentity(t *testing.T) {
	m := zoo.TinyTestedModels()[0]
	clean, err := Collect(m, fastRun(11, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRun(11, 4, true)
	cfg.Chaos.Device = chaos.DeviceFaults{}
	zeroed, err := Collect(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Samples) != len(zeroed.Samples) {
		t.Fatalf("zero device plan changed the sample count: %d vs %d", len(clean.Samples), len(zeroed.Samples))
	}
	for i := range clean.Samples {
		if clean.Samples[i] != zeroed.Samples[i] {
			t.Fatalf("zero device plan changed sample %d", i)
		}
	}
	if !zeroed.Health.Clean() {
		t.Fatalf("zero device plan dirtied Health: %s", zeroed.Health.Summary())
	}
}
