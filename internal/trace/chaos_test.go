package trace

import (
	"reflect"
	"testing"

	"leakydnn/internal/chaos"
	"leakydnn/internal/zoo"
)

// Clean reports whether the co-run delivered everything it measured: no
// injected faults (measurement or scheduler), no rejected channels, no
// quarantined iterations.
func (h *Health) Clean() bool {
	return h.SamplesEmitted == h.SamplesDelivered &&
		h.Faults == (chaos.Stats{}) &&
		h.Sched == (chaos.SchedStats{}) && h.Reanchors == 0 &&
		h.Device == (chaos.DeviceStats{}) &&
		h.SpyChannelsRejected == 0 && h.SpyArmRetries == 0 && h.SpyArmFailures == 0 &&
		h.IterationsQuarantined == 0
}

// An explicit zero plan must behave exactly like no plan at all: same
// samples, same counters, and a clean Health report. This is the trace-level
// face of the determinism guarantee (the eval package checks the same thing
// against a pre-chaos golden hash).
func TestCollectZeroChaosPlanIsIdentity(t *testing.T) {
	m := zoo.TinyTestedModels()[0]
	clean, err := Collect(m, fastRun(11, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRun(11, 4, true)
	cfg.Chaos = chaos.Plan{}
	zeroed, err := Collect(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Samples, zeroed.Samples) {
		t.Fatal("zero chaos plan changed the sample stream")
	}
	if clean.SpyProbeLaunches != zeroed.SpyProbeLaunches ||
		clean.VictimWall != zeroed.VictimWall {
		t.Fatal("zero chaos plan changed run counters")
	}
	for name, h := range map[string]*Health{"clean": clean.Health, "zeroed": zeroed.Health} {
		if h == nil {
			t.Fatalf("%s run has no Health report", name)
		}
		if !h.Clean() {
			t.Fatalf("%s run reports unhealthy: %s", name, h.Summary())
		}
		if h.SamplesEmitted != h.SamplesDelivered || h.SamplesDelivered != len(clean.Samples) {
			t.Fatalf("%s run sample accounting wrong: %+v", name, h)
		}
		if h.IterationsProcessed+h.IterationsQuarantined != h.IterationsTotal {
			t.Fatalf("%s run breaks the iteration identity: %+v", name, h)
		}
	}
}

// A heavy plan must degrade the trace while keeping the accounting identities
// intact: emitted vs delivered reconciles against the per-cause fault stats,
// and processed + quarantined = total.
func TestCollectChaoticPlanDegradesAccountably(t *testing.T) {
	m := zoo.TinyTestedModels()[0]
	clean, err := Collect(m, fastRun(11, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRun(11, 4, true)
	cfg.Chaos = chaos.At(0.8)
	tr, err := Collect(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Health
	if h.Clean() {
		t.Fatalf("intensity-0.8 plan reported a clean run: %s", h.Summary())
	}
	if h.SamplesEmitted != clean.Health.SamplesEmitted {
		t.Fatalf("chaos perturbed the clean sampler itself: emitted %d, clean run %d",
			h.SamplesEmitted, clean.Health.SamplesEmitted)
	}
	lost := h.Faults.Truncated + h.Faults.GapSamplesLost + h.Faults.Dropped
	if got := h.SamplesDelivered - h.Faults.Duplicated + lost; got != h.SamplesEmitted {
		t.Fatalf("sample accounting broken: delivered=%d dup=%d lost=%d reconstructs %d of %d",
			h.SamplesDelivered, h.Faults.Duplicated, lost, got, h.SamplesEmitted)
	}
	if h.IterationsProcessed+h.IterationsQuarantined != h.IterationsTotal {
		t.Fatalf("iteration identity broken: %+v", h)
	}
	quarantined := 0
	for _, n := range h.QuarantineCauses {
		quarantined += n
	}
	if quarantined != h.IterationsQuarantined {
		t.Fatalf("per-cause quarantine counts sum to %d, total says %d", quarantined, h.IterationsQuarantined)
	}
	if len(tr.Samples) != h.SamplesDelivered {
		t.Fatalf("trace carries %d samples but Health reports %d delivered", len(tr.Samples), h.SamplesDelivered)
	}
}

// Collecting twice with the same seed and the same plan must be bit-identical
// even under faults: the injector's RNG stream is keyed off the run seed.
func TestCollectChaoticDeterministicUnderSeed(t *testing.T) {
	m := zoo.TinyTestedModels()[0]
	run := func() *Trace {
		cfg := fastRun(23, 4, true)
		cfg.Chaos = chaos.At(0.6)
		tr, err := Collect(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("faulted collection is not deterministic under a fixed seed")
	}
	if !reflect.DeepEqual(a.Health, b.Health) {
		t.Fatalf("health reports differ between identical faulted runs:\n%+v\n%+v", a.Health, b.Health)
	}
}

func TestCollectRejectsInvalidChaosPlan(t *testing.T) {
	cfg := fastRun(3, 2, false)
	cfg.Chaos = chaos.Plan{DropRate: 1.5}
	if _, err := Collect(zoo.TinyTestedModels()[0], cfg); err == nil {
		t.Fatal("invalid chaos plan accepted")
	}
}
