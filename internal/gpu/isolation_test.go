package gpu

import (
	"math/rand"
	"reflect"
	"testing"
)

// victimSlices runs a fixed victim workload (ctx 1), optionally alongside a
// background tenant (ctx 2), and returns the victim's slice durations and
// counter readings in grant order.
func victimSlices(t *testing.T, isolate, tenant bool) ([]Nanos, []CounterDelta) {
	t.Helper()
	cfg := DefaultDeviceConfig().ScaledTime(0.001)
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if isolate {
		eng.IsolateContextStreams(7)
	}
	var durs []Nanos
	var counters []CounterDelta
	eng.OnSlice = func(rec *SliceRecord) {
		if rec.Ctx == 1 {
			durs = append(durs, rec.End-rec.Start)
			counters = append(counters, rec.Counters)
		}
	}
	// Zero working set: no L2/texture state, so a co-tenant cannot change the
	// victim's refetch traffic — only, through the shared RNG stream, its
	// jitter and noise draws. That isolates exactly what the test pins.
	k := KernelProfile{
		Name:            "victim",
		FixedDuration:   5 * cfg.SliceQuantum / 2,
		ReadBytes:       1 << 20,
		WriteBytes:      1 << 19,
		Blocks:          28,
		ThreadsPerBlock: 256,
	}
	victim := &QueueSource{}
	for i := 0; i < 6; i++ {
		victim.Enqueue(k, cfg.LaunchGap)
	}
	if !eng.AddChannel(1, victim) {
		t.Fatal("victim channel rejected")
	}
	if tenant {
		tk := k
		tk.Name = "tenant"
		if !eng.AddChannel(2, &RepeatSource{Kernel: tk, Limit: 8}) {
			t.Fatal("tenant channel rejected")
		}
	}
	eng.Run(10 * Second)
	return durs, counters
}

// With per-context RNG streams, a victim's slice durations and counter draws
// are a pure function of its own grant sequence: adding a co-tenant shifts
// when the victim runs but must not change what it draws. This is the
// engine-level face of the churn-determinism guarantee the scheduler-chaos
// path relies on.
func TestIsolatedStreamsMakeVictimDrawsTenantInvariant(t *testing.T) {
	aloneDurs, aloneCtrs := victimSlices(t, true, false)
	coDurs, coCtrs := victimSlices(t, true, true)
	if len(aloneDurs) == 0 {
		t.Fatal("victim received no slices")
	}
	if !reflect.DeepEqual(aloneDurs, coDurs) {
		t.Fatalf("isolated victim slice durations changed under co-tenancy:\nalone: %v\nco:    %v", aloneDurs, coDurs)
	}
	if !reflect.DeepEqual(aloneCtrs, coCtrs) {
		t.Fatal("isolated victim counter draws changed under co-tenancy")
	}
}

// The shared-stream default interleaves every context's draws, so the same
// experiment must perturb the victim — otherwise the isolation switch is dead
// code and the golden-trace guarantee it protects means nothing.
func TestSharedStreamIsPerturbedByTenant(t *testing.T) {
	aloneDurs, _ := victimSlices(t, false, false)
	coDurs, _ := victimSlices(t, false, true)
	if reflect.DeepEqual(aloneDurs, coDurs) {
		t.Fatal("shared-stream victim durations unchanged by a co-tenant; jitter draws are not interleaving")
	}
}

// Isolation off must leave the engine byte-identical to the historical
// behaviour; isolation on must be deterministic for a fixed seed.
func TestIsolatedStreamsDeterministicUnderSeed(t *testing.T) {
	a, _ := victimSlices(t, true, true)
	b, _ := victimSlices(t, true, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("isolated run is not deterministic under a fixed seed")
	}
}
