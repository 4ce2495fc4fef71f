package gpu

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// residencyKernel is a multi-slice kernel with L2 and texture working sets,
// so every grant exercises the decay logs on both cache models.
func residencyKernel(name string, workingSet float64, cfg DeviceConfig) KernelProfile {
	k := fullKernel(name, 3*cfg.SliceQuantum, cfg)
	k.WorkingSetBytes = workingSet
	k.TexBytes = 1 << 18
	k.TexWorkingSetBytes = 64 << 10
	return k
}

// residencyChurnRun drives one engine through a churn-heavy workload — a
// channel that retires by source exhaustion (leaving ghost residency), a
// context detached mid-run, and a deferred re-attach — and returns every
// slice record plus the engine for white-box inspection.
func residencyChurnRun(t *testing.T, exact, isolate bool, workingSet float64, horizon Nanos) ([]SliceRecord, *Engine) {
	t.Helper()
	cfg := testConfig().ScaledTime(0.001)
	cfg.ExactResidencyTotal = exact
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if isolate {
		eng.IsolateContextStreams(11)
	}
	var recs []SliceRecord
	eng.OnSlice = func(r *SliceRecord) { recs = append(recs, *r) }

	eng.AddChannel(1, &RepeatSource{Kernel: residencyKernel("a", workingSet, cfg)})
	eng.AddChannel(2, &RepeatSource{Kernel: residencyKernel("b", workingSet, cfg)})
	eng.AddChannel(3, repeated(residencyKernel("ghost", workingSet, cfg), 4))

	eng.Run(horizon / 2)
	eng.DetachContext(2)
	eng.AddChannelAt(2, &RepeatSource{Kernel: residencyKernel("b2", workingSet, cfg)}, eng.Now()+10*cfg.SliceQuantum)
	eng.Run(horizon)
	return recs, eng
}

// Without capacity pressure (the working sets fit in L2 together) the lazy
// decay-log fast path must reproduce the historical eager sweep bit for bit,
// across source exhaustion, DetachContext/InvalidateResidency and a deferred
// AddChannelAt. The horizon is long enough that the logs compact at least
// once, so the prefix-drop path is covered too.
func TestFastResidencyBitIdenticalWithoutPressure(t *testing.T) {
	horizon := 12000 * Microsecond // ~10k slices at the 0.001 time scale
	fast, engF := residencyChurnRun(t, false, false, 256<<10, horizon)
	exact, _ := residencyChurnRun(t, true, false, 256<<10, horizon)
	if len(fast) == 0 {
		t.Fatal("no slices recorded")
	}
	if !reflect.DeepEqual(fast, exact) {
		for i := range fast {
			if !reflect.DeepEqual(fast[i], exact[i]) {
				t.Fatalf("slice %d diverged:\nfast:  %+v\nexact: %+v", i, fast[i], exact[i])
			}
		}
		t.Fatalf("record counts diverged: fast %d, exact %d", len(fast), len(exact))
	}
	if engF.l2Base == 0 {
		t.Fatal("L2 decay log never compacted; the horizon no longer covers the prefix-drop path")
	}
}

// Isolation mode must not change which RNG values each context draws on the
// fast path: per-context streams are keyed by context id only, and the lazy
// log performs no draws of its own.
func TestIsolationModeDrawsUnchangedByFastPath(t *testing.T) {
	horizon := 3000 * Microsecond
	fast, _ := residencyChurnRun(t, false, true, 256<<10, horizon)
	exact, _ := residencyChurnRun(t, true, true, 256<<10, horizon)
	if len(fast) == 0 {
		t.Fatal("no slices recorded")
	}
	if !reflect.DeepEqual(fast, exact) {
		t.Fatal("isolated-stream records diverged between fast and exact residency paths")
	}
}

// A channel retired by source exhaustion keeps its L2 footprint, which other
// channels' streaming keeps eroding — ghost residency still exerts capacity
// pressure. The lazily caught-up ghost value must match the eager sweep's bit
// for bit, and must still be non-zero when inspected (otherwise the assertion
// is vacuous).
func TestGhostResidencyDecaysIdentically(t *testing.T) {
	run := func(exact bool) float64 {
		cfg := testConfig().ScaledTime(0.001)
		cfg.ExactResidencyTotal = exact
		eng, err := NewEngine(cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		eng.AddChannel(1, &RepeatSource{Kernel: residencyKernel("live", 256<<10, cfg)})
		eng.AddChannel(2, repeated(residencyKernel("ghost", 256<<10, cfg), 2))
		eng.Run(60 * cfg.SliceQuantum)
		var ghost *channel
		for _, ch := range eng.channels {
			if ch.ctx == 2 {
				ghost = ch
			}
		}
		if ghost == nil || !ghost.done {
			t.Fatal("ghost channel did not retire")
		}
		eng.catchUpL2(ghost)
		return ghost.resident
	}
	gf, ge := run(false), run(true)
	if gf != ge {
		t.Fatalf("ghost residency diverged: fast %v, exact %v", gf, ge)
	}
	if ge == 0 {
		t.Fatal("ghost residency fully decayed before inspection; shorten the horizon")
	}
}

// Under capacity pressure the fast path's running total accumulates rounding
// differently from the eager sweep's fresh summation, so traces may diverge —
// but only boundedly: the same workload must produce near-identical slice
// counts, refetch volume, and busy time. (At the evaluation's tiny scale the
// rescale never fires, so the golden-hash pin holds bit-exactly on the fast
// path; see eval's TestExactResidencyTotalMatchesFastPath.)
func TestFastResidencyBoundedDivergenceUnderPressure(t *testing.T) {
	horizon := 4000 * Microsecond
	fast, engF := residencyChurnRun(t, false, false, 2<<20, horizon)
	exact, engE := residencyChurnRun(t, true, false, 2<<20, horizon)

	relErr := func(a, b float64) float64 {
		if b == 0 {
			return math.Abs(a)
		}
		return math.Abs(a-b) / math.Abs(b)
	}
	if r := relErr(float64(len(fast)), float64(len(exact))); r > 0.02 {
		t.Fatalf("slice counts diverged beyond 2%%: fast %d, exact %d", len(fast), len(exact))
	}
	sumRefetch := func(recs []SliceRecord) float64 {
		var s float64
		for _, r := range recs {
			s += r.RefetchBytes
		}
		return s
	}
	if r := relErr(sumRefetch(fast), sumRefetch(exact)); r > 0.02 {
		t.Fatalf("cumulative refetch diverged beyond 2%%: fast %v, exact %v", sumRefetch(fast), sumRefetch(exact))
	}
	busyOf := func(recs []SliceRecord, cfg DeviceConfig) map[ContextID]Nanos {
		busy := make(map[ContextID]Nanos)
		for i := range recs {
			busy[recs[i].Ctx] += sliceBusy(&recs[i], cfg)
		}
		return busy
	}
	busyF, busyE := busyOf(fast, engF.cfg), busyOf(exact, engE.cfg)
	for _, ctx := range []ContextID{1, 2, 3} {
		if r := relErr(float64(busyF[ctx]), float64(busyE[ctx])); r > 0.02 {
			t.Fatalf("ctx %d busy time diverged beyond 2%%: fast %v, exact %v",
				ctx, busyF[ctx], busyE[ctx])
		}
	}
}

// The fast path's running residency total must stay consistent with the sum
// of the per-channel values it summarizes (each caught up through the log),
// including the ghost contributions of retired channels.
func TestTotalResidencyConsistentWithChannels(t *testing.T) {
	_, eng := residencyChurnRun(t, false, false, 256<<10, 3000*Microsecond)
	var sum float64
	for _, ch := range eng.channels {
		eng.catchUpL2(ch)
		sum += ch.resident
	}
	if diff := math.Abs(sum - eng.totalResident); diff > 1e-6*(1+sum) {
		t.Fatalf("running total drifted from channel sum: total %v, sum %v", eng.totalResident, sum)
	}
}

// InvalidateResidency must zero the lazily tracked state: stored values,
// epochs fast-forwarded past the pending log, and the running total shedding
// exactly the flushed contribution.
func TestInvalidateResidencyWithLazyLog(t *testing.T) {
	cfg := testConfig().ScaledTime(0.001)
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	eng.AddChannel(1, &RepeatSource{Kernel: residencyKernel("a", 256<<10, cfg)})
	eng.AddChannel(2, &RepeatSource{Kernel: residencyKernel("b", 256<<10, cfg)})
	eng.Run(40 * cfg.SliceQuantum)

	eng.InvalidateResidency(2)
	end := eng.l2Base + len(eng.l2Log)
	for _, ch := range eng.channels {
		if ch.ctx != 2 {
			continue
		}
		if ch.resident != 0 || ch.texResident != 0 {
			t.Fatalf("invalidated channel kept residency: l2 %v, tex %v", ch.resident, ch.texResident)
		}
		if ch.l2Epoch != end {
			t.Fatalf("invalidated channel epoch %d not fast-forwarded to log end %d", ch.l2Epoch, end)
		}
	}
	var sum float64
	for _, ch := range eng.channels {
		eng.catchUpL2(ch)
		sum += ch.resident
	}
	if diff := math.Abs(sum - eng.totalResident); diff > 1e-6*(1+sum) {
		t.Fatalf("running total inconsistent after invalidation: total %v, sum %v", eng.totalResident, sum)
	}
}

// Retired channels must leave the scheduling ring: DetachContext compacts it
// immediately, source exhaustion unlinks in place, and pass-slot accounting
// resets against the live count — not every channel ever attached — so the
// runlist pass does not stretch as churn retires channels.
func TestPassSlotResetCountsLiveChannels(t *testing.T) {
	cfg := testConfig()
	cfg.RunlistSlotsPerCtx = 1
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	k := fullKernel("k", cfg.SliceQuantum, cfg)
	eng.AddChannel(1, &RepeatSource{Kernel: k})
	eng.AddChannel(2, &RepeatSource{Kernel: k})
	eng.AddChannel(3, &RepeatSource{Kernel: k})
	if got := len(eng.live); got != 3 {
		t.Fatalf("live ring has %d channels, want 3", got)
	}

	eng.DetachContext(3)
	if got := len(eng.live); got != 2 {
		t.Fatalf("live ring has %d channels after detach, want 2", got)
	}
	if got := len(eng.channels); got != 3 {
		t.Fatalf("attach-order list has %d channels, want 3 (ghosts must stay)", got)
	}

	// Two grants now complete a full pass over the two live channels. With
	// the historical accounting (reset against len(channels) == 3) the pass
	// would run long and leave the slot counters armed.
	eng.notePassSlot(1)
	eng.notePassSlot(2)
	if eng.passCount != 0 {
		t.Fatalf("pass accounting still counts retired channels: passCount=%d after a full live pass", eng.passCount)
	}
	if eng.passServed[1] != 0 || eng.passServed[2] != 0 {
		t.Fatalf("slot counters not reset at pass end: served=%v", eng.passServed)
	}
}

// Source exhaustion must unlink the channel from the ring during the pick
// scan, and the engine must keep scheduling the survivors.
func TestSourceExhaustionShrinksLiveRing(t *testing.T) {
	cfg := testConfig().ScaledTime(0.001)
	eng, err := NewEngine(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	busy := meterBusy(eng)
	k := fullKernel("k", cfg.SliceQuantum, cfg)
	eng.AddChannel(1, &RepeatSource{Kernel: k})
	eng.AddChannel(2, repeated(k, 2))
	eng.Run(40 * cfg.SliceQuantum)
	if got := len(eng.live); got != 1 {
		t.Fatalf("live ring has %d channels after exhaustion, want 1", got)
	}
	if eng.cursor >= len(eng.live) {
		t.Fatalf("cursor %d out of range for live ring of %d", eng.cursor, len(eng.live))
	}
	if busy[1] == 0 {
		t.Fatal("surviving channel stopped receiving grants")
	}
}
