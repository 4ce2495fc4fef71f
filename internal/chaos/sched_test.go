package chaos

import (
	"reflect"
	"sort"
	"testing"

	"leakydnn/internal/gpu"
)

func TestSchedZeroPlan(t *testing.T) {
	if !(SchedPlan{}).IsZero() {
		t.Fatal("zero SchedPlan not recognized")
	}
	if (SchedPlan{Resets: 1}).IsZero() {
		t.Fatal("non-zero SchedPlan reported zero")
	}
	if !SchedAt(0).IsZero() {
		t.Fatal("SchedAt(0) is not the zero plan")
	}
	p := SchedAt(0.25)
	if p.Resets < 1 {
		t.Fatalf("SchedAt(0.25) injects no reset: %+v", p)
	}
	if err := SchedAt(1).Validate(); err != nil {
		t.Fatalf("SchedAt(1) invalid: %v", err)
	}
	// A plan with a zero Sched side must not dirty the composite plan's
	// measurement-only zero check, and vice versa.
	comp := Plan{Sched: SchedPlan{Resets: 1}}
	if !comp.MeasurementIsZero() {
		t.Fatal("sched-only plan reported measurement faults")
	}
	if comp.IsZero() {
		t.Fatal("sched-only plan reported fully zero")
	}
}

func TestSchedPlanValidate(t *testing.T) {
	bad := []SchedPlan{
		{StallRate: -0.1},
		{StallRate: 1.1},
		{StallFrac: -1},
		{StallFrac: 17},
		{StallRate: 0.5}, // a rate without a length stalls nothing
		{StallFrac: 1},   // a length without a rate stalls nothing
		{Resets: -1},
		{Resets: schedEventCap + 1},
		{TenantJoins: -2},
		{TenantLeaves: 1000},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("invalid plan accepted: %+v", p)
		}
		if _, err := NewSchedInjector(p, 1); err == nil {
			t.Fatalf("injector accepted invalid plan: %+v", p)
		}
	}
}

func TestSchedScheduleDrawsSortedInteriorEvents(t *testing.T) {
	plan := SchedPlan{Resets: 3, TenantJoins: 2, TenantLeaves: 2}
	si, err := NewSchedInjector(plan, 5)
	if err != nil {
		t.Fatal(err)
	}
	start, end := gpu.Nanos(1000), gpu.Nanos(101000)
	events := si.Schedule(start, end)
	if len(events) != 7 {
		t.Fatalf("drew %d events, want 7", len(events))
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].At < events[j].At }) {
		t.Fatalf("events not time-sorted: %+v", events)
	}
	span := end - start
	for _, ev := range events {
		lo := start + span/10
		hi := start + span*9/10 + 1
		if ev.At < lo || ev.At > hi {
			t.Fatalf("event %v outside the interior [%v, %v] of the run", ev, lo, hi)
		}
		if ev.Kind.String() == "" || ev.Kind < SchedReset || ev.Kind > SchedTenantLeave {
			t.Fatalf("event has bad kind: %+v", ev)
		}
	}
	counts := map[SchedEventKind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	if counts[SchedReset] != 3 || counts[SchedTenantJoin] != 2 || counts[SchedTenantLeave] != 2 {
		t.Fatalf("event mix wrong: %v", counts)
	}
}

func TestSchedInjectorDeterministic(t *testing.T) {
	plan := SchedPlan{StallRate: 0.5, StallFrac: 1, Resets: 2, TenantJoins: 1}
	run := func() ([]SchedEvent, []gpu.Nanos) {
		si, err := NewSchedInjector(plan, 42)
		if err != nil {
			t.Fatal(err)
		}
		events := si.Schedule(0, gpu.Second)
		var stalls []gpu.Nanos
		for i := 0; i < 32; i++ {
			stalls = append(stalls, si.StallBefore(gpu.Millisecond))
		}
		return events, stalls
	}
	e1, s1 := run()
	e2, s2 := run()
	if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("sched injector is not deterministic for a fixed seed")
	}
	// A pinned plan seed must override the fallback.
	pinned := plan
	pinned.Seed = 7
	a, _ := NewSchedInjector(pinned, 42)
	b, _ := NewSchedInjector(pinned, 1000)
	if !reflect.DeepEqual(a.Schedule(0, gpu.Second), b.Schedule(0, gpu.Second)) {
		t.Fatal("pinned plan seed did not decouple the stream from the fallback seed")
	}
}

// StallBefore must consume no RNG draws when stalls are disabled, so enabling
// resets alone cannot shift the event-time stream between runs that differ
// only in the stall knobs... and stall accounting must match what was drawn.
func TestSchedStallStreamIndependence(t *testing.T) {
	si, err := NewSchedInjector(SchedPlan{Resets: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	before := si.Schedule(0, gpu.Second)
	for i := 0; i < 100; i++ {
		if d := si.StallBefore(gpu.Millisecond); d != 0 {
			t.Fatal("zero-rate plan drew a stall")
		}
	}
	if s := si.Stats(); s.StallsInjected != 0 || s.StallTime != 0 {
		t.Fatalf("zero-rate plan accumulated stall stats: %+v", s)
	}
	// Re-seeded injector draws the same schedule: the no-op stalls consumed
	// nothing from the stream.
	si2, _ := NewSchedInjector(SchedPlan{Resets: 1}, 9)
	if !reflect.DeepEqual(before, si2.Schedule(0, gpu.Second)) {
		t.Fatal("schedule changed, stall no-ops consumed RNG draws")
	}

	stalled, _ := NewSchedInjector(SchedPlan{StallRate: 1, StallFrac: 0.5}, 9)
	var total gpu.Nanos
	n := 0
	for i := 0; i < 50; i++ {
		d := stalled.StallBefore(gpu.Millisecond)
		if d <= 0 {
			t.Fatal("rate-1 plan skipped a stall")
		}
		lo := gpu.Nanos(0.25 * float64(gpu.Millisecond))
		hi := gpu.Nanos(0.75 * float64(gpu.Millisecond))
		if d < lo || d > hi {
			t.Fatalf("stall %v outside [%v, %v]", d, lo, hi)
		}
		total += d
		n++
	}
	if s := stalled.Stats(); s.StallsInjected != n || s.StallTime != total {
		t.Fatalf("stall accounting mismatch: %+v vs %d/%v", s, n, total)
	}
}

func TestSchedStatsNotes(t *testing.T) {
	si, err := NewSchedInjector(SchedPlan{Resets: 2, TenantJoins: 1, TenantLeaves: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	si.NoteReset()
	si.NoteReset()
	si.NoteResetSurvived()
	si.NoteTenantJoined()
	si.NoteTenantLeft()
	si.NoteSamplesLost(5)
	si.NoteSamplesLost(2)
	want := SchedStats{
		ResetsInjected: 2, ResetsSurvived: 1,
		TenantsJoined: 1, TenantsLeft: 1,
		SamplesLostToRecovery: 7,
	}
	if got := si.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if si.Stats().ChurnEvents() != 2 {
		t.Fatalf("churn events = %d, want 2", si.Stats().ChurnEvents())
	}
}
