package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"leakydnn/internal/gpu"
)

// SchedPlan is the scheduling-side fault plan: where Plan perturbs what the
// spy *measures*, SchedPlan perturbs the machinery the side channel rides on.
// Victim stalls insert host idle gaps between victim iterations, driver
// resets tear the spy's context down mid-run (channels detached, residency
// flushed, in-flight slice lost), and co-tenant churn lets background tenants
// join and leave at seeded times instead of running forever. The zero plan
// injects nothing and leaves a collection byte-identical to a clean run.
type SchedPlan struct {
	// Seed drives all scheduling-fault randomness. Zero derives the seed
	// from the co-run's seed via a key distinct from the measurement
	// injector's, so the two fault streams never alias.
	Seed int64

	// StallRate is the per-iteration probability that the victim's host
	// input pipeline stalls before that iteration starts (a slow dataloader,
	// a checkpoint write), inserting an idle gap between victim kernels.
	StallRate float64
	// StallFrac sizes each stall as a fraction of one iteration's
	// exclusive-device time; the drawn stall is uniform in
	// [0.5, 1.5] x StallFrac x iteration duration, keeping the plan
	// scale-free across platforms.
	StallFrac float64

	// Resets is the number of driver resets injected per run: at each
	// seeded time the engine tears down the spy's context. The spy's
	// watchdog must notice the outage and re-arm, losing every sample
	// window the outage overlaps.
	Resets int

	// TenantJoins is the number of background tenants that join mid-run at
	// seeded times (cycling over RunConfig.BackgroundTenants, or cloning
	// the victim's model when no roster is configured).
	TenantJoins int
	// TenantLeaves is the number of initially attached background tenants
	// that leave mid-run at seeded times; leaves beyond the configured
	// roster are dropped.
	TenantLeaves int
}

// IsZero reports whether the plan injects nothing.
func (p SchedPlan) IsZero() bool {
	return p == SchedPlan{}
}

// schedEventCap bounds per-class event counts so a hostile plan cannot make
// a run spend its whole horizon tearing contexts down.
const schedEventCap = 64

// Validate reports configuration errors.
func (p SchedPlan) Validate() error {
	if p.StallRate < 0 || p.StallRate > 1 {
		return fmt.Errorf("chaos: StallRate must be in [0, 1], got %v", p.StallRate)
	}
	if p.StallFrac < 0 || p.StallFrac > 16 {
		return fmt.Errorf("chaos: StallFrac must be in [0, 16], got %v", p.StallFrac)
	}
	if (p.StallRate == 0) != (p.StallFrac == 0) {
		// StallBefore needs both; one alone would inject nothing yet still
		// make a non-zero plan with its own fleet key.
		return fmt.Errorf("chaos: StallRate and StallFrac must be set together, got %v and %v", p.StallRate, p.StallFrac)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Resets", p.Resets},
		{"TenantJoins", p.TenantJoins},
		{"TenantLeaves", p.TenantLeaves},
	} {
		if c.v < 0 || c.v > schedEventCap {
			return fmt.Errorf("chaos: %s must be in [0, %d], got %d", c.name, schedEventCap, c.v)
		}
	}
	return nil
}

// SchedAt returns the canonical scheduler-fault mix at the given intensity in
// [0, 1]: stalls ramp linearly, and the discrete event counts step up so any
// intensity >= 0.25 injects at least one driver reset. SchedAt(0) is the zero
// plan.
func SchedAt(intensity float64) SchedPlan {
	if intensity <= 0 {
		return SchedPlan{}
	}
	if intensity > 1 {
		intensity = 1
	}
	return SchedPlan{
		StallRate:    0.35 * intensity,
		StallFrac:    2.0 * intensity,
		Resets:       int(math.Ceil(2 * intensity)),
		TenantJoins:  int(math.Round(2 * intensity)),
		TenantLeaves: int(math.Round(intensity)),
	}
}

// SchedStats is the scheduler-fault accounting of one co-run. Every injected
// perturbation is counted at the moment it is applied, so a consumer can
// reconcile a degraded trace against the clean schedule.
type SchedStats struct {
	// ResetsInjected counts driver resets applied to the spy's context;
	// ResetsSurvived counts those the spy's watchdog recovered from by
	// re-arming its channels. Unrecovered resets leave the spy dead for the
	// rest of the run.
	ResetsInjected int
	ResetsSurvived int

	// StallsInjected counts victim input-pipeline stalls; StallTime is
	// their summed simulated duration.
	StallsInjected int
	StallTime      gpu.Nanos

	// TenantsJoined and TenantsLeft count applied churn events.
	TenantsJoined int
	TenantsLeft   int

	// SamplesLostToRecovery counts CUPTI windows discarded because they
	// overlapped a reset outage (between context teardown and the re-armed
	// channels' first launch).
	SamplesLostToRecovery int
}

// ChurnEvents returns the total applied tenant churn.
func (s SchedStats) ChurnEvents() int { return s.TenantsJoined + s.TenantsLeft }

// SchedEventKind distinguishes scheduled fault events.
type SchedEventKind int

// The scheduler-fault event kinds.
const (
	SchedReset SchedEventKind = iota + 1
	SchedTenantJoin
	SchedTenantLeave
	SchedDeviceCrash
	SchedSpyKill
	SchedArmLoss
)

// String names the event kind.
func (k SchedEventKind) String() string {
	switch k {
	case SchedReset:
		return "reset"
	case SchedTenantJoin:
		return "tenant-join"
	case SchedTenantLeave:
		return "tenant-leave"
	case SchedDeviceCrash:
		return "device-crash"
	case SchedSpyKill:
		return "spy-kill"
	case SchedArmLoss:
		return "arm-loss"
	}
	return fmt.Sprintf("chaos.SchedEventKind(%d)", int(k))
}

// SchedEvent is one scheduled fault: Kind fires when simulated time reaches
// At.
type SchedEvent struct {
	At   gpu.Nanos
	Kind SchedEventKind
}

// SchedInjector applies one SchedPlan with one private RNG stream, separate
// from both the engine's scheduling RNG and the measurement injector's fault
// stream. It is not safe for concurrent use; each co-run owns its own.
type SchedInjector struct {
	plan  SchedPlan
	rng   *rand.Rand
	stats SchedStats
}

// NewSchedInjector validates the plan and seeds the injector. fallbackSeed is
// used when the plan does not pin its own seed, keyed differently from the
// measurement injector so the two streams never alias for the same co-run.
func NewSchedInjector(plan SchedPlan, fallbackSeed int64) (*SchedInjector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	seed := plan.Seed
	if seed == 0 {
		seed = fallbackSeed ^ 0x5c4e_d01e_ca05_1234
	}
	return &SchedInjector{plan: plan, rng: rand.New(rand.NewSource(seed))}, nil
}

// Stats returns the accounting so far.
func (si *SchedInjector) Stats() SchedStats { return si.stats }

// Schedule draws the plan's fault times over the estimated run [start, end)
// and returns them sorted. Times land in the middle 10%-90% of the run so an
// event never degenerates into a before-start or after-finish no-op. Call it
// once, before any StallBefore draw, so the event times are a fixed prefix of
// the injector's RNG stream.
func (si *SchedInjector) Schedule(start, end gpu.Nanos) []SchedEvent {
	if end <= start {
		end = start + 1
	}
	span := float64(end - start)
	draw := func(kind SchedEventKind, n int) []SchedEvent {
		out := make([]SchedEvent, 0, n)
		for i := 0; i < n; i++ {
			frac := 0.1 + 0.8*si.rng.Float64()
			out = append(out, SchedEvent{At: start + gpu.Nanos(frac*span), Kind: kind})
		}
		return out
	}
	var events []SchedEvent
	events = append(events, draw(SchedReset, si.plan.Resets)...)
	events = append(events, draw(SchedTenantJoin, si.plan.TenantJoins)...)
	events = append(events, draw(SchedTenantLeave, si.plan.TenantLeaves)...)
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Kind < events[j].Kind
	})
	return events
}

// StallBefore draws whether the victim's next iteration is preceded by a host
// input-pipeline stall, and its length. iterDur is one iteration's
// exclusive-device time (the scale anchor). A zero-rate plan consumes no RNG
// draws, so enabling stalls never perturbs other fault classes' streams.
func (si *SchedInjector) StallBefore(iterDur gpu.Nanos) gpu.Nanos {
	if si.plan.StallRate <= 0 || si.plan.StallFrac <= 0 {
		return 0
	}
	if si.rng.Float64() >= si.plan.StallRate {
		return 0
	}
	d := gpu.Nanos(si.plan.StallFrac * float64(iterDur) * (0.5 + si.rng.Float64()))
	if d < 1 {
		d = 1
	}
	si.stats.StallsInjected++
	si.stats.StallTime += d
	return d
}

// NoteReset counts one applied driver reset.
func (si *SchedInjector) NoteReset() { si.stats.ResetsInjected++ }

// NoteResetSurvived counts one reset the spy recovered from.
func (si *SchedInjector) NoteResetSurvived() { si.stats.ResetsSurvived++ }

// NoteTenantJoined counts one applied tenant join.
func (si *SchedInjector) NoteTenantJoined() { si.stats.TenantsJoined++ }

// NoteTenantLeft counts one applied tenant leave.
func (si *SchedInjector) NoteTenantLeft() { si.stats.TenantsLeft++ }

// NoteSamplesLost counts sample windows discarded during reset recovery.
func (si *SchedInjector) NoteSamplesLost(n int) { si.stats.SamplesLostToRecovery += n }
