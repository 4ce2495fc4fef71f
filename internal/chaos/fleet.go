package chaos

import (
	"fmt"

	"leakydnn/internal/gpu"
)

// DeviceFaults is the device-level fault plan for one co-run attempt: where
// Plan perturbs what the spy measures and SchedPlan perturbs the scheduler
// under it, DeviceFaults kills whole processes. A device crash aborts the
// collection outright (the host rebooted mid-campaign); a spy kill removes
// the measuring process while the victim keeps training (OOM killer took the
// profiler); an arming-session loss invalidates the CUPTI session so no
// further windows materialize even though the spy's kernels keep running.
// Fault times are placed deterministically as fractions of the estimated
// clean run, so a given DeviceFaults value always kills at the same simulated
// instant — crash-retry tests depend on that. The zero value injects nothing.
type DeviceFaults struct {
	// CrashFrac places a whole-device crash at this fraction of the
	// estimated clean run length. Zero disables; the collection returns a
	// *DeviceCrashError carrying the crash time.
	CrashFrac float64
	// SpyKillFrac kills the spy process at this fraction of the run: its
	// contexts detach and every later sample window is lost, but the victim
	// runs to completion (the trace is honest about the missing tail).
	SpyKillFrac float64
	// ArmLossFrac invalidates the spy's CUPTI arming session at this
	// fraction of the run: kernels keep timesharing the device but no
	// counter windows materialize after the loss.
	ArmLossFrac float64
}

// IsZero reports whether the faults inject nothing.
func (d DeviceFaults) IsZero() bool {
	return d == DeviceFaults{}
}

// Validate reports configuration errors.
func (d DeviceFaults) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CrashFrac", d.CrashFrac},
		{"SpyKillFrac", d.SpyKillFrac},
		{"ArmLossFrac", d.ArmLossFrac},
	} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("chaos: %s must be in [0, 1), got %v", r.name, r.v)
		}
	}
	return nil
}

// Events converts the fault plan into scheduled events over the estimated
// clean run [start, end). Placement is purely positional — no RNG is
// consumed — so device faults never perturb the measurement or scheduler
// fault streams. Events sort into the co-run's merged event list by time.
func (d DeviceFaults) Events(start, end gpu.Nanos) []SchedEvent {
	if end <= start {
		end = start + 1
	}
	span := float64(end - start)
	at := func(frac float64) gpu.Nanos {
		t := start + gpu.Nanos(frac*span)
		if t <= start {
			t = start + 1
		}
		return t
	}
	var events []SchedEvent
	if d.CrashFrac > 0 {
		events = append(events, SchedEvent{At: at(d.CrashFrac), Kind: SchedDeviceCrash})
	}
	if d.SpyKillFrac > 0 {
		events = append(events, SchedEvent{At: at(d.SpyKillFrac), Kind: SchedSpyKill})
	}
	if d.ArmLossFrac > 0 {
		events = append(events, SchedEvent{At: at(d.ArmLossFrac), Kind: SchedArmLoss})
	}
	return events
}

// DeviceCrashError is returned by a collection aborted by an injected device
// crash. The fleet supervisor matches it with errors.As and schedules a
// retry on a fresh seed stream.
type DeviceCrashError struct {
	// At is the simulated time the device died.
	At gpu.Nanos
}

// Error implements error.
func (e *DeviceCrashError) Error() string {
	return fmt.Sprintf("chaos: device crashed at t=%d", int64(e.At))
}

// DeviceStats is the device-fault accounting of one co-run, recorded in
// trace.Health so a degraded trace is honest about why its tail is missing.
type DeviceStats struct {
	// SpyKilledAt is the simulated time the spy process was killed, zero if
	// it survived. SamplesLostToSpyKill counts the windows discarded past it.
	SpyKilledAt          gpu.Nanos
	SamplesLostToSpyKill int
	// ArmSessionLostAt is the simulated time the CUPTI arming session was
	// invalidated, zero if it survived. SamplesLostToArmLoss counts the
	// windows discarded past it.
	ArmSessionLostAt     gpu.Nanos
	SamplesLostToArmLoss int
}

// FleetPlan assigns DeviceFaults across a fleet campaign: per (device,
// attempt) the plan decides deterministically whether that attempt crashes,
// loses its spy, or loses its arming session, and where in the run the fault
// lands. Faults fire only on attempts below FaultyAttempts, so a supervisor
// with bounded retries always converges — the retry that finally succeeds
// draws its data from its own keyed seed stream, never re-rolling the fault
// dice into the measurement. The zero plan injects nothing anywhere.
type FleetPlan struct {
	// CrashProb, SpyKillProb, ArmLossProb are per-device probabilities that
	// a faulty attempt suffers that fault class.
	CrashProb   float64
	SpyKillProb float64
	ArmLossProb float64
	// FaultyAttempts is how many initial attempts per device draw faults;
	// attempts >= FaultyAttempts run clean. Zero selects 1 (first attempt
	// may fault, first retry runs clean).
	FaultyAttempts int
}

// IsZero reports whether the plan injects nothing.
func (p FleetPlan) IsZero() bool {
	return p == FleetPlan{}
}

// Validate reports configuration errors.
func (p FleetPlan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"CrashProb", p.CrashProb},
		{"SpyKillProb", p.SpyKillProb},
		{"ArmLossProb", p.ArmLossProb},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: %s must be in [0, 1], got %v", r.name, r.v)
		}
	}
	if p.FaultyAttempts < 0 {
		return fmt.Errorf("chaos: FaultyAttempts must be >= 0, got %d", p.FaultyAttempts)
	}
	return nil
}

// FleetAt returns the canonical fleet-fault mix at the given intensity in
// [0, 1]: each kill class ramps linearly and only the first attempt faults,
// so a supervisor with >= 1 retry always completes the campaign. FleetAt(0)
// is the zero plan.
func FleetAt(intensity float64) FleetPlan {
	if intensity <= 0 {
		return FleetPlan{}
	}
	if intensity > 1 {
		intensity = 1
	}
	return FleetPlan{
		CrashProb:      0.30 * intensity,
		SpyKillProb:    0.20 * intensity,
		ArmLossProb:    0.20 * intensity,
		FaultyAttempts: 1,
	}
}

// fleetMix is a splitmix64-style mixer local to chaos (eval.DeriveSeed lives
// above chaos in the import graph). Each (device, attempt, class) tuple
// yields an independent uniform draw; changing any coordinate decorrelates
// the output completely, so one device's faults never depend on another's.
func fleetMix(device, attempt, class uint64) uint64 {
	z := device*0x9e3779b97f4a7c15 ^ attempt*0xbf58476d1ce4e5b9 ^ class*0x94d049bb133111eb
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fleetU01 maps a mixed word to a uniform float64 in [0, 1).
func fleetU01(w uint64) float64 {
	return float64(w>>11) / (1 << 53)
}

// FaultsFor returns the fault plan for one (device, attempt) pair. Attempts
// at or beyond FaultyAttempts (default 1) are always clean. Fault classes
// draw independently; times land in the middle 25%-75% of the run so a kill
// is never a trivial before-start or after-finish no-op.
func (p FleetPlan) FaultsFor(device, attempt int) DeviceFaults {
	if p.IsZero() {
		return DeviceFaults{}
	}
	faulty := p.FaultyAttempts
	if faulty == 0 {
		faulty = 1
	}
	if attempt >= faulty {
		return DeviceFaults{}
	}
	var faults DeviceFaults
	d, a := uint64(device), uint64(attempt)
	frac := func(class uint64) float64 {
		return 0.25 + 0.5*fleetU01(fleetMix(d, a, class|0x100))
	}
	if p.CrashProb > 0 && fleetU01(fleetMix(d, a, 1)) < p.CrashProb {
		faults.CrashFrac = frac(1)
	}
	if p.SpyKillProb > 0 && fleetU01(fleetMix(d, a, 2)) < p.SpyKillProb {
		faults.SpyKillFrac = frac(2)
	}
	if p.ArmLossProb > 0 && fleetU01(fleetMix(d, a, 3)) < p.ArmLossProb {
		faults.ArmLossFrac = frac(3)
	}
	return faults
}
