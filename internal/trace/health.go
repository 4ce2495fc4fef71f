package trace

import (
	"fmt"
	"sort"
	"strings"

	"leakydnn/internal/chaos"
	"leakydnn/internal/wire"
)

// Health is the accounting-first degradation report of one co-run: what the
// clean sampler emitted, what survived fault injection (per cause), and how
// the surviving samples cover the victim's training iterations. It extends
// the SpyChannelsRejected pattern into a full report, so a consumer of a
// partial trace can reconcile processed + quarantined against the trace
// total instead of silently mis-extracting.
type Health struct {
	// SamplesEmitted is the clean sampler output; SamplesDelivered is what
	// the trace carries after fault injection. On a clean run they agree.
	SamplesEmitted   int
	SamplesDelivered int

	// Faults is the injector's per-cause accounting (zero on clean runs).
	Faults chaos.Stats

	// Sched is the scheduler-fault accounting (zero on runs without a
	// SchedPlan): driver resets injected and survived, victim stall count and
	// summed stall time, applied tenant churn, and sample windows lost while
	// the spy's context was down. Its SamplesLostToRecovery participates in
	// the delivery identity alongside Faults' per-cause losses.
	Sched chaos.SchedStats
	// Reanchors counts the re-anchor markers the spy emitted (one per
	// survived driver reset); it mirrors len(Trace.Reanchors).
	Reanchors int

	// Device is the device-level fault accounting (zero on runs without
	// DeviceFaults): when the spy process was killed or its arming session
	// lost, and the sample windows that died with it. A device crash never produces a Health at all —
	// the collection returns a *chaos.DeviceCrashError instead.
	Device chaos.DeviceStats

	// SpyChannelsRejected mirrors Trace.SpyChannelsRejected: slow-down
	// channels refused by a hardened scheduler or lost to arming faults.
	SpyChannelsRejected int
	// SpyArmRetries counts chaos-injected arming failures the spy retried
	// through; SpyArmFailures counts channels abandoned entirely.
	SpyArmRetries  int
	SpyArmFailures int

	// Iteration coverage, measured against the ground-truth timeline:
	// IterationsTotal = IterationsProcessed + IterationsQuarantined always
	// holds. An iteration is quarantined when the surviving samples cannot
	// support inference on it (no dominant samples at all, or coverage
	// collapsed relative to the trace's median iteration).
	IterationsTotal       int
	IterationsProcessed   int
	IterationsQuarantined int
	// QuarantineCauses breaks the quarantined count down by cause
	// ("no-samples", "undersampled"); values sum to IterationsQuarantined.
	QuarantineCauses map[string]int
}

// Walk walks h in wire order: the fields in declaration order, recursing
// into Faults, Sched and Device. The trace header and the fleet device record
// both carry a Health this way.
func (h *Health) Walk(c *wire.Codec) {
	c.Int(&h.SamplesEmitted)
	c.Int(&h.SamplesDelivered)
	f := &h.Faults
	c.Int(&f.Truncated)
	c.Int(&f.PreemptionGaps)
	c.Int(&f.GapSamplesLost)
	c.Int(&f.Dropped)
	c.Int(&f.Duplicated)
	c.Int(&f.Jittered)
	c.Int(&f.Saturated)
	c.Float(&f.ClockSkew)
	c.Int(&f.ArmAttempts)
	c.Int(&f.ArmRetries)
	c.Int(&f.ArmFailures)
	s := &h.Sched
	c.Int(&s.ResetsInjected)
	c.Int(&s.ResetsSurvived)
	c.Int(&s.StallsInjected)
	c.Int64((*int64)(&s.StallTime))
	c.Int(&s.TenantsJoined)
	c.Int(&s.TenantsLeft)
	c.Int(&s.SamplesLostToRecovery)
	c.Int(&h.Reanchors)
	d := &h.Device
	c.Int64((*int64)(&d.SpyKilledAt))
	c.Int(&d.SamplesLostToSpyKill)
	c.Int64((*int64)(&d.ArmSessionLostAt))
	c.Int(&d.SamplesLostToArmLoss)
	c.Int(&h.SpyChannelsRejected)
	c.Int(&h.SpyArmRetries)
	c.Int(&h.SpyArmFailures)
	c.Int(&h.IterationsTotal)
	c.Int(&h.IterationsProcessed)
	c.Int(&h.IterationsQuarantined)
	wire.Map(c, &h.QuarantineCauses, "causes")
}

// quarantineCoverageFrac is the coverage collapse threshold: an iteration
// whose dominant-sample count falls below this fraction of the median
// iteration's is quarantined as "undersampled".
const quarantineCoverageFrac = 0.25

// computeIterationHealth fills the iteration-coverage section of h from the
// trace's sample/timeline alignment. totalIterations is the number the
// victim actually ran (the session configuration), which can exceed what the
// damaged samples still show.
func (t *Trace) computeIterationHealth(h *Health, totalIterations int) {
	h.IterationsTotal = totalIterations
	h.QuarantineCauses = map[string]int{}
	counts := t.SamplesPerIteration()

	covered := make([]int, 0, len(counts))
	for iter, n := range counts {
		if iter >= 0 && n > 0 {
			covered = append(covered, n)
		}
	}
	sort.Ints(covered)
	var median int
	if len(covered) > 0 {
		median = covered[len(covered)/2]
	}

	for iter := 0; iter < totalIterations; iter++ {
		n := counts[iter]
		switch {
		case n == 0:
			h.QuarantineCauses["no-samples"]++
		case float64(n) < quarantineCoverageFrac*float64(median):
			h.QuarantineCauses["undersampled"]++
		default:
			h.IterationsProcessed++
		}
	}
	for _, n := range h.QuarantineCauses {
		h.IterationsQuarantined += n
	}
}

// Summary renders the report as one line for CLI output and logs.
func (h *Health) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "samples %d/%d delivered", h.SamplesDelivered, h.SamplesEmitted)
	f := h.Faults
	if lost := f.Truncated + f.GapSamplesLost + f.Dropped; lost > 0 || f.Duplicated > 0 {
		fmt.Fprintf(&b, " (%d dropped, %d lost to %d preemption gaps, %d truncated, %d duplicated)",
			f.Dropped, f.GapSamplesLost, f.PreemptionGaps, f.Truncated, f.Duplicated)
	}
	if f.Jittered > 0 || f.Saturated > 0 {
		fmt.Fprintf(&b, ", %d jittered, %d saturated", f.Jittered, f.Saturated)
	}
	if f.ClockSkew != 0 {
		fmt.Fprintf(&b, ", clock skew %.1f%%", f.ClockSkew*100)
	}
	if s := h.Sched; s != (chaos.SchedStats{}) {
		fmt.Fprintf(&b, "; sched faults: %d/%d resets survived, %d stalls (%v), %d joins + %d leaves, %d samples lost to recovery",
			s.ResetsSurvived, s.ResetsInjected, s.StallsInjected, s.StallTime,
			s.TenantsJoined, s.TenantsLeft, s.SamplesLostToRecovery)
	}
	if d := h.Device; d != (chaos.DeviceStats{}) {
		fmt.Fprintf(&b, "; device faults:")
		if d.SpyKilledAt > 0 {
			fmt.Fprintf(&b, " spy killed at %v (%d windows lost)", d.SpyKilledAt, d.SamplesLostToSpyKill)
		}
		if d.ArmSessionLostAt > 0 {
			fmt.Fprintf(&b, " arm session lost at %v (%d windows lost)", d.ArmSessionLostAt, d.SamplesLostToArmLoss)
		}
	}
	fmt.Fprintf(&b, "; spy channels rejected %d", h.SpyChannelsRejected)
	if h.SpyArmRetries > 0 || h.SpyArmFailures > 0 {
		fmt.Fprintf(&b, " (arm retries %d, arm failures %d)", h.SpyArmRetries, h.SpyArmFailures)
	}
	fmt.Fprintf(&b, "; iterations %d processed + %d quarantined = %d total",
		h.IterationsProcessed, h.IterationsQuarantined, h.IterationsTotal)
	if len(h.QuarantineCauses) > 0 {
		causes := make([]string, 0, len(h.QuarantineCauses))
		for c := range h.QuarantineCauses {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		parts := make([]string, len(causes))
		for i, c := range causes {
			parts[i] = fmt.Sprintf("%s %d", c, h.QuarantineCauses[c])
		}
		fmt.Fprintf(&b, " [%s]", strings.Join(parts, ", "))
	}
	return b.String()
}
