// Package chaos is the measurement-path fault injector. The paper's channel
// is intrinsically noisy — CUPTI samples are lost when the spy is preempted,
// counters jitter and saturate under co-located work, sample and timeline
// clocks drift apart, and traces truncate when a run is killed early — but
// the simulator's clean scheduler produces pristine traces. A chaos.Plan
// re-introduces those faults deterministically (seeded, independent of the
// engine's RNG stream) at the pipeline's natural seams: the spy's channel
// arming, the CUPTI sample stream, and the sample/timeline clock relation.
// Downstream consumers (trace validation, attack.Split/Extract) must degrade
// gracefully instead of silently mis-extracting, and every injected fault is
// counted so partial traces yield partial-but-honest recoveries.
package chaos

import (
	"fmt"
	"math/rand"

	"leakydnn/internal/cupti"
	"leakydnn/internal/gpu"
)

// Plan configures the injector. The zero value disables every fault: with an
// IsZero plan no injector is built, no RNG is seeded, and the measurement
// path is bit-for-bit the clean one.
type Plan struct {
	// Seed drives all fault randomness. Zero derives the seed from the
	// co-run's seed, so distinct co-runs fault differently but reproducibly.
	Seed int64

	// DropRate is the per-sample probability that a CUPTI reading is lost
	// (the spy's host thread missed its polling deadline).
	DropRate float64
	// DupRate is the per-sample probability that a reading is delivered
	// twice (a stale buffer read re-returning the previous window).
	DupRate float64
	// JitterFrac bounds multiplicative counter jitter: each counter value is
	// scaled by a uniform factor in [1-JitterFrac, 1+JitterFrac].
	JitterFrac float64
	// SaturateFrac clips counter values: per event, values above
	// (1-SaturateFrac) times the trace-wide maximum are clamped to that cap,
	// modelling counter saturation under bursty co-located traffic.
	SaturateFrac float64

	// ArmFailRate is the per-attempt probability that arming a spy channel
	// fails (cudaErrorLaunchFailure on channel creation). The spy retries
	// with capped backoff; mandatory channels that exhaust every retry fail
	// the co-run, optional (slow-down) channels are abandoned and counted.
	ArmFailRate float64
	// ArmMaxRetries caps retries per optional channel (0 selects 4).
	ArmMaxRetries int

	// PreemptGapRate is the per-sample probability that a preemption gap
	// opens at that sample: the spy loses PreemptGapLen consecutive sampling
	// windows (it was switched out and no counters were read).
	PreemptGapRate float64
	// PreemptGapLen is the number of windows lost per gap (0 selects 3).
	PreemptGapLen int

	// ClockSkewFrac stretches the sample clock relative to the victim's
	// timeline clock: sample timestamps drift by this fraction over the
	// trace, misaligning late samples with the ground-truth timeline.
	ClockSkewFrac float64
	// TruncateFrac discards this trailing fraction of the sample stream
	// (the co-run was killed before the victim finished).
	TruncateFrac float64

	// Sched perturbs the scheduling layer instead of the measurement path:
	// victim input-pipeline stalls, driver resets of the spy's context, and
	// co-tenant churn. See SchedPlan; its zero value injects nothing.
	Sched SchedPlan

	// Device injects process-level faults — whole-device crash, spy-process
	// kill, arming-session loss. See DeviceFaults; its zero value injects
	// nothing.
	Device DeviceFaults
}

// IsZero reports whether the plan injects nothing.
func (p Plan) IsZero() bool {
	return p == Plan{}
}

// MeasurementIsZero reports whether the measurement-path portion of the plan
// injects nothing (the scheduling-side SchedPlan and device-level
// DeviceFaults may still be active). With a measurement-zero plan no
// sample-stream injector is built at all, keeping the clean measurement path
// byte-identical.
func (p Plan) MeasurementIsZero() bool {
	p.Sched = SchedPlan{}
	p.Device = DeviceFaults{}
	return p == Plan{}
}

// Validate reports configuration errors.
func (p Plan) Validate() error {
	rates := []struct {
		name string
		v    float64
		max  float64
	}{
		{"DropRate", p.DropRate, 1},
		{"DupRate", p.DupRate, 1},
		{"JitterFrac", p.JitterFrac, 1},
		{"SaturateFrac", p.SaturateFrac, 1},
		// Arming retries forever at rate 1; keep a margin so mandatory
		// channels terminate.
		{"ArmFailRate", p.ArmFailRate, 0.95},
		{"PreemptGapRate", p.PreemptGapRate, 1},
		{"ClockSkewFrac", p.ClockSkewFrac, 1},
		{"TruncateFrac", p.TruncateFrac, 1},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > r.max {
			return fmt.Errorf("chaos: %s must be in [0, %v], got %v", r.name, r.max, r.v)
		}
	}
	if p.ArmMaxRetries < 0 {
		return fmt.Errorf("chaos: ArmMaxRetries must be >= 0, got %d", p.ArmMaxRetries)
	}
	if p.PreemptGapLen < 0 {
		return fmt.Errorf("chaos: PreemptGapLen must be >= 0, got %d", p.PreemptGapLen)
	}
	if err := p.Sched.Validate(); err != nil {
		return err
	}
	return p.Device.Validate()
}

// At returns the canonical fault mix at the given intensity in [0, 1]:
// every fault class ramps linearly from zero, so a sweep over intensities
// traces one accuracy-vs-noise curve through a representative fault blend.
// At(0) is the zero plan.
func At(intensity float64) Plan {
	if intensity <= 0 {
		return Plan{}
	}
	if intensity > 1 {
		intensity = 1
	}
	return Plan{
		DropRate:       0.20 * intensity,
		DupRate:        0.05 * intensity,
		JitterFrac:     0.25 * intensity,
		SaturateFrac:   0.10 * intensity,
		ArmFailRate:    0.40 * intensity,
		PreemptGapRate: 0.03 * intensity,
		PreemptGapLen:  3,
		ClockSkewFrac:  0.04 * intensity,
		TruncateFrac:   0.15 * intensity,
	}
}

// Stats is the injector's per-cause fault accounting. Every perturbation the
// injector applies is counted here, so a consumer can reconcile what it
// received against what the clean run would have delivered.
type Stats struct {
	// Sample-stream faults, in application order.
	Truncated      int // samples discarded from the tail
	PreemptionGaps int // gaps opened
	GapSamplesLost int // samples lost inside preemption gaps
	Dropped        int // individually dropped samples
	Duplicated     int // samples delivered twice
	Jittered       int // samples with at least one jittered counter
	Saturated      int // samples with at least one clipped counter
	// ClockSkew is the applied skew fraction (0 when no skew configured).
	ClockSkew float64

	// Channel-arming faults.
	ArmAttempts int // arming attempts, including retries
	ArmRetries  int // failed attempts that were retried
	ArmFailures int // channels abandoned after exhausting retries
}

// Injector applies one Plan with one private RNG stream. It is not safe for
// concurrent use; each co-run owns its own injector.
type Injector struct {
	plan  Plan
	rng   *rand.Rand
	stats Stats
}

// NewInjector validates the plan and seeds the injector. fallbackSeed is
// used when the plan does not pin its own seed, keyed so the fault stream
// never aliases the engine's RNG stream for the same co-run seed.
func NewInjector(plan Plan, fallbackSeed int64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	seed := plan.Seed
	if seed == 0 {
		seed = fallbackSeed ^ 0x5eed_c4a0_5bad_cafe
	}
	if plan.ArmMaxRetries == 0 {
		plan.ArmMaxRetries = 4
	}
	if plan.PreemptGapLen == 0 {
		plan.PreemptGapLen = 3
	}
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(seed))}, nil
}

// Stats returns the accounting so far.
func (in *Injector) Stats() Stats { return in.stats }

// ArmChannel simulates arming one spy channel. It draws one attempt, then up
// to maxRetries retries, and reports how many retries were consumed and
// whether the channel finally armed. mandatory channels retry harder (the spy
// cannot run without its probe) but still give up eventually so a hostile
// plan cannot hang the run.
func (in *Injector) ArmChannel(mandatory bool) (retries int, ok bool) {
	if in.plan.ArmFailRate <= 0 {
		in.stats.ArmAttempts++
		return 0, true
	}
	budget := in.plan.ArmMaxRetries
	if mandatory {
		const mandatoryRetryCap = 64
		budget = mandatoryRetryCap
	}
	for attempt := 0; ; attempt++ {
		in.stats.ArmAttempts++
		if in.rng.Float64() >= in.plan.ArmFailRate {
			return retries, true
		}
		if attempt >= budget {
			in.stats.ArmFailures++
			return retries, false
		}
		retries++
		in.stats.ArmRetries++
	}
}

// BackoffDelay converts a retry count into the capped-exponential host-side
// delay the spy spent re-arming: base, 2·base, 4·base, ... summed and capped
// at 8·base per step. The delayed channel launches its first kernel late, so
// heavy arming trouble shows up in the data as missing early windows.
func BackoffDelay(retries int, base gpu.Nanos) gpu.Nanos {
	if retries <= 0 || base <= 0 {
		return 0
	}
	var total gpu.Nanos
	step := base
	for i := 0; i < retries; i++ {
		total += step
		if step < 8*base {
			step *= 2
		}
	}
	return total
}

// Apply perturbs a CUPTI sample stream in place of the clean delivery,
// returning the faulted stream. Faults apply in a fixed order — truncation,
// preemption gaps, individual drops, duplication, counter jitter, counter
// saturation, clock skew — and every perturbation increments Stats. The
// input slice is not modified.
func (in *Injector) Apply(samples []cupti.Sample) []cupti.Sample {
	out := make([]cupti.Sample, len(samples))
	copy(out, samples)

	// Truncation: the tail of the trace never made it to disk.
	if in.plan.TruncateFrac > 0 {
		keep := int(float64(len(out)) * (1 - in.plan.TruncateFrac))
		if keep < 0 {
			keep = 0
		}
		in.stats.Truncated += len(out) - keep
		out = out[:keep]
	}

	// Preemption gaps: runs of consecutive windows lost while the spy's
	// host thread was switched out.
	if in.plan.PreemptGapRate > 0 {
		kept := out[:0]
		skip := 0
		for _, s := range out {
			if skip > 0 {
				skip--
				in.stats.GapSamplesLost++
				continue
			}
			if in.rng.Float64() < in.plan.PreemptGapRate {
				in.stats.PreemptionGaps++
				in.stats.GapSamplesLost++
				skip = in.plan.PreemptGapLen - 1
				continue
			}
			kept = append(kept, s)
		}
		out = kept
	}

	// Individual sample drops.
	if in.plan.DropRate > 0 {
		kept := out[:0]
		for _, s := range out {
			if in.rng.Float64() < in.plan.DropRate {
				in.stats.Dropped++
				continue
			}
			kept = append(kept, s)
		}
		out = kept
	}

	// Duplication: stale buffer reads re-deliver the previous window.
	if in.plan.DupRate > 0 {
		dup := make([]cupti.Sample, 0, len(out))
		for _, s := range out {
			dup = append(dup, s)
			if in.rng.Float64() < in.plan.DupRate {
				in.stats.Duplicated++
				dup = append(dup, s)
			}
		}
		out = dup
	}

	// Bounded multiplicative counter jitter.
	if in.plan.JitterFrac > 0 {
		for i := range out {
			touched := false
			for e := range out[i].Values {
				f := 1 + in.plan.JitterFrac*(2*in.rng.Float64()-1)
				if out[i].Values[e] != 0 {
					out[i].Values[e] *= f
					touched = true
				}
			}
			if touched {
				in.stats.Jittered++
			}
		}
	}

	// Saturation clipping at a fraction of the observed per-event maximum.
	if in.plan.SaturateFrac > 0 && len(out) > 0 {
		var caps [cupti.NumEvents]float64
		for _, s := range out {
			for e, v := range s.Values {
				if v > caps[e] {
					caps[e] = v
				}
			}
		}
		for e := range caps {
			caps[e] *= 1 - in.plan.SaturateFrac
		}
		for i := range out {
			clipped := false
			for e, v := range out[i].Values {
				if caps[e] > 0 && v > caps[e] {
					out[i].Values[e] = caps[e]
					clipped = true
				}
			}
			if clipped {
				in.stats.Saturated++
			}
		}
	}

	// Clock skew: the spy's sample clock drifts against the victim's
	// timeline clock, stretching timestamps away from the trace start.
	if in.plan.ClockSkewFrac > 0 && len(out) > 0 {
		in.stats.ClockSkew = in.plan.ClockSkewFrac
		origin := out[0].Start
		scale := 1 + in.plan.ClockSkewFrac
		for i := range out {
			out[i].Start = origin + gpu.Nanos(float64(out[i].Start-origin)*scale)
			out[i].End = origin + gpu.Nanos(float64(out[i].End-origin)*scale)
		}
	}

	return out
}
