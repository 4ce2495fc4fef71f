// Package spy implements the adversary's CUDA program: the probe kernels the
// paper evaluates in Table I (VectorAdd, VectorMul, MatMul, Conv100,
// Conv200), the eight-kernel slow-down attack of §IV that stretches the
// victim's ops so each yields multiple CUPTI samples, and the sampling
// wiring that turns scheduler activity into the counter-vector stream the
// inference models consume.
package spy

import (
	"fmt"

	"leakydnn/internal/chaos"
	"leakydnn/internal/cupti"
	"leakydnn/internal/gpu"
)

// Kind selects a probe kernel.
type Kind int

// The five probe kernels of Table I.
const (
	VectorAdd Kind = iota + 1
	VectorMul
	MatMul
	Conv100
	Conv200
)

// String returns the probe kernel's name.
func (k Kind) String() string {
	switch k {
	case VectorAdd:
		return "VectorAdd"
	case VectorMul:
		return "VectorMul"
	case MatMul:
		return "MatMul"
	case Conv100:
		return "Conv100"
	case Conv200:
		return "Conv200"
	}
	return fmt.Sprintf("spy.Kind(%d)", int(k))
}

// Kinds returns every probe kernel kind in Table I order.
func Kinds() []Kind {
	return []Kind{VectorAdd, VectorMul, MatMul, Conv100, Conv200}
}

// probeSpec describes a probe kernel at paper scale (duration and traffic of
// one launch). Conv200 has the largest working set and the richest traffic
// mix — the property that makes it the paper's best probe: its refetch
// penalty after every victim slice is both the largest and the most stable.
type probeSpec struct {
	duration   gpu.Nanos
	read       float64
	write      float64
	tex        float64
	working    float64
	texWorking float64
}

var probeSpecs = map[Kind]probeSpec{
	VectorAdd: {duration: 800 * gpu.Microsecond, read: 96 << 10, write: 48 << 10, working: 8 << 10},
	VectorMul: {duration: 800 * gpu.Microsecond, read: 96 << 10, write: 48 << 10, working: 12 << 10},
	MatMul:    {duration: 4 * gpu.Millisecond, read: 4800 << 10, write: 64 << 10, working: 512 << 10},
	Conv100:   {duration: 1200 * gpu.Microsecond, read: 1200 << 10, write: 600 << 10, tex: 1200 << 10, working: 768 << 10, texWorking: 384 << 10},
	Conv200:   {duration: 2500 * gpu.Microsecond, read: 4 << 20, write: 1900 << 10, tex: 4 << 20, working: 2 << 20, texWorking: 1 << 20},
}

// The probe's launch geometry: 4 blocks of 32 threads, taking 4 SMs (§III-C).
const (
	probeBlocks  = 4
	probeThreads = 32
)

// ProbeKernel returns the probe kernel profile. timeScale scales the
// kernel's duration and traffic (1 = the paper's platform; unit tests use
// small scales to keep simulated runs short).
func ProbeKernel(kind Kind, timeScale float64) (gpu.KernelProfile, error) {
	spec, ok := probeSpecs[kind]
	if !ok {
		return gpu.KernelProfile{}, fmt.Errorf("spy: unknown probe kind %d", int(kind))
	}
	if timeScale <= 0 {
		return gpu.KernelProfile{}, fmt.Errorf("spy: timeScale must be positive, got %v", timeScale)
	}
	d := gpu.Nanos(float64(spec.duration) * timeScale)
	if d < 1 {
		d = 1
	}
	// Traffic and working set scale with time so that rates — and therefore
	// every eviction/warm-up ratio the side channel depends on — are
	// invariant under timeScale.
	return gpu.KernelProfile{
		Name:               "spy." + kind.String(),
		FixedDuration:      d,
		ReadBytes:          spec.read * timeScale,
		WriteBytes:         spec.write * timeScale,
		TexBytes:           spec.tex * timeScale,
		WorkingSetBytes:    spec.working * timeScale,
		TexWorkingSetBytes: spec.texWorking * timeScale,
		Blocks:             probeBlocks,
		ThreadsPerBlock:    probeThreads,
	}, nil
}

// SlowdownKernels returns the paper's slow-down attack kernels: 8 kernels in
// 4 groups of 2, group Gi launching 4·2^i blocks of 4·2^i·32 threads. Their
// heavy streaming traffic both steals round-robin slots from the victim and
// flushes its L2 working set on every rotation.
func SlowdownKernels(timeScale float64) []gpu.KernelProfile {
	var out []gpu.KernelProfile
	for group := 0; group < 4; group++ {
		blocks := 4 << group
		threads := blocks * 32
		d := gpu.Nanos(float64(5*gpu.Millisecond) * timeScale)
		if d < 1 {
			d = 1
		}
		for j := 0; j < 2; j++ {
			// Slow-down kernels are the same dummy convolutions as the
			// probe: they burn scheduler slots to stretch the victim AND
			// multiply the spy's cache-resident sensor area — every victim
			// slice's evictions are repaid across all eight working sets,
			// amplifying the counter-visible penalty.
			out = append(out, gpu.KernelProfile{
				Name:               fmt.Sprintf("spy.slowdown.G%d.%d", group, j),
				FixedDuration:      d,
				ReadBytes:          float64(4<<20) * timeScale,
				WriteBytes:         float64(1<<20) * timeScale,
				TexBytes:           float64(4<<20) * timeScale,
				WorkingSetBytes:    float64(2<<20) * timeScale,
				TexWorkingSetBytes: float64(1<<20) * timeScale,
				Blocks:             blocks,
				ThreadsPerBlock:    threads,
			})
		}
	}
	return out
}

// Config describes a spy deployment.
type Config struct {
	// Ctx is the spy process's CUDA context id.
	Ctx gpu.ContextID
	// Probe selects the probe kernel (the paper settles on Conv200).
	Probe Kind
	// Slowdown launches the eight slow-down kernels alongside the probe.
	Slowdown bool
	// SlowdownChannels caps how many of the eight slow-down kernels this spy
	// launches (0 = all). The fleet runner uses it to split a shared spy
	// channel budget across devices; a partially funded spy still probes, it
	// just stretches the victim less.
	SlowdownChannels int
	// TimeScale scales kernel durations (1 = paper platform).
	TimeScale float64
	// SamplePeriod is the fixed CUPTI polling period of the spy's host
	// thread. Zero selects per-probe-kernel sampling instead.
	SamplePeriod gpu.Nanos
	// Events selects which CUPTI counters the spy enables (nil = the
	// paper's ten of Table IV). Every enabled counter group adds collection
	// overhead to the probe kernel (§IV), and disabled counters read zero.
	Events []cupti.Event
	// Faults, when set, injects channel-arming failures (and, via the trace
	// layer, sample-stream faults) into the spy's measurement path. Failed
	// arming attempts are retried with capped exponential backoff; the
	// accumulated backoff delays the channel's first launch, so arming
	// trouble is visible in the data as missing early windows.
	Faults *chaos.Injector
	// SampleBuf is the sampler's output buffer: samples are appended from
	// its start and its length is ignored. trace.Collect passes a recycled
	// or high-water-sized buffer here, so a long run's append-doubling
	// growth does not recur every collection. Nil allocates as the run
	// grows; either way the samples produced are the same.
	SampleBuf []cupti.Sample
}

// Program is a deployed spy: its kernels attached to an engine plus the
// CUPTI sampler receiving its counter stream.
type Program struct {
	cfg           Config
	probe         gpu.KernelProfile
	windowSampler *cupti.WindowSampler
	kernelSampler *cupti.KernelSampler
	probeSource   *gpu.RepeatSource
	rejected      int
	armRetries    int
	armFailures   int
}

// NewProgram validates cfg and prepares the spy's kernels and sampler.
func NewProgram(cfg Config) (*Program, error) {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	probe, err := ProbeKernel(cfg.Probe, cfg.TimeScale)
	if err != nil {
		return nil, err
	}
	if cfg.Events == nil {
		cfg.Events = cupti.SelectedEvents()
	}
	// Each enabled counter group adds a collection pass to the probe
	// kernel, reducing the sampling rate (§IV).
	probe.FixedDuration = gpu.Nanos(float64(probe.FixedDuration) * cupti.ProfilingOverhead(cfg.Events))
	p := &Program{cfg: cfg, probe: probe}
	if cfg.SamplePeriod > 0 {
		p.windowSampler, err = cupti.NewWindowSampler(cfg.Ctx, cfg.SamplePeriod, cfg.SampleBuf)
		if err != nil {
			return nil, err
		}
	} else {
		p.kernelSampler = cupti.NewKernelSampler(cfg.Ctx, probe.Name, cfg.SampleBuf)
	}
	return p, nil
}

// AttachTimeSliced adds the spy's channels to a time-sliced engine. The probe
// channel is mandatory: if the engine rejects it (or chaos-injected arming
// failures exhaust even the mandatory retry budget) the spy cannot sample at
// all and an error is returned. Slow-down channels beyond a hardened
// scheduler's per-context cap fail exactly as a real driver fails surplus
// channel creation; the spy proceeds disarmed and reports how many channels
// were refused via RejectedChannels, so no run is silently missing kernels.
// Under fault injection every failed arming attempt is retried with capped
// exponential backoff; the accumulated delay pushes the channel's first
// launch back, and channels that exhaust their retries are counted by
// ArmFailures.
func (p *Program) AttachTimeSliced(eng *gpu.Engine) error {
	p.probeSource = &gpu.RepeatSource{Kernel: p.probe}
	armed, err := p.armProbe(eng, p.probeSource)
	if err != nil {
		return err
	}
	if !armed {
		return fmt.Errorf("spy: engine rejected probe channel for ctx %d (channel cap reached)", p.cfg.Ctx)
	}
	if p.cfg.Slowdown {
		// Fault-inject the arming of every slow-down channel first, then
		// attach the survivors as one batch: the scheduler's per-context cap
		// is checked against the whole batch up front, so the spy is either
		// fully armed (minus fault-abandoned channels) or fully disarmed —
		// never left half-armed by a mid-batch rejection.
		var srcs []gpu.Source
		for _, k := range p.slowdownSet() {
			src, ok := p.prepareSlowdown(&gpu.RepeatSource{Kernel: k})
			if !ok {
				p.rejected++
				continue
			}
			srcs = append(srcs, src)
		}
		if !eng.AddChannelBatch(p.cfg.Ctx, srcs) {
			p.rejected += len(srcs)
		}
	}
	return nil
}

// slowdownSet returns the slow-down kernels this deployment launches: all
// eight by default, or a budget-capped prefix when SlowdownChannels is set.
func (p *Program) slowdownSet() []gpu.KernelProfile {
	ks := SlowdownKernels(p.cfg.TimeScale)
	if n := p.cfg.SlowdownChannels; n > 0 && n < len(ks) {
		ks = ks[:n]
	}
	return ks
}

// prepareSlowdown runs the chaos arming path for one optional channel: the
// retry/failure accounting of the per-channel loop it replaced, returning the
// (possibly backoff-delayed) source and whether arming succeeded.
func (p *Program) prepareSlowdown(src gpu.Source) (gpu.Source, bool) {
	if p.cfg.Faults == nil {
		return src, true
	}
	retries, ok := p.cfg.Faults.ArmChannel(false)
	p.armRetries += retries
	if !ok {
		p.armFailures++
		return nil, false
	}
	if delay := chaos.BackoffDelay(retries, p.backoffBase()); delay > 0 {
		src = &delayedSource{inner: src, delay: delay}
	}
	return src, true
}

// armProbe arms the mandatory probe channel, retrying chaos-injected failures
// with capped backoff. It reports whether the engine registered the channel;
// exhausting the arming retry budget (not the scheduler's channel cap) is an
// error, because a spy without its probe cannot sample at all.
func (p *Program) armProbe(eng *gpu.Engine, src gpu.Source) (bool, error) {
	if p.cfg.Faults != nil {
		retries, ok := p.cfg.Faults.ArmChannel(true)
		p.armRetries += retries
		if !ok {
			p.armFailures++
			return false, fmt.Errorf("spy: probe channel arming failed after %d retries (injected launch faults)", retries)
		}
		if delay := chaos.BackoffDelay(retries, p.backoffBase()); delay > 0 {
			src = &delayedSource{inner: src, delay: delay}
		}
	}
	return eng.AddChannel(p.cfg.Ctx, src), nil
}

// backoffBase is the first re-arming delay: about one probe duration, so the
// backoff cost scales with the platform's time constants.
func (p *Program) backoffBase() gpu.Nanos {
	if d := p.probe.FixedDuration; d > 0 {
		return d
	}
	return gpu.Millisecond
}

// delayedSource postpones the inner source's first launch by the arming
// backoff; subsequent launches are undisturbed.
type delayedSource struct {
	inner gpu.Source
	delay gpu.Nanos
}

// Next implements gpu.Source.
func (d *delayedSource) Next(now gpu.Nanos) (gpu.KernelProfile, gpu.Nanos, bool) {
	k, notBefore, ok := d.inner.Next(now)
	if ok && d.delay > 0 {
		if nb := now + d.delay; notBefore < nb {
			notBefore = nb
		}
		d.delay = 0
	}
	return k, notBefore, ok
}

// watchdogPeriods is how many quiet sampling periods the spy's host thread
// tolerates before concluding its context was torn down. Real collection
// loops use the same heuristic: a few missed polls is preemption, a long
// silence is an eviction or driver reset.
const watchdogPeriods = 4

// WatchdogDelay is how long after a context teardown the spy's sample-gap
// watchdog notices the outage: a few sampling periods of silence under
// fixed-period polling, or a few probe durations under per-kernel sampling.
func (p *Program) WatchdogDelay() gpu.Nanos {
	if p.cfg.SamplePeriod > 0 {
		return watchdogPeriods * p.cfg.SamplePeriod
	}
	return watchdogPeriods * p.probe.FixedDuration
}

// Recover re-arms the spy after a driver reset detached its channels. The
// sample-gap watchdog detects the outage WatchdogDelay after the teardown at
// `at`; the probe channel (and, if deployed, the slow-down channels) are then
// re-armed through the same capped-backoff arming path as the initial attach,
// with every retry counted once in ArmRetries. Channels join the engine
// deferred: their first launch is floored at detection time plus the
// accumulated backoff. It returns the probe's earliest relaunch time — the
// trace layer's re-anchor marker — and whether the probe re-armed at all;
// recovered=false means the spy is blind for the rest of the run (the arming
// fault budget was exhausted, or a hardened scheduler refused the channel).
func (p *Program) Recover(eng *gpu.Engine, at gpu.Nanos) (reanchor gpu.Nanos, recovered bool) {
	detect := at + p.WatchdogDelay()
	probeAt, ok := p.rearmProbe(eng, p.probeSource, detect)
	if !ok {
		return 0, false
	}
	if p.cfg.Slowdown {
		// Same batched cap discipline as the initial attach: every channel
		// runs the fault-arming path first, then the survivors are checked
		// against the remaining channel slots before any one is registered.
		type pending struct {
			src gpu.Source
			at  gpu.Nanos
		}
		var batch []pending
		for _, k := range p.slowdownSet() {
			start := detect
			if p.cfg.Faults != nil {
				retries, ok := p.cfg.Faults.ArmChannel(false)
				p.armRetries += retries
				if !ok {
					p.armFailures++
					p.rejected++
					continue
				}
				start += chaos.BackoffDelay(retries, p.backoffBase())
			}
			batch = append(batch, pending{src: &gpu.RepeatSource{Kernel: k}, at: start})
		}
		if free := eng.ChannelSlotsFree(p.cfg.Ctx); free >= 0 && free < len(batch) {
			p.rejected += len(batch)
		} else {
			for _, b := range batch {
				eng.AddChannelAt(p.cfg.Ctx, b.src, b.at)
			}
		}
	}
	return probeAt, true
}

// rearmProbe arms the probe channel mid-run, flooring its first launch at
// `after` plus the capped-backoff delay of any chaos-injected arming
// failures. Unlike the initial armProbe, a probe that exhausts its retries
// degrades (reports false) instead of erroring: mid-run the spy can only go
// blind, not abort the co-run it does not control.
func (p *Program) rearmProbe(eng *gpu.Engine, src gpu.Source, after gpu.Nanos) (gpu.Nanos, bool) {
	start := after
	if p.cfg.Faults != nil {
		retries, ok := p.cfg.Faults.ArmChannel(true)
		p.armRetries += retries
		if !ok {
			p.armFailures++
			return 0, false
		}
		start += chaos.BackoffDelay(retries, p.backoffBase())
	}
	if !eng.AddChannelAt(p.cfg.Ctx, src, start) {
		return 0, false
	}
	return start, true
}

// RejectedChannels reports how many slow-down channels the scheduler refused
// (non-zero only under a hardened per-context channel cap or injected arming
// faults that exhausted their retries).
func (p *Program) RejectedChannels() int { return p.rejected }

// ArmRetries reports how many chaos-injected arming failures the spy retried
// through (always zero without fault injection).
func (p *Program) ArmRetries() int { return p.armRetries }

// ArmFailures reports how many channels were abandoned after exhausting
// their arming retries (always zero without fault injection).
func (p *Program) ArmFailures() int { return p.armFailures }

// AttachMPS adds the spy as a leftover-policy secondary under MPS.
func (p *Program) AttachMPS(eng *gpu.MPSEngine) {
	p.probeSource = &gpu.RepeatSource{Kernel: p.probe}
	eng.AddSecondary(p.cfg.Ctx, p.probeSource)
	if p.cfg.Slowdown {
		for _, k := range p.slowdownSet() {
			eng.AddSecondary(p.cfg.Ctx, &gpu.RepeatSource{Kernel: k})
		}
	}
}

// ObserveSlice routes a scheduler slice to the spy's sampler; wire it into
// the engine's OnSlice hook. Like the hook, it reads rec only during the call.
func (p *Program) ObserveSlice(rec *gpu.SliceRecord) {
	if p.windowSampler != nil {
		p.windowSampler.Observe(rec)
	} else {
		p.kernelSampler.Observe(rec)
	}
}

// ObserveKernelEnd routes a kernel completion to the per-kernel sampler;
// wire it into the engine's OnKernelEnd hook.
func (p *Program) ObserveKernelEnd(span gpu.KernelSpan) {
	if p.kernelSampler != nil {
		p.kernelSampler.ObserveKernelEnd(span)
	}
}

// Samples returns the CUPTI samples collected so far, closing any pending
// fixed-period window at time `at`. Counters outside the enabled event set
// read zero, as a real CUPTI session only returns configured events.
func (p *Program) Samples(at gpu.Nanos) []cupti.Sample {
	var samples []cupti.Sample
	if p.windowSampler != nil {
		samples = p.windowSampler.Finish(at)
	} else {
		samples = p.kernelSampler.Samples()
	}
	if len(p.cfg.Events) == int(cupti.NumEvents) {
		return samples
	}
	enabled := make(map[cupti.Event]bool, len(p.cfg.Events))
	for _, e := range p.cfg.Events {
		enabled[e] = true
	}
	masked := make([]cupti.Sample, len(samples))
	for i, s := range samples {
		m := s
		for e := cupti.Event(0); e < cupti.NumEvents; e++ {
			if !enabled[e] {
				m.Values[e] = 0
			}
		}
		masked[i] = m
	}
	return masked
}

// ProbeLaunches returns how many probe kernels have been launched.
func (p *Program) ProbeLaunches() int {
	if p.probeSource == nil {
		return 0
	}
	return p.probeSource.Launched()
}
