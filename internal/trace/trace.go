// Package trace orchestrates co-runs of a victim training session and the
// spy on one simulated GPU, and aligns the spy's CUPTI samples with the
// victim's timeline to produce the labelled datasets the attack's inference
// models are trained on (§V-A: "aligning the model's ops with spy's readings
// using the TensorFlow timeline profiler").
package trace

import (
	"fmt"
	"math"
	"sort"

	"leakydnn/internal/chaos"
	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/spy"
	"leakydnn/internal/tfsim"
)

// Context ids used by every co-run.
const (
	VictimCtx gpu.ContextID = 1
	SpyCtx    gpu.ContextID = 2
)

// RunConfig describes one co-run.
type RunConfig struct {
	Device  gpu.DeviceConfig
	Session tfsim.Config
	Spy     spy.Config
	// Seed drives all simulator randomness.
	Seed int64
	// Horizon caps the simulated duration as a safety net. Zero derives a
	// generous bound from the victim's workload.
	Horizon gpu.Nanos
	// BackgroundTenants are additional co-located training processes (the
	// paper's "more than two users" setting, §VI limitation 5). Each runs
	// endlessly on its own context, adding scheduling non-determinism that
	// degrades the spy's view. Under a SchedPlan with churn, this is the
	// roster tenants leave from and the template cycle joiners are cloned
	// from.
	BackgroundTenants []dnn.Model
	// Chaos injects measurement-path faults (dropped/duplicated samples,
	// counter jitter and saturation, arming failures, preemption gaps, clock
	// skew, truncation) and — via Chaos.Sched — scheduling-layer faults
	// (victim stalls, driver resets of the spy context, co-tenant churn).
	// The zero plan injects nothing and leaves the run byte-identical to a
	// fault-free collection; both injectors draw from their own seeded RNG
	// streams, never the engine's.
	Chaos chaos.Plan
}

// Trace is the outcome of one co-run: the spy-side samples and the
// victim-side ground truth.
type Trace struct {
	Model dnn.Model
	// Ops is the victim's compiled per-iteration op sequence. A collected
	// trace shares it with every other session of an equal model (see
	// tfsim.Session.Ops), so it is read-only: never write its elements.
	Ops      []dnn.Op
	Samples  []cupti.Sample
	Timeline *tfsim.Timeline
	// VictimWall is the victim's wall-clock time from its first op start to
	// its last op end (the slow-down attack's effect shows up here).
	VictimWall gpu.Nanos
	// SpyProbeLaunches counts completed+launched probe kernels.
	SpyProbeLaunches int
	// SpyChannelsRejected counts slow-down channels a hardened scheduler
	// refused to register (the disarmed slow-down attack of §VI).
	SpyChannelsRejected int
	// SchedSlices counts every scheduler grant the engine issued during the
	// co-run, across all contexts. It is the simulator-throughput denominator
	// for fleet benchmarks (aggregate slices/sec) and is deliberately outside
	// the golden trace hash, which enumerates the measurement-path fields.
	SchedSlices int
	// Reanchors are the re-anchor markers the spy's recovery layer emitted:
	// the first-relaunch time after each survived driver reset. Samples
	// before and after a marker belong to independent trace segments — the
	// spy lost its context in between — so alignment and iteration
	// splitting must not treat the stream as one contiguous run. Empty on
	// runs without scheduler faults.
	Reanchors []gpu.Nanos
	// Health is the co-run's degradation report: per-cause fault accounting
	// and iteration coverage. Always populated, even on clean runs.
	Health *Health
}

// Collect runs the victim and spy together under the time-sliced scheduler
// and returns the aligned trace. Set cfg.Spy.Ctx before calling or leave it
// zero to use the conventional SpyCtx. The collection borrows its scratch
// memory from the process-wide arenas (see Recycle); the trace is
// byte-identical to one collected on fresh memory.
func Collect(m dnn.Model, cfg RunConfig) (*Trace, error) {
	return arenas.collect(m, cfg)
}

// collectOn is Collect on the given arena.
func collectOn(m dnn.Model, cfg RunConfig, arena *Arena) (*Trace, error) {
	if cfg.Spy.Ctx == 0 {
		cfg.Spy.Ctx = SpyCtx
	}
	// Validate the iteration count before building any simulator state: the
	// session would reject it too, but the loop bounds and the derived horizon
	// below both multiply by it, so fail with the trace-level story up front.
	if cfg.Session.Iterations <= 0 {
		return nil, fmt.Errorf("trace: Session.Iterations must be >= 1, got %d", cfg.Session.Iterations)
	}
	sess, err := tfsim.NewSession(m, cfg.Session, cfg.Device)
	if err != nil {
		return nil, err
	}
	// Fault injection owns private RNG streams: a non-zero plan perturbs the
	// measurement path (and/or the scheduling layer) but never the engine's
	// scheduling randomness, and a zero plan builds no injector at all,
	// keeping clean runs byte-identical.
	var inj *chaos.Injector
	if !cfg.Chaos.MeasurementIsZero() {
		inj, err = chaos.NewInjector(cfg.Chaos, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		cfg.Spy.Faults = inj
	}
	var sched *chaos.SchedInjector
	if !cfg.Chaos.Sched.IsZero() {
		sched, err = chaos.NewSchedInjector(cfg.Chaos.Sched, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	// The arena is this collection's for the whole call. The engine's
	// internals are reclaimed into it on the way out (nothing in the
	// returned Trace aliases them), and the tag slab is recycled eagerly (its
	// previous owner's engine is gone by definition). The sampler and the
	// timeline append into the arena's buffers, which leave it with the
	// returned Trace.
	arena.tags.Reset()
	cfg.Spy.SampleBuf = arena.sampleBuffer()
	prog, err := spy.NewProgram(cfg.Spy)
	if err != nil {
		return nil, err
	}
	eng, err := gpu.NewEngineWith(cfg.Device, arena.rand(cfg.Seed), &arena.engine)
	if err != nil {
		return nil, err
	}
	defer arena.engine.Release(eng)
	if sched != nil {
		// Tenant churn adds and removes channels mid-run; with the shared
		// RNG stream that would perturb every other context's noise draws.
		// Per-context streams keep the victim's and spy's randomness a pure
		// function of their own slice sequence.
		eng.IsolateContextStreams(cfg.Seed)
	}

	tl := tfsim.TimelineFromEvents(arena.eventBuffer())
	totalOps := sess.OpsPerIteration() * cfg.Session.Iterations
	victimDone := 0
	schedSlices := 0
	// Finite co-tenant schedules: per-context completed-op counts let the end
	// of the run report how many capped tenants actually drained and left.
	tenantCap := cfg.Chaos.Device.TenantIterations
	var tenantOps map[gpu.ContextID]int
	var tenantTotal map[gpu.ContextID]int
	if tenantCap > 0 {
		tenantOps = make(map[gpu.ContextID]int)
		tenantTotal = make(map[gpu.ContextID]int)
	}
	eng.OnSlice = func(r *gpu.SliceRecord) {
		schedSlices++
		prog.ObserveSlice(r)
	}
	eng.OnKernelEnd = func(span gpu.KernelSpan) {
		prog.ObserveKernelEnd(span)
		// Only the victim's ops form the ground-truth timeline; background
		// tenants' kernels are just scheduling noise from the spy's view.
		if span.Ctx == VictimCtx {
			tl.Observe(span)
			victimDone++
		} else if tenantOps != nil && span.Ctx != cfg.Spy.Ctx {
			tenantOps[span.Ctx]++
		}
	}

	// Ground-truth channels must never be dropped: a hardened scheduler
	// rejecting the victim or a tenant would silently produce a trace of a
	// different co-location than the one requested.
	sessSrc := sess.SourceWith(&arena.tags)
	rewinder, _ := sessSrc.(tfsim.Rewindable)
	victimSrc := gpu.Source(sessSrc)
	if sched != nil {
		ss := &stalledSource{
			inner:      victimSrc,
			rewind:     rewinder,
			opsPerIter: sess.OpsPerIteration(),
			iterDur:    sess.IterationDuration(),
			inj:        sched,
		}
		victimSrc = ss
		rewinder = ss
	}
	if !eng.AddChannel(VictimCtx, victimSrc) {
		return nil, fmt.Errorf("trace: scheduler rejected the victim channel (ctx %d, MaxChannelsPerCtx=%d)",
			VictimCtx, cfg.Device.MaxChannelsPerCtx)
	}
	if err := prog.AttachTimeSliced(eng); err != nil {
		return nil, err
	}
	// A finite-tenant cap replaces the train-forever iteration count; a
	// capped tenant's source drains after that many iterations and its
	// channel retires, exactly like a co-located job finishing its run.
	tenantIters := 1 << 30
	if tenantCap > 0 {
		tenantIters = tenantCap
	}
	for i, tenant := range cfg.BackgroundTenants {
		tsess, err := tfsim.NewSession(tenant, tfsim.Config{
			Iterations: tenantIters,
			IterGap:    cfg.Session.IterGap,
		}, cfg.Device)
		if err != nil {
			return nil, fmt.Errorf("trace: tenant %s: %w", tenant.Name, err)
		}
		ctx := SpyCtx + 1 + gpu.ContextID(i)
		if !eng.AddChannel(ctx, tsess.SourceWith(&arena.tags)) {
			return nil, fmt.Errorf("trace: scheduler rejected tenant %s channel (ctx %d, MaxChannelsPerCtx=%d)",
				tenant.Name, ctx, cfg.Device.MaxChannelsPerCtx)
		}
		if tenantTotal != nil {
			tenantTotal[ctx] = tenantIters * tsess.OpsPerIteration()
		}
	}

	horizon := cfg.Horizon
	if horizon == 0 {
		// Generous bound: 100x the exclusive-device time plus gaps. The
		// product can overflow int64 nanoseconds on absurd-but-representable
		// configurations (huge IterGap or iteration counts); a wrapped horizon
		// would silently truncate or never terminate the run, so refuse it.
		per := sess.IterationDuration() + cfg.Session.IterGap
		iters := gpu.Nanos(cfg.Session.Iterations)
		if per < 0 {
			return nil, fmt.Errorf("trace: iteration duration %v plus gap %v overflows; set RunConfig.Horizon explicitly",
				sess.IterationDuration(), cfg.Session.IterGap)
		}
		if iters > (math.MaxInt64-gpu.Second)/100 {
			return nil, fmt.Errorf("trace: derived horizon for %d iterations overflows int64 nanoseconds; set RunConfig.Horizon explicitly",
				cfg.Session.Iterations)
		}
		if maxPer := (math.MaxInt64 - gpu.Second) / (100 * iters); per > maxPer {
			return nil, fmt.Errorf("trace: derived horizon 100*%v*%d overflows int64 nanoseconds; set RunConfig.Horizon explicitly",
				per, cfg.Session.Iterations)
		}
		horizon = 100*per*iters + gpu.Second
	}
	// Fault events are drawn once over the estimated clean run length.
	// Scheduler events are a fixed prefix of the sched injector's RNG stream
	// (so stall draws during the run cannot move the event times); device
	// faults place positionally and consume no RNG at all. Both merge into
	// one time-ordered list the run loop crosses.
	est := horizon
	{
		per := sess.IterationDuration() + cfg.Session.IterGap
		iters := gpu.Nanos(cfg.Session.Iterations)
		if per > 0 && iters > 0 && per <= math.MaxInt64/iters && per*iters < est {
			est = per * iters
		}
	}
	var events []chaos.SchedEvent
	if sched != nil {
		events = sched.Schedule(0, est)
	}
	if dev := cfg.Chaos.Device; !dev.IsZero() {
		events = append(events, dev.Events(0, est)...)
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].At != events[j].At {
				return events[i].At < events[j].At
			}
			return events[i].Kind < events[j].Kind
		})
	}
	var (
		outages   []outage
		reanchors []gpu.Nanos
		nextEvent int
		joined    int
		left      int
		devStats  chaos.DeviceStats
		spyDead   bool
		// Churn joiners get fresh contexts past the initial roster so a join
		// after a leave never aliases a detached context id.
		joinCtx = SpyCtx + 1 + gpu.ContextID(len(cfg.BackgroundTenants))
	)
	devStats.TenantIterationCap = tenantCap
	applyEvent := func(ev chaos.SchedEvent) error {
		switch ev.Kind {
		case chaos.SchedReset:
			// Driver reset: the spy's context is torn down — channels
			// detached, residency flushed, in-flight slice lost. The watchdog
			// notices the dead sample stream and re-arms through the capped
			// backoff path; the first relaunch time is the re-anchor marker.
			sched.NoteReset()
			if spyDead {
				// The spy process is already gone; resetting its context is a
				// no-op and there is no process left to re-arm.
				return nil
			}
			resetAt := eng.Now()
			eng.DetachContext(cfg.Spy.Ctx)
			rearmAt, ok := prog.Recover(eng, resetAt)
			if ok {
				sched.NoteResetSurvived()
				outages = append(outages, outage{from: resetAt, to: rearmAt})
				reanchors = append(reanchors, rearmAt)
			} else {
				// Re-arm exhausted its retries: the spy is blind for the rest
				// of the run and every later window is recovery loss.
				outages = append(outages, outage{from: resetAt, to: math.MaxInt64})
			}
		case chaos.SchedVictimReset:
			// Driver reset of the victim's context mid-iteration: in-flight
			// and queued kernels are lost and no optimizer state was
			// committed for the interrupted step, so the training loop
			// replays it from its first op. Completed victim ops arrive in
			// program order (one serialized channel), so the earliest
			// uncommitted iteration is exactly victimDone / opsPerIter.
			sched.NoteVictimReset()
			if rewinder == nil || victimDone >= totalOps {
				return nil
			}
			opsPerIter := sess.OpsPerIteration()
			committed := victimDone / opsPerIter
			rewinder.RewindTo(committed)
			replayed := victimDone - committed*opsPerIter
			victimDone = committed * opsPerIter
			sched.NoteVictimOpsReplayed(replayed)
			eng.DetachContext(VictimCtx)
			// The restarted process re-attaches after one host gap (driver
			// context re-creation + input pipeline rewind), then the replayed
			// iteration's own IterGap applies as usual.
			if !eng.AddChannelAt(VictimCtx, victimSrc, eng.Now()+cfg.Session.IterGap) {
				return fmt.Errorf("trace: scheduler rejected the victim channel on post-reset re-attach (ctx %d)", VictimCtx)
			}
		case chaos.SchedDeviceCrash:
			// Whole-device crash: the host died mid-campaign. Nothing
			// downstream of this co-run is salvageable; the supervisor
			// matches the typed error and retries on a fresh seed stream.
			return &chaos.DeviceCrashError{At: eng.Now()}
		case chaos.SchedSpyKill:
			// The spy process is killed (OOM, operator error): its contexts
			// detach and its CUPTI buffers die with it, but the victim keeps
			// training. Windows past this point never materialize.
			if !spyDead {
				spyDead = true
				devStats.SpyKilledAt = eng.Now()
				eng.DetachContext(cfg.Spy.Ctx)
			}
		case chaos.SchedArmLoss:
			// The CUPTI arming session is invalidated: the spy's kernels keep
			// timesharing the device (the slow-down half still works) but no
			// counter windows materialize after the loss.
			if devStats.ArmSessionLostAt == 0 {
				devStats.ArmSessionLostAt = eng.Now()
			}
		case chaos.SchedTenantJoin:
			tmpl := m
			if len(cfg.BackgroundTenants) > 0 {
				tmpl = cfg.BackgroundTenants[joined%len(cfg.BackgroundTenants)]
			}
			tsess, terr := tfsim.NewSession(tmpl, tfsim.Config{
				Iterations: tenantIters,
				IterGap:    cfg.Session.IterGap,
			}, cfg.Device)
			if terr != nil {
				return fmt.Errorf("trace: churn tenant %s: %w", tmpl.Name, terr)
			}
			if eng.AddChannel(joinCtx, tsess.SourceWith(&arena.tags)) {
				if tenantTotal != nil {
					tenantTotal[joinCtx] = tenantIters * tsess.OpsPerIteration()
				}
				joinCtx++
				joined++
				sched.NoteTenantJoined()
			}
		case chaos.SchedTenantLeave:
			// Only initially attached tenants leave; draws beyond the roster
			// are dropped (and therefore not counted as applied churn).
			if left < len(cfg.BackgroundTenants) {
				ctx := SpyCtx + 1 + gpu.ContextID(left)
				left++
				if eng.DetachContext(ctx) > 0 {
					sched.NoteTenantLeft()
				}
			}
		}
		return nil
	}
	step := sess.IterationDuration()/4 + gpu.Millisecond
	for victimDone < totalOps && eng.Now() < horizon {
		next := eng.Now() + step
		if nextEvent < len(events) && events[nextEvent].At < next {
			next = events[nextEvent].At
		}
		eng.Run(next)
		for nextEvent < len(events) && events[nextEvent].At <= eng.Now() {
			if err := applyEvent(events[nextEvent]); err != nil {
				return nil, err
			}
			nextEvent++
		}
	}
	if victimDone < totalOps {
		return nil, fmt.Errorf("trace: victim completed %d/%d ops before horizon %v",
			victimDone, totalOps, horizon)
	}
	// Tail: let trailing NOP windows materialize.
	tail := cfg.Spy.SamplePeriod * 4
	if tail > 0 {
		eng.Run(eng.Now() + tail)
	}

	var wall gpu.Nanos
	first, _, ok0 := tl.IterationSpan(0)
	_, last, ok1 := tl.IterationSpan(cfg.Session.Iterations - 1)
	if ok0 && ok1 {
		wall = last - first
	}

	samples := prog.Samples(eng.Now())
	arena.noteSamples(len(samples))
	health := &Health{
		SamplesEmitted:      len(samples),
		SpyChannelsRejected: prog.RejectedChannels(),
		SpyArmRetries:       prog.ArmRetries(),
		SpyArmFailures:      prog.ArmFailures(),
	}
	// Device-fault cutoff: windows past a spy kill or arming-session loss
	// never materialized (the CUPTI buffers died with the process/session).
	// The earlier cutoff wins attribution when both fired.
	if devStats.SpyKilledAt > 0 || devStats.ArmSessionLostAt > 0 {
		cutoff := gpu.Nanos(math.MaxInt64)
		spyKillWins := false
		if at := devStats.SpyKilledAt; at > 0 && at < cutoff {
			cutoff, spyKillWins = at, true
		}
		if at := devStats.ArmSessionLostAt; at > 0 && at < cutoff {
			cutoff, spyKillWins = at, false
		}
		kept := samples[:0]
		lost := 0
		for _, s := range samples {
			if s.End > cutoff {
				lost++
				continue
			}
			kept = append(kept, s)
		}
		samples = kept
		if spyKillWins {
			devStats.SamplesLostToSpyKill = lost
		} else {
			devStats.SamplesLostToArmLoss = lost
		}
	}
	if tenantTotal != nil {
		for ctx, total := range tenantTotal {
			if total > 0 && tenantOps[ctx] >= total {
				devStats.TenantsExpired++
			}
		}
	}
	if len(outages) > 0 {
		// Windows overlapping a reset outage carry no signal (the spy had no
		// context): discard them as recovery loss before measurement faults
		// get a chance to duplicate or jitter them.
		kept := samples[:0]
		lost := 0
		for _, s := range samples {
			if sampleInOutage(s, outages) {
				lost++
				continue
			}
			kept = append(kept, s)
		}
		samples = kept
		sched.NoteSamplesLost(lost)
	}
	if inj != nil {
		samples = inj.Apply(samples)
		health.Faults = inj.Stats()
	}
	if sched != nil {
		health.Sched = sched.Stats()
		health.Reanchors = len(reanchors)
	}
	health.Device = devStats
	health.SamplesDelivered = len(samples)

	t := &Trace{
		Model:               m,
		Ops:                 sess.Ops(),
		Samples:             samples,
		Timeline:            tl,
		VictimWall:          wall,
		SpyProbeLaunches:    prog.ProbeLaunches(),
		SpyChannelsRejected: prog.RejectedChannels(),
		SchedSlices:         schedSlices,
		Reanchors:           reanchors,
		Health:              health,
	}
	t.computeIterationHealth(health, cfg.Session.Iterations)
	return t, nil
}

// stalledSource wraps the victim's kernel source and defers each iteration's
// first launch by a seeded host input-pipeline stall, and every other launch
// by a (usually rarer) op-granular host stall. The wrapper counts handed-out
// kernels itself so it needs nothing from the session beyond its
// per-iteration shape; both stall classes draw from the injector's one
// stream in launch order, so a fixed plan stalls the same ops every run.
type stalledSource struct {
	inner      gpu.Source
	rewind     tfsim.Rewindable
	opsPerIter int
	iterDur    gpu.Nanos
	inj        *chaos.SchedInjector
	handed     int
}

// Next implements gpu.Source.
func (s *stalledSource) Next(now gpu.Nanos) (gpu.KernelProfile, gpu.Nanos, bool) {
	k, notBefore, ok := s.inner.Next(now)
	if !ok {
		return k, notBefore, ok
	}
	if s.opsPerIter > 0 && s.handed%s.opsPerIter == 0 {
		notBefore += s.inj.StallBefore(s.iterDur)
	} else if s.opsPerIter > 0 {
		notBefore += s.inj.OpStallBefore(s.iterDur / gpu.Nanos(s.opsPerIter))
	}
	s.handed++
	return k, notBefore, ok
}

// Position implements tfsim.Rewindable by forwarding to the session source.
func (s *stalledSource) Position() (int, int) {
	if s.rewind == nil {
		return 0, 0
	}
	return s.rewind.Position()
}

// RewindTo implements tfsim.Rewindable: the session source rewinds, and the
// handed count shrinks by the discarded kernels so the replayed iteration's
// first op is again recognized as an iteration boundary for stall draws.
func (s *stalledSource) RewindTo(iter int) int {
	if s.rewind == nil {
		return 0
	}
	discarded := s.rewind.RewindTo(iter)
	s.handed -= discarded
	return discarded
}

// outage is a half-open interval [from, to) during which the spy had no
// context on the device.
type outage struct {
	from, to gpu.Nanos
}

func sampleInOutage(s cupti.Sample, outages []outage) bool {
	for _, o := range outages {
		if s.Start < o.to && s.End > o.from {
			return true
		}
	}
	return false
}

// SegmentBounds maps re-anchor markers onto the (possibly fault-degraded)
// sample stream: each returned index is the first sample starting at or after
// a marker, so samples[b[k-1]:b[k]] (with implicit bounds 0 and len(samples))
// are the independent segments the spy observed between context losses.
// Markers that land before the first or after the last sample, or that
// collapse onto a previous cut, produce no boundary. Samples must be in start
// order, as Collect emits them.
func SegmentBounds(samples []cupti.Sample, reanchors []gpu.Nanos) []int {
	var cuts []int
	for _, r := range reanchors {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].Start >= r })
		if i <= 0 || i >= len(samples) {
			continue
		}
		if len(cuts) > 0 && i <= cuts[len(cuts)-1] {
			continue
		}
		cuts = append(cuts, i)
	}
	return cuts
}

// Label is the ground truth attached to one CUPTI sample.
type Label struct {
	// IsNOP marks samples dominated by victim idleness.
	IsNOP bool
	// Kind is the dominant op (zero when IsNOP).
	Kind dnn.OpKind
	// Long is the Mlong class.
	Long dnn.LongClass
	// Letter is the Table VII op letter ('N' for NOP).
	Letter byte
	// Iteration is the dominant op's training iteration (-1 when IsNOP).
	Iteration int
	// Op points at the dominant op's descriptor (nil when IsNOP).
	Op *dnn.Op
}

// Labels aligns every sample with the timeline using the largest-overlap
// rule and returns per-sample ground truth. A trace without a timeline
// (deserialized or hand-built) labels every sample NOP rather than panicking.
func (t *Trace) Labels() []Label {
	out := make([]Label, len(t.Samples))
	t.align(func(i int, e *tfsim.TimelineEvent) {
		if e == nil {
			out[i] = Label{IsNOP: true, Long: dnn.LongNOP, Letter: 'N', Iteration: -1}
			return
		}
		out[i] = Label{
			Kind:      e.Op.Kind,
			Long:      e.Op.Kind.LongClass(),
			Letter:    e.Op.Kind.Letter(),
			Iteration: e.Iteration,
			Op:        e.Op,
		}
	})
	return out
}

// SamplesPerIteration returns, for each observed iteration, how many samples
// were dominated by that iteration's ops. It counts during the alignment
// walk instead of building Labels.
func (t *Trace) SamplesPerIteration() map[int]int {
	counts := make(map[int]int)
	t.align(func(_ int, e *tfsim.TimelineEvent) {
		if e != nil {
			counts[e.Iteration]++
		}
	})
	return counts
}

// align calls fn for every sample in order with the timeline event that
// overlaps it most, or nil when none does (a NOP sample). Samples and
// timeline events both arrive in time order, so the alignment is a linear
// two-pointer sweep.
func (t *Trace) align(fn func(i int, e *tfsim.TimelineEvent)) {
	var events []tfsim.TimelineEvent
	if t.Timeline != nil {
		events = t.Timeline.Events()
	}
	idx := 0
	for i, s := range t.Samples {
		// Skip events that end before this sample starts.
		for idx < len(events) && events[idx].End <= s.Start {
			idx++
		}
		var (
			best    *tfsim.TimelineEvent
			bestLen gpu.Nanos
		)
		for j := idx; j < len(events) && events[j].Start < s.End; j++ {
			lo, hi := events[j].Start, events[j].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if overlap := hi - lo; overlap > bestLen {
				best, bestLen = &events[j], overlap
			}
		}
		fn(i, best)
	}
}
