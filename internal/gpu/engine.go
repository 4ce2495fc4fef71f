package gpu

import (
	"fmt"
	"math/rand"
)

// ContextID identifies a CUDA context (one per process sharing the GPU).
type ContextID int

// Source feeds kernels to one GPU channel (hardware stream). The engine calls
// Next whenever the channel is idle; the returned notBefore models host-side
// delays (kernel launch latency, inter-iteration data preparation).
type Source interface {
	// Next returns the next kernel and the earliest simulated time it may
	// start. ok=false permanently retires the channel.
	Next(now Nanos) (k KernelProfile, notBefore Nanos, ok bool)
}

// SliceRecord describes one scheduler grant: which kernel of which context
// ran in [Start, End), and the performance-counter increments it generated.
// RefetchBytes is the portion of the traffic caused by re-loading L2 state
// evicted by other contexts — the context-switching penalty itself.
type SliceRecord struct {
	Ctx             ContextID
	Kernel          KernelProfile
	Start, End      Nanos
	Counters        CounterDelta
	RefetchBytes    float64
	TexRefetchBytes float64
	// Completed is true when the kernel finished during this slice.
	Completed bool
}

// KernelSpan reports one full kernel execution (used for the timeline
// profiler and per-kernel sampling).
type KernelSpan struct {
	Ctx        ContextID
	Kernel     KernelProfile
	Start, End Nanos
}

// Engine is the time-sliced (context-switching) GPU scheduler. Channels are
// served round-robin; every kernel earns a slice proportional to its
// occupancy; switching between contexts costs SwitchCost and disturbs L2
// residency, which the next victim of the disturbance pays for in DRAM
// refetch traffic.
//
// The per-slice hot path is O(live channels): retired channels leave the
// scheduling ring, and the cross-channel residency erosion is kept in ordered
// lazy-decay logs that a channel replays only when it is next granted, instead
// of an eager sweep over every channel ever attached.
type Engine struct {
	cfg DeviceConfig
	rng *rand.Rand

	// Per-context RNG streams (see IsolateContextStreams). When isolation is
	// off (the default), every draw comes from the shared rng, preserving the
	// historical byte-identical behaviour.
	isolated bool
	isoSeed  int64
	ctxRng   map[ContextID]*rand.Rand

	// channels holds every channel ever attached, in attach order. Retired
	// channels stay here — their residual L2 footprint keeps exerting
	// capacity pressure ("ghost residency") exactly as it did under the eager
	// sweep — but they are removed from the scheduling ring below.
	channels []*channel
	// live is the compacted round-robin ring: exactly the non-retired
	// channels, in attach order. cursor is the ring position of the next
	// channel pickRunnable inspects.
	live   []*channel
	cursor int

	now     Nanos
	lastCtx ContextID

	// Runlist-slot accounting: per scheduling pass, each context may place
	// at most RunlistSlotsPerCtx channels. passServed is dense, indexed by
	// context id (ids are small non-negative integers everywhere in the
	// simulator), because the pick path reads it once per ring slot per pass —
	// at fleet scale the map hashing dominated the walk.
	passServed []int
	passCount  int

	// l2Log is the ordered lazy-decay log of the L2 residency model: every
	// slice whose streamed traffic eroded other channels (or whose capacity
	// pressure rescaled everyone) appends one step. A channel's l2Epoch is
	// the absolute log index (l2Base + offset) up to which its stored
	// residency is current; catchUpL2 replays the missed steps in order,
	// which performs the exact same float multiplications in the exact same
	// order as the historical eager sweep. texLog/texEpoch are the
	// texture-cache analogue (decay-only; the texture model has no capacity
	// rescale).
	l2Log   []resStep
	l2Base  int
	texLog  []float64
	texBase int

	// totalResident tracks the sum of every channel's L2 residency (live and
	// ghost) so the capacity-pressure test is O(1) per slice. It follows the
	// same recurrence as the eager sweep's fresh summation but accumulates
	// rounding differently; DeviceConfig.ExactResidencyTotal switches back to
	// the eager bit-exact sweep.
	totalResident float64

	// free is the recycled-channel-struct list a scratch-backed engine draws
	// from on AddChannel (see EngineScratch); empty on fresh engines.
	free []*channel

	// OnSlice, if set, observes every scheduler grant. The record belongs to
	// the engine, which overwrites it on the next slice: a consumer reads it
	// during the call and copies out whatever it keeps, never the pointer.
	OnSlice func(*SliceRecord)
	// OnKernelEnd, if set, observes every kernel completion.
	OnKernelEnd func(KernelSpan)

	busy map[ContextID]Nanos // accumulated execution time per context

	// rec is the record OnSlice observes. Passing a pointer to engine-owned
	// storage keeps the 200-odd-byte record from being copied at every hop
	// of the hook chain, and a field (unlike a local whose address is taken)
	// never escapes to the heap.
	rec SliceRecord
}

// resStep is one entry of the L2 lazy-decay log: the slice's survival factor
// (1 - evictFrac) for every non-granted channel, then the capacity-pressure
// rescale applied to every channel (1 when the rescale did not fire — a real
// rescale is always strictly below 1).
type resStep struct {
	decay float64
	scale float64
}

// maxResLog bounds the decay logs: when one grows past this, every channel is
// caught up (a bit-exact replay) and the log prefix is dropped. The sweep is
// amortized O(1) per slice, and a retired channel's residency underflows to
// zero after a bounded number of replayed steps, after which catch-up is a
// constant-time epoch jump.
const maxResLog = 4096

// refetchRateFactor bounds how much faster than its steady-state read rate a
// kernel can re-warm its evicted working set: re-fetches are demand misses,
// so they can at most double-ish the kernel's read stream.
const refetchRateFactor = 2.0

type channel struct {
	ctx    ContextID
	source Source

	// current is the in-flight kernel (valid when hasKernel). Stored by value
	// so refill performs no heap allocation per launch.
	current   KernelProfile
	hasKernel bool
	// occ/readRate/writeRate/texRate memoize Occupancy and TrafficRates for
	// the current kernel. They are pure in (kernel, device config), so
	// computing them once per refill instead of once per slice is bit-exact.
	occ       float64
	readRate  float64
	writeRate float64
	texRate   float64

	remaining Nanos // remaining exclusive-device execution time
	started   Nanos // wall-clock start of the current kernel
	notBefore Nanos
	done      bool

	// resident is the channel's working set currently held in L2, valid as
	// of log position l2Epoch. Other channels' streaming traffic erodes it;
	// the deficit is repaid as counter-visible DRAM refetch traffic when the
	// channel next runs.
	resident float64
	l2Epoch  int
	// texResident is the analogous texture-cache state as of texEpoch; only
	// texture-path kernels (convolutions) erode it, making its refetch a
	// conv-specific fingerprint.
	texResident float64
	texEpoch    int
}

// NewEngine builds a time-sliced engine over cfg. The rng drives slice
// jitter, sub-partition imbalance and measurement noise; pass a seeded
// source for reproducible runs.
func NewEngine(cfg DeviceConfig, rng *rand.Rand) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("gpu: engine requires a rand source")
	}
	return &Engine{
		cfg:     cfg,
		rng:     rng,
		busy:    make(map[ContextID]Nanos),
		lastCtx: -1,
	}, nil
}

// AddChannel registers a kernel source for ctx. Each call creates one
// hardware channel; a context may own several (this is how the slow-down
// attack multiplies the spy's share of the round-robin). Under the hardened
// scheduler (MaxChannelsPerCtx > 0) an unprotected context's channels beyond
// the cap are rejected, and AddChannel reports whether the channel was
// accepted. Retired and detached channels no longer hold driver channel
// slots, so a context that lost its channels to a reset can re-arm under the
// same cap.
func (e *Engine) AddChannel(ctx ContextID, src Source) bool {
	if e.ChannelSlotsFree(ctx) == 0 {
		return false
	}
	ch := e.allocChannel()
	ch.ctx = ctx
	ch.source = src
	ch.l2Epoch = e.l2Base + len(e.l2Log)
	ch.texEpoch = e.texBase + len(e.texLog)
	e.channels = append(e.channels, ch)
	e.live = append(e.live, ch)
	return true
}

// ChannelSlotsFree reports how many more channels ctx may attach under the
// hardened scheduler's cap. -1 means unlimited: no cap is configured, or ctx
// is the protected context, which the cap never applies to. Only live
// channels hold driver slots — retired and detached channels free theirs.
func (e *Engine) ChannelSlotsFree(ctx ContextID) int {
	if e.cfg.MaxChannelsPerCtx <= 0 || ctx == e.cfg.ProtectedCtx {
		return -1
	}
	count := 0
	for _, ch := range e.live {
		if ch.ctx == ctx {
			count++
		}
	}
	if free := e.cfg.MaxChannelsPerCtx - count; free > 0 {
		return free
	}
	return 0
}

// AddChannelBatch attaches every source to ctx, or none of them: the batch is
// validated against the channel cap up front, so a caller arming several
// channels at once (the spy's eight slow-down kernels) is never left
// half-armed by a mid-batch rejection. Reports whether the batch attached.
func (e *Engine) AddChannelBatch(ctx ContextID, srcs []Source) bool {
	if free := e.ChannelSlotsFree(ctx); free >= 0 && free < len(srcs) {
		return false
	}
	for _, src := range srcs {
		e.AddChannel(ctx, src)
	}
	return true
}

// AddChannelAt registers a channel whose kernels may not start before at — a
// deferred attach. The driver accepts the channel now (it occupies a channel
// slot immediately) but its first launch is floored at the given time; the
// spy's post-reset re-arming uses this to model the watchdog delay plus
// arming backoff.
func (e *Engine) AddChannelAt(ctx ContextID, src Source, at Nanos) bool {
	if at > 0 {
		src = &floorSource{inner: src, at: at}
	}
	return e.AddChannel(ctx, src)
}

// floorSource floors every launch of the inner source at a fixed time; only
// launches before that time are affected.
type floorSource struct {
	inner Source
	at    Nanos
}

// Next implements Source.
func (f *floorSource) Next(now Nanos) (KernelProfile, Nanos, bool) {
	k, notBefore, ok := f.inner.Next(now)
	if ok && notBefore < f.at {
		notBefore = f.at
	}
	return k, notBefore, ok
}

// DetachContext force-retires every live channel of ctx, as a driver reset
// tearing the context down does: in-flight kernels are lost mid-slice, the
// channels stop receiving grants, and the context's L2/texture residency is
// flushed. It returns how many channels were detached. The context may
// re-attach later via AddChannel/AddChannelAt; new channels start cold.
func (e *Engine) DetachContext(ctx ContextID) int {
	n := 0
	for _, ch := range e.channels {
		if ch.ctx != ctx || ch.done {
			continue
		}
		ch.done = true
		ch.hasKernel = false
		ch.remaining = 0
		n++
	}
	if n > 0 {
		e.compactLive()
	}
	e.InvalidateResidency(ctx)
	return n
}

// InvalidateResidency flushes the L2 and texture-cache residency of every
// channel of ctx (alive or not): the next slice of any re-attached channel
// pays full warm-up refetch traffic, exactly like a context whose state a
// reset destroyed.
func (e *Engine) InvalidateResidency(ctx ContextID) {
	l2End := e.l2Base + len(e.l2Log)
	texEnd := e.texBase + len(e.texLog)
	for _, ch := range e.channels {
		if ch.ctx != ctx {
			continue
		}
		// Bring the stored value current first so the running total sheds
		// exactly this channel's present-day contribution.
		e.catchUpL2(ch)
		e.totalResident -= ch.resident
		ch.resident = 0
		ch.l2Epoch = l2End
		ch.texResident = 0
		ch.texEpoch = texEnd
	}
	if e.totalResident < 0 {
		e.totalResident = 0
	}
}

// IsolateContextStreams switches the engine's randomness (slice jitter,
// counter noise, sub-partition imbalance) from the single shared stream to
// per-context streams derived from seed. With isolation on, the k-th slice of
// a context draws the k-th values of that context's own stream, so adding or
// removing a co-tenant mid-run cannot perturb the victim's or the spy's
// randomness — the property the churn-determinism regression pins. Call it
// before Run; the shared-stream default preserves historical byte-identical
// traces.
func (e *Engine) IsolateContextStreams(seed int64) {
	e.isolated = true
	e.isoSeed = seed
	e.ctxRng = make(map[ContextID]*rand.Rand)
}

// rngFor returns the RNG stream for ctx: the shared stream unless isolation
// is enabled.
func (e *Engine) rngFor(ctx ContextID) *rand.Rand {
	if !e.isolated {
		return e.rng
	}
	r, ok := e.ctxRng[ctx]
	if !ok {
		// Golden-ratio key spreads adjacent context ids across seed space.
		const phi = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64
		r = rand.New(rand.NewSource(e.isoSeed ^ (int64(ctx)+1)*phi))
		e.ctxRng[ctx] = r
	}
	return r
}

// Now returns the current simulated time.
func (e *Engine) Now() Nanos { return e.now }

// BusyTime returns the accumulated execution (not wall-clock) time granted
// to ctx so far.
func (e *Engine) BusyTime(ctx ContextID) Nanos { return e.busy[ctx] }

// Run advances the simulation until the given time, or until every channel
// retires, whichever comes first.
func (e *Engine) Run(until Nanos) {
	for e.now < until {
		ch := e.pickRunnable(until)
		if ch == nil {
			return
		}
		e.grantSlice(ch, until)
	}
}

// pickRunnable selects the next channel round-robin over the live ring. If no
// channel is runnable now but some are waiting on notBefore, time advances to
// the earliest wake-up (capped at until). Returns nil when all channels
// retired or the horizon was reached while idle.
func (e *Engine) pickRunnable(until Nanos) *channel {
	for {
		var earliest Nanos = -1
		anyAlive := false
		capSkipped := false
		// One pass visits each ring slot exactly once: a channel that
		// retires is unlinked in place (the next element slides into the
		// cursor slot), so the walk neither skips nor revisits anyone.
		for pass := len(e.live); pass > 0; pass-- {
			if len(e.live) == 0 {
				break
			}
			if e.cursor >= len(e.live) {
				e.cursor = 0
			}
			ch := e.live[e.cursor]
			anyAlive = true
			if !ch.hasKernel && !e.refill(ch) {
				// Source exhausted: the channel leaves the scheduling ring
				// for good (its ghost residency stays in the decay model).
				e.unlinkLive(e.cursor)
				continue
			}
			e.cursor++
			if e.cursor == len(e.live) {
				e.cursor = 0
			}
			if e.cfg.RunlistSlotsPerCtx > 0 && e.servedSlots(ch.ctx) >= e.cfg.RunlistSlotsPerCtx {
				// This context exhausted its runlist slots for the pass;
				// its surplus channels wait.
				capSkipped = true
				continue
			}
			if ch.notBefore <= e.now {
				e.notePassSlot(ch.ctx)
				return ch
			}
			if earliest < 0 || ch.notBefore < earliest {
				earliest = ch.notBefore
			}
		}
		if earliest < 0 {
			if anyAlive && capSkipped {
				// Only slot-capped channels remain runnable: the pass is
				// effectively over, start a new one.
				e.passCount = 0
				clear(e.passServed)
				continue
			}
			return nil
		}
		if earliest >= until {
			e.now = until
			return nil
		}
		e.now = earliest
	}
}

// notePassSlot charges one runlist slot to ctx, resetting the accounting
// when a full pass over the live ring has been served. Counting live
// channels (not every channel ever attached) keeps the pass length honest
// after DetachContext or source exhaustion shrinks the ring.
func (e *Engine) notePassSlot(ctx ContextID) {
	if e.cfg.RunlistSlotsPerCtx <= 0 {
		return
	}
	for int(ctx) >= len(e.passServed) {
		e.passServed = append(e.passServed, 0)
	}
	e.passServed[ctx]++
	e.passCount++
	if e.passCount >= len(e.live) {
		e.passCount = 0
		clear(e.passServed)
	}
}

// servedSlots reads ctx's runlist-slot count for the current pass; contexts
// past the dense array's high-water mark have not been served yet.
func (e *Engine) servedSlots(ctx ContextID) int {
	if int(ctx) >= len(e.passServed) {
		return 0
	}
	return e.passServed[ctx]
}

// unlinkLive removes the ring entry at index i, keeping the cursor pointing
// at the same next channel.
func (e *Engine) unlinkLive(i int) {
	e.live = append(e.live[:i], e.live[i+1:]...)
	if e.cursor > i {
		e.cursor--
	}
	if e.cursor >= len(e.live) {
		e.cursor = 0
	}
}

// compactLive drops every retired channel from the ring after a batch
// retirement (DetachContext), preserving ring order and the cursor's next
// channel.
func (e *Engine) compactLive() {
	kept := e.live[:0]
	newCursor := 0
	for i, ch := range e.live {
		if ch.done {
			continue
		}
		if i < e.cursor {
			newCursor = len(kept) + 1
		}
		kept = append(kept, ch)
	}
	e.live = kept
	if newCursor >= len(kept) {
		newCursor = 0
	}
	e.cursor = newCursor
}

// refill asks the channel's source for its next kernel, memoizing the
// kernel's occupancy and traffic rates for the slices to come. Reports
// whether the channel now has (or is waiting on) a kernel.
func (e *Engine) refill(ch *channel) bool {
	k, notBefore, ok := ch.source.Next(e.now)
	if !ok {
		ch.done = true
		return false
	}
	ch.current = k
	ch.hasKernel = true
	d := k.Duration(e.cfg)
	ch.remaining = d
	ch.occ = k.Occupancy(e.cfg)
	// TrafficRates inlined over the same duration value: bit-identical to
	// calling it per slice, computed once per launch.
	df := float64(d)
	ch.readRate = k.ReadBytes / df
	ch.writeRate = k.WriteBytes / df
	ch.texRate = k.TexBytes / df
	ch.notBefore = notBefore
	if ch.notBefore < e.now {
		ch.notBefore = e.now
	}
	ch.started = ch.notBefore
	return true
}

// grantSlice runs ch's kernel for one occupancy-scaled time slice. The slice
// always starts strictly before until: when the context-switch cost alone
// reaches the horizon, the switched-in context keeps residency but its grant
// waits for the next Run call, so Run can only overshoot the horizon by one
// slice's refetch stall.
func (e *Engine) grantSlice(ch *channel, until Nanos) {
	if ch.ctx != e.lastCtx && e.lastCtx >= 0 {
		e.now += e.cfg.SwitchCost
	}
	e.lastCtx = ch.ctx
	if e.now >= until {
		return
	}

	if ch.started < e.now {
		// The kernel was preempted mid-flight; keep its original start.
	} else {
		ch.started = e.now
	}

	// Occupancy-scaled slice: full-device kernels earn the full quantum.
	// The hardened scheduler additionally boosts the protected context.
	slice := Nanos(float64(e.cfg.SliceQuantum) * ch.occ)
	if e.cfg.ProtectedCtx != 0 && ch.ctx == e.cfg.ProtectedCtx && e.cfg.ProtectedBoost > 1 {
		slice = Nanos(float64(slice) * e.cfg.ProtectedBoost)
	}
	if slice < e.cfg.MinSlice {
		slice = e.cfg.MinSlice
	}
	slice = jitter(slice, e.cfg.JitterFrac, e.rngFor(ch.ctx))

	run := slice
	if ch.remaining < run {
		run = ch.remaining
	}
	if run <= 0 {
		run = 1
	}
	// e.now < until here, so this clamp keeps run >= 1 while guaranteeing
	// the execution part of the grant ends by the horizon.
	if rem := until - e.now; run > rem {
		run = rem
	}

	refetch := e.touchL2(ch, run)
	texRefetch := e.touchTex(ch, run)
	stall := Nanos((refetch + texRefetch) / e.cfg.DRAMBytesPerNs)

	rec := &e.rec
	rec.Ctx = ch.ctx
	rec.Kernel = ch.current
	rec.Start = e.now
	rec.End = e.now + run + stall
	rec.RefetchBytes = refetch
	rec.TexRefetchBytes = texRefetch
	rec.Completed = false
	rec.Counters = e.sliceCounters(ch, run, refetch, texRefetch, e.rngFor(ch.ctx))

	e.now = rec.End
	e.busy[ch.ctx] += run
	ch.remaining -= run

	if ch.remaining <= 0 {
		rec.Completed = true
		if e.OnKernelEnd != nil {
			e.OnKernelEnd(KernelSpan{Ctx: ch.ctx, Kernel: ch.current, Start: ch.started, End: e.now})
		}
		ch.hasKernel = false
		ch.notBefore = e.now + e.cfg.LaunchGap
	}
	if e.OnSlice != nil {
		e.OnSlice(rec)
	}
}

// catchUpL2 replays the L2 decay-log steps the channel missed since it was
// last touched, in order. Each step performs the same multiplications the
// historical eager sweep would have applied at that slice, so the stored
// residency is bit-identical to the eager model's. A channel whose residency
// already decayed to zero skips the replay (0 * f == +0 for every
// non-negative factor in the log).
func (e *Engine) catchUpL2(ch *channel) {
	end := e.l2Base + len(e.l2Log)
	if ch.l2Epoch >= end {
		return
	}
	if ch.resident == 0 {
		ch.l2Epoch = end
		return
	}
	for _, s := range e.l2Log[ch.l2Epoch-e.l2Base:] {
		ch.resident *= s.decay
		if s.scale != 1 {
			ch.resident *= s.scale
		}
	}
	ch.l2Epoch = end
}

// catchUpTex is the texture-cache analogue of catchUpL2.
func (e *Engine) catchUpTex(ch *channel) {
	end := e.texBase + len(e.texLog)
	if ch.texEpoch >= end {
		return
	}
	if ch.texResident == 0 {
		ch.texEpoch = end
		return
	}
	for _, decay := range e.texLog[ch.texEpoch-e.texBase:] {
		ch.texResident *= decay
	}
	ch.texEpoch = end
}

// maybeCompactLogs bounds the decay logs' memory: once a log passes
// maxResLog entries, every channel is caught up (a bit-exact replay of the
// pending steps) and the log is reset.
func (e *Engine) maybeCompactLogs() {
	if len(e.l2Log) >= maxResLog {
		for _, ch := range e.channels {
			e.catchUpL2(ch)
		}
		e.l2Base += len(e.l2Log)
		e.l2Log = e.l2Log[:0]
	}
	if len(e.texLog) >= maxResLog {
		for _, ch := range e.channels {
			e.catchUpTex(ch)
		}
		e.texBase += len(e.texLog)
		e.texLog = e.texLog[:0]
	}
}

// touchL2 updates the residency model for a slice of ch's kernel and returns
// the bytes the channel had to refetch because other channels' streaming
// traffic evicted its working set since it last ran. Refetch is bounded by
// what the kernel can actually touch during the slice (a multiple of its
// read rate times the slice length): a kernel recovering a flushed working
// set pays for it across several slices, exactly like real cache warm-up.
//
// The erosion of the other channels is recorded as one decay-log step
// instead of an eager sweep; each channel replays its missed steps in order
// when next touched, which reproduces the eager sweep's per-channel float
// trajectory bit for bit. The only quantity that cannot be maintained
// bit-exactly in O(1) is the capacity-pressure total (a fresh in-order
// summation under the eager sweep, a running recurrence here);
// cfg.ExactResidencyTotal selects the historical summation for runs pinned
// by golden hashes.
func (e *Engine) touchL2(ch *channel, run Nanos) float64 {
	e.catchUpL2(ch)

	capacity := e.cfg.L2Bytes * e.cfg.L2ResidencyCap
	demand := ch.current.WorkingSetBytes
	if demand > capacity {
		demand = capacity
	}
	deficit := demand - ch.resident
	if deficit < 0 {
		deficit = 0
	}
	touchable := refetchRateFactor * ch.readRate * float64(run)
	refetch := deficit
	if refetch > touchable {
		refetch = touchable
	}
	prev := ch.resident
	if ch.resident+refetch < demand {
		ch.resident += refetch
	} else {
		ch.resident = demand
	}
	e.totalResident += ch.resident - prev

	// Streaming traffic flushes other channels' lines in proportion to how
	// much data moved through L2 during the slice. This is the victim-op
	// fingerprint: bandwidth-heavy element-wise ops flush far more per slice
	// than compute-bound convolutions.
	streamed := (ch.readRate + ch.writeRate) * float64(run)
	evictFrac := streamed / e.cfg.L2Bytes
	if evictFrac > 1 {
		evictFrac = 1
	}
	decay := 1 - evictFrac

	if e.cfg.ExactResidencyTotal {
		// Historical eager sweep: decay everyone else, sum fresh in attach
		// order, rescale under capacity pressure. Bit-identical to the
		// pre-log engine. The L2 log stays empty in this mode — every
		// channel is updated eagerly, so there is never anything to replay.
		var total float64
		for _, other := range e.channels {
			if other != ch {
				other.resident *= decay
			}
			total += other.resident
		}
		if total > e.cfg.L2Bytes {
			scale := e.cfg.L2Bytes / total
			for _, other := range e.channels {
				other.resident *= scale
			}
			e.totalResident = e.cfg.L2Bytes
		} else {
			e.totalResident = total
		}
		return refetch
	}

	// Fast path: the aggregate follows the same recurrence the eager sweep's
	// summation computes — ch keeps its value, everyone else decays — in
	// O(1).
	total := ch.resident + (e.totalResident-ch.resident)*decay
	scale := 1.0
	if total > e.cfg.L2Bytes {
		scale = e.cfg.L2Bytes / total
		total = e.cfg.L2Bytes
	}
	e.totalResident = total
	if decay != 1 || scale != 1 {
		e.l2Log = append(e.l2Log, resStep{decay: decay, scale: scale})
		if scale != 1 {
			// The granted channel skips its own entry's decay but does
			// take the rescale, like everyone else.
			ch.resident *= scale
		}
	}
	ch.l2Epoch = e.l2Base + len(e.l2Log)
	e.maybeCompactLogs()
	return refetch
}

// touchTex updates the texture-cache residency model and returns the bytes
// of texture working set the channel had to re-query because texture-path
// kernels of other channels evicted it.
func (e *Engine) touchTex(ch *channel, run Nanos) float64 {
	e.catchUpTex(ch)

	demand := ch.current.TexWorkingSetBytes
	if demand > e.cfg.TexCacheBytes {
		demand = e.cfg.TexCacheBytes
	}
	deficit := demand - ch.texResident
	if deficit < 0 {
		deficit = 0
	}
	touchable := refetchRateFactor * ch.texRate * float64(run)
	refetch := deficit
	if refetch > touchable {
		refetch = touchable
	}
	if ch.texResident+refetch < demand {
		ch.texResident += refetch
	} else {
		ch.texResident = demand
	}

	// Only texture traffic erodes texture-cache state: convolutions flush
	// the spy's texture set, element-wise and GEMM ops leave it intact.
	texStreamed := ch.texRate * float64(run)
	evictFrac := texStreamed / e.cfg.TexCacheBytes
	if evictFrac > 1 {
		evictFrac = 1
	}
	if evictFrac > 0 {
		e.texLog = append(e.texLog, 1-evictFrac)
	}
	ch.texEpoch = e.texBase + len(e.texLog)
	return refetch
}

// sliceCounters attributes performance-counter increments for running ch's
// kernel for run nanoseconds, plus the L2 and texture refetch penalties. rng
// is the granted context's noise stream (the shared stream unless
// per-context isolation is enabled).
func (e *Engine) sliceCounters(ch *channel, run Nanos, refetch, texRefetch float64, rng *rand.Rand) CounterDelta {
	dur := float64(run)
	sec := e.cfg.SectorBytes

	readSec := noisy(ch.readRate*dur/sec, e.cfg.NoiseFrac, rng)
	writeSec := noisy(ch.writeRate*dur/sec, e.cfg.NoiseFrac, rng)
	texSec := noisy(ch.texRate*dur/sec, e.cfg.NoiseFrac, rng)
	refetchSec := noisy(refetch/sec, e.cfg.NoiseFrac, rng)
	texRefetchSec := noisy(texRefetch/sec, e.cfg.NoiseFrac, rng)

	var d CounterDelta
	d.FBReadSectors = splitAcross(readSec+refetchSec+texRefetchSec, e.cfg.SubpImbalance, rng)
	d.FBWriteSectors = splitAcross(writeSec, e.cfg.SubpImbalance, rng)
	d.TexQueries = splitAcross(texSec+texRefetchSec, e.cfg.SubpImbalance, rng)
	d.L2ReadMisses = splitAcross(readSec*e.cfg.ColdMissFrac+refetchSec, e.cfg.SubpImbalance, rng)
	d.L2WriteMisses = splitAcross(writeSec*e.cfg.WriteMissFrac, e.cfg.SubpImbalance, rng)
	return d
}
