// Collection arenas: per-worker reusable scratch for the co-run hot path.
//
// One Collect builds and discards a whole simulator — engine, channels,
// residency logs, per-iteration kernel tags — while the only memory that
// outlives it is the Trace itself (samples, timeline events, health). A
// fleet campaign repeats that thousands of times, so the discarded state is
// a steady GC tax that grows with worker count and eats the parallel
// speedup. An Arena captures exactly the state that does NOT escape a
// collection and hands it to the next collection on the same worker:
//
//   - the engine's internal scratch (channel structs, scheduling ring,
//     runlist-slot accounting, L2/texture decay logs, busy map),
//   - the sessions' per-iteration IterOp tag slabs (the timeline copies tag
//     fields out at kernel end; no tag pointer survives the engine),
//   - the engine's *rand.Rand, reseeded per collection (Seed fully resets
//     the source, so the stream equals a freshly built one),
//   - the sample and timeline-event buffers of traces handed back with
//     Recycle, and the sample-count high-water mark that sizes a fresh
//     sampler buffer when no recycled one is big enough.
//
// Ownership rule: everything in the arena is owned by at most one live
// collection at a time, and nothing reachable from a returned *Trace may
// point into arena memory. A trace's buffers enter the arena only through
// Recycle, which takes them away from the trace: after Recycle, nothing may
// reach the recycled trace's samples or timeline events, through the trace
// or through any slice taken from it earlier. Reuse is therefore invisible —
// a pooled run is byte-identical to a fresh one, which the golden-hash tests
// pin.
package trace

import (
	"math/rand"
	"sync"

	"leakydnn/internal/cupti"
	"leakydnn/internal/gpu"
	"leakydnn/internal/tfsim"
)

// Arena is one worker's reusable collection scratch. Not safe for concurrent
// use; workers borrow arenas from an ArenaPool instead of sharing one.
type Arena struct {
	engine gpu.EngineScratch
	tags   tfsim.TagSlab
	rng    *rand.Rand
	// samples and events are recycled buffers waiting for the next
	// collection; sampleHigh is the largest sample count any collection on
	// this arena has emitted.
	samples    []cupti.Sample
	events     []tfsim.TimelineEvent
	sampleHigh int
}

// ArenaPool hands out Arenas to concurrent collections. Borrowing is
// sync.Pool-backed: a worker that collects repeatedly keeps hitting warm
// arenas, and idle arenas are GC-reclaimable, so a pool sized for a burst
// does not pin its high-water memory forever.
type ArenaPool struct {
	pool sync.Pool
}

// NewArenaPool returns an empty pool. Share one pool per campaign (fleet
// run, workbench, table sweep); every Collect given the pool via
// RunConfig.Arenas borrows from it for the duration of the call.
func NewArenaPool() *ArenaPool {
	return &ArenaPool{pool: sync.Pool{New: func() any { return new(Arena) }}}
}

// Recycle hands a dead trace's sample and timeline-event buffers to a pooled
// arena, where the next Collect appends into them, and nils t.Samples and
// t.Timeline. The caller gives up both buffers: nothing may read them after
// the call, including slices of them taken before it. Everything else on t
// (Ops, Health, Reanchors, the counters) is left as it was. A nil pool only
// detaches the buffers.
func (p *ArenaPool) Recycle(t *Trace) {
	if t == nil {
		return
	}
	samples := t.Samples
	var events []tfsim.TimelineEvent
	if t.Timeline != nil {
		events = t.Timeline.Events()
	}
	t.Samples, t.Timeline = nil, nil
	a := p.acquire()
	if a == nil {
		return
	}
	defer p.release(a)
	// Keep the larger buffer when the arena already holds one.
	if cap(samples) > cap(a.samples) {
		a.samples = samples[:0]
	}
	if cap(events) > cap(a.events) {
		// Drop the dead run's *dnn.Op and name pointers, up to capacity, so
		// the idle buffer retains nothing and stale events cannot leak.
		a.events = events[:0]
		clear(a.events[:cap(a.events)])
	}
}

// acquire borrows an arena; nil-safe (a nil pool yields a nil arena, and
// every arena consumer degrades to plain allocation on nil).
func (p *ArenaPool) acquire() *Arena {
	if p == nil {
		return nil
	}
	return p.pool.Get().(*Arena)
}

// release returns a borrowed arena.
func (p *ArenaPool) release(a *Arena) {
	if p != nil && a != nil {
		p.pool.Put(a)
	}
}

// engineScratch exposes the arena's engine scratch; nil on a nil arena.
func (a *Arena) engineScratch() *gpu.EngineScratch {
	if a == nil {
		return nil
	}
	return &a.engine
}

// tagSlab exposes the arena's kernel-tag slab; nil on a nil arena.
func (a *Arena) tagSlab() *tfsim.TagSlab {
	if a == nil {
		return nil
	}
	return &a.tags
}

// rand returns the engine RNG seeded with seed: the arena's reseeded one, or
// a fresh one on a nil arena.
func (a *Arena) rand(seed int64) *rand.Rand {
	if a == nil {
		return rand.New(rand.NewSource(seed))
	}
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(seed))
	} else {
		a.rng.Seed(seed)
	}
	return a.rng
}

// sampleBuffer hands the collection its sampler output buffer: the recycled
// one if it can hold the high-water count, else a fresh one of that size.
// Nil on a nil or never-used arena.
func (a *Arena) sampleBuffer() []cupti.Sample {
	if a == nil {
		return nil
	}
	buf := a.samples
	a.samples = nil
	if cap(buf) < a.sampleHigh {
		buf = make([]cupti.Sample, 0, a.sampleHigh)
	}
	return buf
}

// eventBuffer hands the collection the recycled timeline-event buffer, if
// any. Recycle cleared it, so it holds no stale events even past its length.
func (a *Arena) eventBuffer() []tfsim.TimelineEvent {
	if a == nil {
		return nil
	}
	buf := a.events
	a.events = nil
	return buf
}

// noteSamples raises the high-water mark to a collection's emitted count.
func (a *Arena) noteSamples(n int) {
	if a != nil && n > a.sampleHigh {
		a.sampleHigh = n
	}
}
