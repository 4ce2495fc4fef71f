// Collection arenas and spare trace buffers: the memory one collection or
// decode hands to the next, all of it on par.FreeList.
//
// One Collect builds and discards a whole simulator — engine, channels,
// residency logs, per-iteration kernel tags — while the only memory that
// outlives it is the Trace itself (samples, timeline events, health). A
// fleet campaign repeats that thousands of times, so the discarded state is
// a steady GC tax that grows with worker count and eats the parallel
// speedup. An Arena captures exactly the state that does NOT escape a
// collection and hands it to the next collection:
//
//   - the engine's internal scratch (channel structs, scheduling ring,
//     runlist-slot accounting, L2/texture decay logs),
//   - the sessions' per-iteration IterOp tag slabs (the timeline copies tag
//     fields out at kernel end; no tag pointer survives the engine),
//   - the engine's *rand.Rand, reseeded per collection (Seed fully resets
//     the source, so the stream equals a freshly built one).
//
// The memory that does escape, a trace's sample and timeline-event buffers,
// comes back through Recycle as one spare pair. Collect and a Reader both
// start a trace in the top spare pair, keeping each buffer that holds the
// count they need and replacing one that does not with a fresh buffer of
// exactly that count: a collection needs the sample high-water mark (the
// largest count any collection has emitted), a decode its header's capped
// counts. A decode that fails gives its pair back. A server that recycles
// each upload's traces once its response is written therefore decodes
// upload after upload into the same buffers, and a collection after them
// appends into whatever they left.
//
// Both lists keep at most GOMAXPROCS idle entries, so what they retain is
// bounded by GOMAXPROCS times the largest arena and the largest spare pair
// the process has grown.
//
// Ownership rule: everything in an arena is owned by at most one live
// collection at a time, and nothing reachable from a returned *Trace may
// point into arena memory. A spare pair leaves the list for exactly one
// collection or decode, whose trace then owns it. A trace's buffers enter
// the list only through Recycle, which takes them away from the trace: after
// Recycle, nothing may reach the recycled trace's samples or timeline
// events, through the trace or through any slice taken from it earlier.
// Reuse is therefore invisible — a run on a warm arena is byte-identical to
// one on a fresh arena, which the golden-hash tests pin.
package trace

import (
	"math/rand"
	"sync/atomic"

	"leakydnn/internal/cupti"
	"leakydnn/internal/gpu"
	"leakydnn/internal/par"
	"leakydnn/internal/tfsim"
)

// Arena is one collection's reusable scratch. Not safe for concurrent use;
// each collection borrows its own from arenas.
type Arena struct {
	engine gpu.EngineScratch
	tags   tfsim.TagSlab
	rng    *rand.Rand
}

// traceBufs is a dead trace's sample and timeline-event buffers, kept as one
// pair.
type traceBufs struct {
	samples []cupti.Sample
	events  []tfsim.TimelineEvent
}

var (
	// arenas holds the idle collection arenas, spares the recycled trace
	// buffers, and sampleHigh the largest sample count any collection has
	// emitted.
	arenas     par.FreeList[Arena]
	spares     par.FreeList[traceBufs]
	sampleHigh atomic.Int64
)

// Recycle hands a dead trace's sample and timeline-event buffers to the
// spares, where a later Collect or decode appends into them, and nils
// t.Samples and t.Timeline. The caller gives up both buffers: nothing may
// read them after the call, including slices of them taken before it.
// Everything else on t (Ops, Health, Reanchors, the counters) is left as it
// was.
func Recycle(t *Trace) {
	if t == nil {
		return
	}
	var events []tfsim.TimelineEvent
	if t.Timeline != nil {
		events = t.Timeline.Events()
	}
	putSpare(t.Samples, events)
	t.Samples, t.Timeline = nil, nil
}

// putSpare adds a dead trace's buffers to the spares as one pair. The events
// are cleared up to capacity first, so the idle buffer drops the dead run's
// *dnn.Op and name pointers and stale events cannot leak.
func putSpare(samples []cupti.Sample, events []tfsim.TimelineEvent) {
	if cap(samples) == 0 && cap(events) == 0 {
		return
	}
	clear(events[:cap(events)])
	spares.Put(&traceBufs{samples[:0], events[:0]})
}

// takeSpare borrows the top spare pair for a trace of nSamples samples and
// nEvents timeline events: each buffer is kept if it holds its count, and
// otherwise replaced by a fresh buffer of exactly that capacity.
func takeSpare(nSamples, nEvents int) ([]cupti.Sample, []tfsim.TimelineEvent) {
	b := spares.Get()
	samples, events := b.samples, b.events
	if cap(samples) < nSamples {
		samples = make([]cupti.Sample, 0, nSamples)
	}
	if cap(events) < nEvents {
		events = make([]tfsim.TimelineEvent, 0, nEvents)
	}
	return samples, events
}

// noteSamples raises the sample high-water mark to a collection's count.
func noteSamples(n int) {
	for {
		h := sampleHigh.Load()
		if int64(n) <= h || sampleHigh.CompareAndSwap(h, int64(n)) {
			return
		}
	}
}

// rand returns the engine RNG seeded with seed, reseeding the arena's own.
func (a *Arena) rand(seed int64) *rand.Rand {
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(seed))
	} else {
		a.rng.Seed(seed)
	}
	return a.rng
}
