// Collection arenas: process-wide reusable scratch for the co-run hot path,
// whose spare trace buffers the upload decode shares.
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
//     the source, so the stream equals a freshly built one),
//   - the sample and timeline-event buffers of traces handed back with
//     Recycle, and the sample-count high-water mark that sizes a fresh
//     sampler buffer when no recycled one is big enough.
//
// Every Collect borrows an arena from one package-level set, a bounded free
// list the GC never empties: a process keeps its warm arenas from one
// campaign to the next, so allocation does not depend on GC timing. The set
// holds at most GOMAXPROCS idle arenas, and as many spare sample and event
// buffers, so its retained memory is bounded by the largest traces the
// process has collected or decoded.
//
// Decoding shares the spares. A Reader starts each trace in the smallest
// spare sample and event buffers that hold its header's (capped) counts,
// and allocates them as before when none does; a decode that fails gives
// its buffers back. A server that recycles each upload's traces once its
// response is written therefore decodes upload after upload into the same
// buffers, and a collection after them appends into whatever they left.
//
// Ownership rule: everything in an arena is owned by at most one live
// collection at a time, and nothing reachable from a returned *Trace may
// point into arena memory. A spare buffer leaves the set for exactly one
// collection or decode, whose trace then owns it. A trace's buffers enter the set only through
// Recycle, which takes them away from the trace: after Recycle, nothing may
// reach the recycled trace's samples or timeline events, through the trace
// or through any slice taken from it earlier. Reuse is therefore invisible —
// a run on a warm arena is byte-identical to one on a fresh arena, which the
// golden-hash tests pin.
package trace

import (
	"math/rand"
	"runtime"
	"sync"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/tfsim"
)

// Arena is one collection's reusable scratch. Not safe for concurrent use;
// each collection borrows its own from an arenaSet.
type Arena struct {
	engine gpu.EngineScratch
	tags   tfsim.TagSlab
	rng    *rand.Rand
	// samples and events are the spare buffers the set handed this arena
	// for its next collection; sampleHigh is the largest sample count any
	// collection has emitted.
	samples    []cupti.Sample
	events     []tfsim.TimelineEvent
	sampleHigh int
}

// arenaSet is a bounded free list of idle arenas plus spare trace buffers.
// The zero value is ready to use.
type arenaSet struct {
	mu         sync.Mutex
	idle       []*Arena
	samples    [][]cupti.Sample
	events     [][]tfsim.TimelineEvent
	sampleHigh int
}

// arenas is the process-wide set every Collect borrows from.
var arenas arenaSet

// Recycle hands a dead trace's sample and timeline-event buffers to the
// collection arenas, where a later Collect appends into them, and nils
// t.Samples and t.Timeline. The caller gives up both buffers: nothing may
// read them after the call, including slices of them taken before it.
// Everything else on t (Ops, Health, Reanchors, the counters) is left as it
// was.
func Recycle(t *Trace) { arenas.recycle(t) }

// collect runs one collection on an arena borrowed from the set.
func (s *arenaSet) collect(m dnn.Model, cfg RunConfig) (*Trace, error) {
	a := s.acquire()
	defer s.release(a)
	return collectOn(m, cfg, a)
}

// idleLimit bounds the idle arenas and each spare-buffer list: one per
// processor is enough for every collection that can run at once.
func idleLimit() int { return runtime.GOMAXPROCS(0) }

// acquire borrows an idle arena, or a new one, and gives it the largest
// spare sample and event buffers along with the set's high-water mark.
func (s *arenaSet) acquire() *Arena {
	s.mu.Lock()
	defer s.mu.Unlock()
	var a *Arena
	if n := len(s.idle); n > 0 {
		a = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		a = new(Arena)
	}
	a.samples, s.samples = takeLargest(s.samples)
	a.events, s.events = takeLargest(s.events)
	a.sampleHigh = s.sampleHigh
	return a
}

// release returns a borrowed arena, with any buffer its collection did not
// use, and folds its high-water mark into the set's.
func (s *arenaSet) release(a *Arena) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampleHigh = max(s.sampleHigh, a.sampleHigh)
	limit := idleLimit()
	s.samples = offer(s.samples, a.samples, limit)
	s.events = offer(s.events, a.events, limit)
	a.samples, a.events = nil, nil
	if len(s.idle) < limit {
		s.idle = append(s.idle, a)
	}
}

// recycle implements Recycle on this set.
func (s *arenaSet) recycle(t *Trace) {
	if t == nil {
		return
	}
	samples := t.Samples
	var events []tfsim.TimelineEvent
	if t.Timeline != nil {
		events = t.Timeline.Events()
	}
	t.Samples, t.Timeline = nil, nil
	s.reclaim(samples, events)
}

// reclaim adds a dead trace's sample and event buffers to the spares.
func (s *arenaSet) reclaim(samples []cupti.Sample, events []tfsim.TimelineEvent) {
	// Drop the dead run's *dnn.Op and name pointers, up to capacity, so the
	// idle buffer retains nothing and stale events cannot leak.
	clear(events[:cap(events)])
	s.mu.Lock()
	defer s.mu.Unlock()
	limit := idleLimit()
	s.samples = offer(s.samples, samples[:0], limit)
	s.events = offer(s.events, events[:0], limit)
}

// decodeBuffers hands a trace decode its empty sample and event buffers,
// sized for its header's (capped) counts: for each, the smallest spare that
// holds the count, else a fresh buffer of exactly that capacity, as a decode
// without spares allocates. A decode that fails gives both back through
// reclaim; one that succeeds owns them until its trace is recycled.
func (s *arenaSet) decodeBuffers(nSamples, nEvents int) ([]cupti.Sample, []tfsim.TimelineEvent) {
	s.mu.Lock()
	samples, spareSamples := takeFitting(s.samples, nSamples)
	events, spareEvents := takeFitting(s.events, nEvents)
	s.samples, s.events = spareSamples, spareEvents
	s.mu.Unlock()
	if samples == nil {
		samples = make([]cupti.Sample, 0, nSamples)
	}
	if events == nil {
		events = make([]tfsim.TimelineEvent, 0, nEvents)
	}
	return samples, events
}

// offer adds buf to a spare list of at most limit buffers. A full list keeps
// the larger of buf and its smallest spare, so a buffer is dropped only for
// bigger ones, never because a list happened to be full of small ones.
func offer[T any](spares [][]T, buf []T, limit int) [][]T {
	if cap(buf) == 0 {
		return spares
	}
	if len(spares) < limit {
		return append(spares, buf)
	}
	small := 0
	for i := range spares {
		if cap(spares[i]) < cap(spares[small]) {
			small = i
		}
	}
	if cap(buf) > cap(spares[small]) {
		spares[small] = buf
	}
	return spares
}

// takeLargest removes and returns the largest spare, or nil.
func takeLargest[T any](spares [][]T) ([]T, [][]T) {
	if len(spares) == 0 {
		return nil, spares
	}
	big := 0
	for i := range spares {
		if cap(spares[i]) > cap(spares[big]) {
			big = i
		}
	}
	buf := spares[big]
	last := len(spares) - 1
	spares[big] = spares[last]
	spares[last] = nil
	return buf, spares[:last]
}

// takeFitting removes and returns the smallest spare whose capacity holds n,
// or nil when none does or n is zero.
func takeFitting[T any](spares [][]T, n int) ([]T, [][]T) {
	fit := -1
	for i := range spares {
		if c := cap(spares[i]); c >= n && (fit < 0 || c < cap(spares[fit])) {
			fit = i
		}
	}
	if n == 0 || fit < 0 {
		return nil, spares
	}
	buf := spares[fit]
	last := len(spares) - 1
	spares[fit] = spares[last]
	spares[last] = nil
	return buf, spares[:last]
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

// sampleBuffer hands the collection its sampler output buffer: the spare
// one if it can hold the high-water count, else a fresh one of that size.
// Nil on a fresh arena.
func (a *Arena) sampleBuffer() []cupti.Sample {
	buf := a.samples
	a.samples = nil
	if cap(buf) < a.sampleHigh {
		buf = make([]cupti.Sample, 0, a.sampleHigh)
	}
	return buf
}

// eventBuffer hands the collection the spare timeline-event buffer, if any.
// Recycle cleared it, so it holds no stale events even past its length.
func (a *Arena) eventBuffer() []tfsim.TimelineEvent {
	buf := a.events
	a.events = nil
	return buf
}

// noteSamples raises the high-water mark to a collection's emitted count.
func (a *Arena) noteSamples(n int) {
	a.sampleHigh = max(a.sampleHigh, n)
}
