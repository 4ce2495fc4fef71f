package gpu

import "math/rand"

// EngineScratch is an opaque bundle of engine-internal allocations — the
// channel structs, scheduling ring, runlist-slot accounting and residency
// decay logs — that one worker reuses across consecutive
// engines. A co-run's engine dies with the run, so everything it allocated
// is recyclable the moment the caller has pulled its samples out; routing
// those buffers through a scratch turns the per-collection constructor and
// attach costs into amortized-zero steady state.
//
// A scratch is single-owner: it must not back two live engines at once, and
// Release must only be called when the released engine will never be touched
// again. The zero value is ready to use.
type EngineScratch struct {
	channels   []*channel
	live       []*channel
	passServed []int
	l2Log      []resStep
	texLog     []float64
	free       []*channel
}

// NewEngineWith builds an engine like NewEngine, reusing the scratch's
// backing memory for the engine's internal state. A nil scratch is exactly
// NewEngine. Reuse is invisible to the simulation: every reused buffer is
// length-reset before the engine sees it, so a
// scratch-backed run is byte-identical to a fresh one.
func NewEngineWith(cfg DeviceConfig, rng *rand.Rand, s *EngineScratch) (*Engine, error) {
	e, err := NewEngine(cfg, rng)
	if err != nil {
		return nil, err
	}
	if s != nil {
		e.channels = s.channels[:0]
		e.live = s.live[:0]
		e.passServed = s.passServed[:0]
		e.l2Log = s.l2Log[:0]
		e.texLog = s.texLog[:0]
		e.free = s.free
		// The scratch no longer owns any of it until Release hands it back.
		*s = EngineScratch{}
	}
	return e, nil
}

// Release reclaims eng's internal allocations into the scratch for the next
// NewEngineWith call. The engine must be dead: nothing may call into it, and
// nothing the caller retains may alias its internals (samples and timelines
// never do — they are copied out of slice records).
func (s *EngineScratch) Release(eng *Engine) {
	if s == nil || eng == nil {
		return
	}
	// Zero the recycled structs now, not at next attach, so the scratch does
	// not retain the dead run's sources (and through them its sessions and
	// models) across the idle gap.
	for _, ch := range eng.channels {
		*ch = channel{}
	}
	s.free = append(eng.free, eng.channels...)
	s.channels = eng.channels[:0]
	s.live = eng.live[:0]
	s.passServed = eng.passServed[:0]
	s.l2Log = eng.l2Log[:0]
	s.texLog = eng.texLog[:0]
}

// allocChannel pops a recycled channel struct from the free list, or
// allocates a fresh one. Recycled structs are zeroed so an attach is
// indistinguishable from a fresh allocation.
func (e *Engine) allocChannel() *channel {
	if n := len(e.free); n > 0 {
		ch := e.free[n-1]
		e.free = e.free[:n-1]
		*ch = channel{}
		return ch
	}
	return &channel{}
}
