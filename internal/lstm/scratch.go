package lstm

import "leakydnn/internal/par"

// scratch is the working memory of one pass over a network: an engine's
// forward buffers for every prediction, and for a Train call also the
// trainer's masters, gradient, Adam moments, backward deltas and gradient
// stages. All of it dies with the pass, so every pass borrows a scratch from
// one process-wide free list and binds it to its network, instead of
// building it afresh.
//
// Ownership rule: a scratch belongs to at most one running pass, and nothing
// reachable from a Network or a pass's result points into it. The weights
// and biases a pass reads, and the biases Train updates in place, are the
// network's own; Train copies its masters back into the network's weights
// after every step, and predictions copy labels and probabilities out. Reuse
// is therefore invisible: a pass on warm scratch computes exactly what it
// would on fresh memory, which the weight-hash goldens pin.
type scratch struct {
	engine
	trainer

	// floats backs every float buffer of the engine and trainer, laid out
	// by layout; it grows to fit the largest pass the scratch has served.
	floats []float64
}

// scratchList is the free list every pass borrows from. It keeps at most
// GOMAXPROCS idle scratches, so the idle memory a process retains is at most
// that many of the largest passes it has run.
var scratchList par.FreeList[scratch]

// carver lays buffers out one after another in one backing array. A
// counting pass (buf nil) only sums their sizes, so one layout both sizes
// the backing and carves it.
type carver struct {
	buf []float64
	n   int
}

// lineFloats is a cache line's worth of floats. Every buffer starts on a
// multiple of it: the backing of any pass big enough to matter is
// page-aligned by the allocator, so the AVX kernels never load across a
// cache line, as they did not when each buffer was allocated on its own.
const lineFloats = 8

// take returns the next n floats, capped so an append cannot reach the
// buffer after them, or nil while counting.
func (c *carver) take(n int) []float64 {
	start := c.n
	c.n += (n + lineFloats - 1) / lineFloats * lineFloats
	if c.buf == nil {
		return nil
	}
	return c.buf[start : start+n : start+n]
}

// fit returns s resliced to length n, or a new slice when its capacity is
// short; the contents are whatever they were.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bind points the engine at n for passes over up to bcap sequences of up to
// T timesteps, and with train binds the trainer too: the masters (biases
// shared with the network, weight matrices transposed from its view), a
// zero gradient and zero Adam moments. Without train, a step shares its
// state with the step two back: the recurrence only reads the previous
// step, and inference only reads probs back, so a prediction's memory grows
// by B×C floats per timestep; Train keeps every step's state for BPTT.
func (s *scratch) bind(n *Network, bcap, T int, train bool) {
	e := &s.engine
	e.w = n.w
	e.hidden, e.in, e.classes = n.cfg.Hidden, n.cfg.InputDim, n.cfg.Classes
	e.bcap = bcap
	nstates := min(T, 2)
	if train {
		nstates = T
	}
	e.steps = fit(e.steps, T)
	e.states = fit(e.states, nstates)
	e.lens = fit(e.lens, bcap)
	e.batch = fit(e.batch, bcap)

	count := carver{}
	s.layout(&count, train)
	if cap(s.floats) < count.n {
		// Drop every view of the old backing that this layout will not
		// overwrite, so an idle scratch holds one backing, not two.
		clear(e.steps[len(e.steps):cap(e.steps)])
		clear(e.states[len(e.states):cap(e.states)])
		s.trainer = trainer{idx: s.idx}
	}
	s.floats = fit(s.floats, count.n)
	s.layout(&carver{buf: s.floats}, train)
	clear(e.hzero)
	if !train {
		return
	}
	t := &s.trainer
	t.p.b, t.p.by = n.w.b, n.w.by
	n.mastersInto(t.p)
	for _, p := range [3]params{t.g, t.adam.m, t.adam.v} {
		for _, x := range p.tensors() {
			clear(x)
		}
	}
	t.adam.t = 0
	t.cw = n.cfg.ClassWeights
	t.idx = fit(t.idx, bcap)
}

// layout carves the bound pass's float buffers from c, in a fixed order.
func (s *scratch) layout(c *carver, train bool) {
	e, t := &s.engine, &s.trainer
	b, h, in, cls := e.bcap, e.hidden, e.in, e.classes
	e.hzero, e.z, e.ztmp, e.logits = c.take(b*h), c.take(b*4*h), c.take(b*4*h), c.take(b*cls)
	for k := range e.states {
		e.states[k] = state{
			x: c.take(b * in),
			i: c.take(b * h), f: c.take(b * h), g: c.take(b * h), o: c.take(b * h),
			c: c.take(b * h), h: c.take(b * h), tanhC: c.take(b * h),
		}
	}
	for k := range e.steps {
		e.steps[k] = step{state: &e.states[k%len(e.states)], probs: c.take(b * cls)}
	}
	if !train {
		return
	}
	t.p = params{wx: c.take(4 * h * in), wh: c.take(4 * h * h), wy: c.take(cls * h)}
	for _, p := range [3]*params{&t.g, &t.adam.m, &t.adam.v} {
		*p = params{wx: c.take(4 * h * in), wh: c.take(4 * h * h), b: c.take(4 * h), wy: c.take(cls * h), by: c.take(cls)}
	}
	t.dz = c.take(b * 4 * h)
	t.dh, t.dc, t.dcNext, t.dhNext, t.htmp = c.take(b*h), c.take(b*h), c.take(b*h), c.take(b*h), c.take(b*h)
	t.dLogits = c.take(b * cls)
	t.stageZ.lay(c, 4*h, [2][]float64{t.g.wx, t.g.wh}, [2]int{in, h})
	t.stageY.lay(c, cls, [2][]float64{t.g.wy}, [2]int{h})
}

// release drops the scratch's references to the network and the inputs it
// was bound to, so an idle scratch keeps neither alive, and returns it to
// the free list.
func (s *scratch) release() {
	s.w, s.cw = nil, nil
	s.p.b, s.p.by = nil, nil
	clear(s.batch)
	scratchList.Put(s)
}
