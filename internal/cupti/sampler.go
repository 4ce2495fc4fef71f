package cupti

import (
	"fmt"

	"leakydnn/internal/gpu"
)

// Sample is one CUPTI reading: the counter increments attributed to the
// profiled context during [Start, End).
type Sample struct {
	Start, End gpu.Nanos
	Values     [NumEvents]float64
}

// Vector returns the sample's counters as a feature vector in event order.
func (s Sample) Vector() []float64 {
	out := make([]float64, NumEvents)
	copy(out, s.Values[:])
	return out
}

// addDelta folds a gpu.CounterDelta (optionally scaled) into the sample.
func (s *Sample) addDelta(d gpu.CounterDelta) {
	s.Values[Tex0CacheSectorQueries] += d.TexQueries[0]
	s.Values[Tex1CacheSectorQueries] += d.TexQueries[1]
	s.Values[FBSubp0ReadSectors] += d.FBReadSectors[0]
	s.Values[FBSubp1ReadSectors] += d.FBReadSectors[1]
	s.Values[FBSubp0WriteSectors] += d.FBWriteSectors[0]
	s.Values[FBSubp1WriteSectors] += d.FBWriteSectors[1]
	s.Values[L2Subp0ReadSectorMisses] += d.L2ReadMisses[0]
	s.Values[L2Subp1ReadSectorMisses] += d.L2ReadMisses[1]
	s.Values[L2Subp0WriteSectorMisses] += d.L2WriteMisses[0]
	s.Values[L2Subp1WriteSectorMisses] += d.L2WriteMisses[1]
}

// WindowSampler integrates the slice records of one context into
// fixed-period sampling windows — the spy host thread polling CUPTI at a
// constant rate. Slices spanning a window boundary are split proportionally.
type WindowSampler struct {
	ctx    gpu.ContextID
	period gpu.Nanos

	started bool
	start   gpu.Nanos // start of the current window
	current Sample

	samples []Sample
}

// NewWindowSampler profiles ctx with the given sampling period. Samples are
// appended to buf from its start (its length is ignored), so a caller that
// recycles output buffers hands the old one back here; nil allocates as the
// run grows.
func NewWindowSampler(ctx gpu.ContextID, period gpu.Nanos, buf []Sample) (*WindowSampler, error) {
	if period <= 0 {
		return nil, fmt.Errorf("cupti: sampling period must be positive, got %d", period)
	}
	return &WindowSampler{ctx: ctx, period: period, samples: buf[:0]}, nil
}

// Observe consumes one scheduler slice record. Records must arrive in
// non-decreasing start order (as the engine emits them). rec is only read
// during the call; the sampler never retains it.
func (w *WindowSampler) Observe(rec *gpu.SliceRecord) {
	if rec.Ctx != w.ctx {
		return
	}
	if !w.started {
		w.started = true
		w.start = (rec.Start / w.period) * w.period
		w.current = Sample{Start: w.start, End: w.start + w.period}
	}
	start, end := rec.Start, rec.End
	if end <= start {
		end = start + 1
	}
	total := float64(end - start)
	for start < end {
		windowEnd := w.start + w.period
		if start >= windowEnd {
			w.flushWindow()
			continue
		}
		segEnd := end
		if segEnd > windowEnd {
			segEnd = windowEnd
		}
		frac := float64(segEnd-start) / total
		d := rec.Counters
		d.Scale(frac)
		w.current.addDelta(d)
		start = segEnd
	}
}

// Finish closes sampling at the given time, emitting every whole window up
// to it (including empty windows where the context was starved), and returns
// the collected samples.
func (w *WindowSampler) Finish(at gpu.Nanos) []Sample {
	if w.started {
		for w.start+w.period <= at {
			w.flushWindow()
		}
	}
	return w.samples
}

// Samples returns the windows emitted so far.
func (w *WindowSampler) Samples() []Sample { return w.samples }

func (w *WindowSampler) flushWindow() {
	w.samples = append(w.samples, w.current)
	w.start += w.period
	w.current = Sample{Start: w.start, End: w.start + w.period}
}

// KernelSampler emits one sample per completion of the monitored kernel, as
// the paper's spy does: counters accumulate across the profiled context and
// are read (and reset) when a probe kernel finishes.
type KernelSampler struct {
	ctx    gpu.ContextID
	kernel string // name of the probe kernel triggering reads

	pendingStart gpu.Nanos
	started      bool
	acc          Sample

	samples []Sample
}

// NewKernelSampler profiles ctx, reading counters at each completion of the
// kernel with the given name. Samples are appended to buf from its start, as
// in NewWindowSampler.
func NewKernelSampler(ctx gpu.ContextID, kernelName string, buf []Sample) *KernelSampler {
	return &KernelSampler{ctx: ctx, kernel: kernelName, samples: buf[:0]}
}

// Observe consumes one scheduler slice record, which it does not retain.
func (k *KernelSampler) Observe(rec *gpu.SliceRecord) {
	if rec.Ctx != k.ctx {
		return
	}
	if !k.started {
		k.started = true
		k.pendingStart = rec.Start
	}
	k.acc.addDelta(rec.Counters)
}

// ObserveKernelEnd consumes a kernel completion; a completion of the probe
// kernel emits a sample.
func (k *KernelSampler) ObserveKernelEnd(span gpu.KernelSpan) {
	if span.Ctx != k.ctx || span.Kernel.Name != k.kernel {
		return
	}
	s := k.acc
	s.Start = k.pendingStart
	s.End = span.End
	k.samples = append(k.samples, s)
	k.acc = Sample{}
	k.pendingStart = span.End
}

// Samples returns the per-kernel samples collected so far.
func (k *KernelSampler) Samples() []Sample { return k.samples }
