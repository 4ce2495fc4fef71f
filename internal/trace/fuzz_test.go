package trace

import (
	"encoding/binary"
	"reflect"
	"testing"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/tfsim"
)

// fuzzTrace decodes an arbitrary byte string into a trace: a sample stream
// and a timeline, both with attacker-controlled (but time-ordered) geometry.
// The decoder is deliberately forgiving — every input maps to some trace —
// so the fuzzer explores alignment edge cases (zero-length samples, events
// enclosing many samples, huge gaps, empty sides) rather than parser errors.
func fuzzTrace(data []byte) *Trace {
	read16 := func() (uint16, bool) {
		if len(data) < 2 {
			return 0, false
		}
		v := binary.LittleEndian.Uint16(data)
		data = data[2:]
		return v, true
	}

	tr := &Trace{Timeline: &tfsim.Timeline{}}
	nSamples, _ := read16()
	nEvents, _ := read16()
	// Bound the trace size so each execution stays microsecond-scale; the
	// interesting space is geometry, not volume.
	nSamples %= 256
	nEvents %= 256

	var t gpu.Nanos
	for i := 0; i < int(nSamples); i++ {
		gap, ok1 := read16()
		dur, ok2 := read16()
		val, _ := read16()
		if !ok1 || !ok2 {
			break
		}
		start := t + gpu.Nanos(gap)
		end := start + gpu.Nanos(dur) // dur 0 => zero-length sample
		var s cupti.Sample
		s.Start, s.End = start, end
		for e := range s.Values {
			s.Values[e] = float64(val) * float64(e+1)
		}
		tr.Samples = append(tr.Samples, s)
		t = end
	}

	// Ops live for the whole trace so event pointers stay valid.
	ops := make([]dnn.Op, 0, nEvents)
	t = 0
	for i := 0; i < int(nEvents); i++ {
		gap, ok1 := read16()
		dur, ok2 := read16()
		kind, _ := read16()
		if !ok1 || !ok2 {
			break
		}
		ops = append(ops, dnn.Op{Kind: dnn.OpKind(kind % 16)})
		start := t + gpu.Nanos(gap)
		end := start + gpu.Nanos(dur) + 1 // events need positive duration
		tr.Timeline.Observe(gpu.KernelSpan{
			Ctx:    VictimCtx,
			Kernel: gpu.KernelProfile{Name: "fuzz", Tag: &tfsim.IterOp{Op: &ops[len(ops)-1], Iteration: i / 4}},
			Start:  start,
			End:    end,
		})
		t = end
	}
	tr.Ops = ops

	// Re-anchor markers: arbitrary (not necessarily ordered or in-range)
	// times, exercising SegmentBounds' sanitization.
	nAnchors, _ := read16()
	for i := 0; i < int(nAnchors%8); i++ {
		at, ok := read16()
		if !ok {
			break
		}
		tr.Reanchors = append(tr.Reanchors, gpu.Nanos(at)*17)
	}
	return tr
}

// FuzzAlignment drives the sample/timeline alignment (Labels and everything
// stacked on it: SamplesPerIteration and the Health iteration accounting)
// over arbitrary trace geometry, plus SegmentBounds over arbitrary re-anchor
// markers. The properties: no panic, one label per sample, the label-free
// SamplesPerIteration count equals the per-iteration count of non-NOP
// labels, the quarantine identity holds for any iteration count, and segment
// cuts are always a strictly increasing partition of the sample stream's
// interior.
func FuzzAlignment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 2, 0, 1, 0, 5, 0, 7, 0, 0, 0, 3, 0, 9, 0, 1, 0, 2, 0})
	f.Add(make([]byte, 64))
	// Multi-segment seeds: sample streams with re-anchor markers in range
	// (cutting), out of range, duplicated, and descending.
	f.Add([]byte{
		8, 0, 2, 0, // 8 samples, 2 events
		1, 0, 4, 0, 1, 0, 1, 0, 4, 0, 2, 0, 1, 0, 4, 0, 3, 0, // samples
		1, 0, 4, 0, 4, 0, 1, 0, 4, 0, 5, 0, 1, 0, 4, 0, 6, 0,
		1, 0, 4, 0, 7, 0, 1, 0, 4, 0, 8, 0,
		2, 0, 6, 0, 1, 0, 2, 0, 6, 0, 2, 0, // events
		3, 0, 1, 0, 2, 0, 1, 0, // 3 anchors: 17, 34, 17 (dup + descending)
	})
	f.Add([]byte{
		4, 0, 0, 0,
		0, 0, 9, 0, 1, 0, 0, 0, 9, 0, 2, 0, 0, 0, 9, 0, 3, 0, 0, 0, 9, 0, 4, 0,
		2, 0, 1, 0, 255, 255, // anchors: one in range, one far past the stream
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		cuts := SegmentBounds(tr.Samples, tr.Reanchors)
		prev := 0
		for _, c := range cuts {
			if c <= prev || c >= len(tr.Samples) {
				t.Fatalf("segment cut %d outside (previous %d, stream %d)", c, prev, len(tr.Samples))
			}
			prev = c
		}
		if len(cuts) > len(tr.Reanchors) {
			t.Fatalf("%d cuts from %d markers", len(cuts), len(tr.Reanchors))
		}
		labels := tr.Labels()
		if len(labels) != len(tr.Samples) {
			t.Fatalf("alignment produced %d labels for %d samples", len(labels), len(tr.Samples))
		}
		fromLabels := map[int]int{}
		for i, l := range labels {
			if l.IsNOP && (l.Op != nil || l.Iteration != -1) {
				t.Fatalf("label %d: NOP with op ground truth attached: %+v", i, l)
			}
			if !l.IsNOP && l.Op == nil {
				t.Fatalf("label %d: busy label without an op", i)
			}
			if !l.IsNOP {
				fromLabels[l.Iteration]++
			}
		}
		if counts := tr.SamplesPerIteration(); !reflect.DeepEqual(counts, fromLabels) {
			t.Fatalf("SamplesPerIteration %v, non-NOP labels count %v", counts, fromLabels)
		}
		for _, total := range []int{0, 1, tr.Timeline.Iterations(), 64} {
			h := &Health{}
			tr.computeIterationHealth(h, total)
			if h.IterationsProcessed+h.IterationsQuarantined != h.IterationsTotal {
				t.Fatalf("iteration identity broken for total=%d: %+v", total, h)
			}
		}
	})
}
