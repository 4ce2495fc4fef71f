package tfsim

import (
	"encoding/json"
	"sort"

	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
)

// TimelineEvent is one profiled op execution: the ground truth an adversary
// aligns CUPTI samples against when building her training set (§V-A).
type TimelineEvent struct {
	Name       string
	Start, End gpu.Nanos
	Iteration  int
	Op         *dnn.Op
}

// Timeline records victim op executions, mirroring TensorFlow's timeline
// module under trace_level=FULL_TRACE.
type Timeline struct {
	events []TimelineEvent
}

// Observe consumes a kernel completion from the GPU engine. Spans whose tag
// is not an IterOp (e.g. spy kernels) are ignored.
func (tl *Timeline) Observe(span gpu.KernelSpan) {
	tag, ok := span.Kernel.Tag.(*IterOp)
	if !ok {
		return
	}
	tl.events = append(tl.events, TimelineEvent{
		Name:      span.Kernel.Name,
		Start:     span.Start,
		End:       span.End,
		Iteration: tag.Iteration,
		Op:        tag.Op,
	})
}

// Events returns the recorded op executions in completion order.
func (tl *Timeline) Events() []TimelineEvent { return tl.events }

// TimelineFromEvents rebuilds a timeline from previously recorded events, in
// the order given — the constructor a deserialized trace uses to restore its
// ground truth without replaying the co-run. The timeline takes ownership of
// events; the caller must not modify the slice afterwards.
func TimelineFromEvents(events []TimelineEvent) *Timeline {
	return &Timeline{events: events}
}

// Iterations returns the number of distinct iterations observed.
func (tl *Timeline) Iterations() int {
	seen := make(map[int]bool)
	for _, e := range tl.events {
		seen[e.Iteration] = true
	}
	return len(seen)
}

// IterationSpan returns the wall-clock span of the given iteration and
// whether it was observed.
func (tl *Timeline) IterationSpan(iter int) (start, end gpu.Nanos, ok bool) {
	for _, e := range tl.events {
		if e.Iteration != iter {
			continue
		}
		if !ok || e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
		ok = true
	}
	return start, end, ok
}

// DominantOp returns the event with the largest overlap with [start, end),
// mirroring the paper's "largest overlap" labelling rule, or ok=false when
// no event overlaps the window (the window is a NOP gap).
func (tl *Timeline) DominantOp(start, end gpu.Nanos) (TimelineEvent, bool) {
	var (
		best    TimelineEvent
		bestLen gpu.Nanos
		found   bool
	)
	for _, e := range tl.events {
		s, t := e.Start, e.End
		if s < start {
			s = start
		}
		if t > end {
			t = end
		}
		if overlap := t - s; overlap > 0 && overlap > bestLen {
			best, bestLen, found = e, overlap, true
		}
	}
	return best, found
}

// chromeTraceEvent is the Chrome tracing ("chrome://tracing") event format
// TensorFlow's timeline module exports.
type chromeTraceEvent struct {
	Name     string         `json:"name"`
	Phase    string         `json:"ph"`
	TsMicros float64        `json:"ts"`
	DurUs    float64        `json:"dur"`
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Args     map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeTraceEvent `json:"traceEvents"`
}

// MarshalChromeTrace renders the timeline as a Chrome tracing JSON document.
func (tl *Timeline) MarshalChromeTrace() ([]byte, error) {
	events := append([]TimelineEvent(nil), tl.events...)
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })

	doc := chromeTrace{TraceEvents: make([]chromeTraceEvent, 0, len(events))}
	for _, e := range events {
		args := map[string]any{"iteration": e.Iteration}
		if e.Op != nil {
			args["layer"] = e.Op.Layer
			args["op_seq"] = e.Op.Seq
			if e.Op.NumFilters > 0 {
				args["filters"] = e.Op.NumFilters
				args["filter_size"] = e.Op.FilterSize
				args["stride"] = e.Op.Stride
			}
			if e.Op.Neurons > 0 {
				args["neurons"] = e.Op.Neurons
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeTraceEvent{
			Name:     e.Name,
			Phase:    "X",
			TsMicros: float64(e.Start) / 1e3,
			DurUs:    float64(e.End-e.Start) / 1e3,
			PID:      1, // "GPU:0/compute"
			TID:      0,
			Args:     args,
		})
	}
	return json.MarshalIndent(doc, "", "  ")
}
