package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/tfsim"
)

// FuzzReadTrace throws arbitrary bytes at both wire format versions: hostile
// length prefixes, truncated chunks and frames, bit-flipped gob payloads,
// malformed binary frames and trailing garbage must all come back as errors — never a panic, an unbounded
// allocation, or a silently partial read. Every trace that does decode must
// equal, value for value, both the trace its own bytes decode to alone and
// the trace its re-serialization decodes to. Version 1's gob omits zero-valued
// fields and leaves their destination untouched, so a decoder that reused memory without
// zeroing it would leak an earlier trace's values into a later one; only a
// value-level comparison like this one notices.
func FuzzReadTrace(f *testing.F) {
	encode := func(traces ...*Trace) []byte {
		var buf bytes.Buffer
		if err := WriteTraces(&buf, traces); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	one := encode(smallTrace(3))
	f.Add(one)
	f.Add(one[:len(one)/2])                                                                         // truncated mid-trace
	f.Add(append(append([]byte{}, one...), 0xde, 0xad))                                             // trailing garbage
	f.Add(append(append([]byte{}, one...), encode(smallTrace(400))...))                             // multi-trace
	f.Add([]byte(traceMagicV1))                                                                     // magic only
	f.Add(append([]byte(traceMagicV1), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // overflowing length
	f.Add(append([]byte(traceMagicV1), 0xff, 0xff, 0xff, 0x7f))                                     // huge length, no payload
	f.Add(hostileInnerLength(traceMagicV1, 12, 9<<20, 8))                                           // gob length beyond the chunk
	f.Add(encode(wireGoldenTrace(), zeroedLike(wireGoldenTrace())))                                 // stale-value bait
	{
		flip := append([]byte{}, one...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	f.Add(writeV1(f, wireGoldenTrace()))                                 // version 1
	f.Add(append(writeV1(f, smallTrace(3)), one...))                     // versions mixed
	f.Add(hostileInnerLength(traceMagicV2+"\x01", 12, 9<<20, 8))         // gob length beyond the frame
	f.Add(append(v2Header(f, &traceHeader{SampleCount: 1}), 0x02, 0xff)) // sample frame cut in its length
	for _, tc := range hostileFrames(f) {
		f.Add(tc.body)
	}

	f.Fuzz(checkReadTrace)
}

// checkReadTrace is FuzzReadTrace's property on one input.
func checkReadTrace(t *testing.T, data []byte) {
	// The tight guard is the network-ingestion configuration; it must
	// bound work without ever changing a success into a panic.
	d := NewReader(bytes.NewReader(data))
	d.SetMaxChunkBytes(1 << 20)
	var decoded []*Trace
	var starts []int64
	for {
		start := d.Offset()
		tr, err := d.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && d.Offset() == 0 && len(data) > 0 {
				t.Fatalf("error before consuming any bytes: %v", err)
			}
			break
		}
		if tr == nil {
			t.Fatal("Read returned nil trace with nil error")
		}
		decoded = append(decoded, tr)
		starts = append(starts, start, d.Offset())
	}

	for i, tr := range decoded {
		// A trace's own bytes, decoded by a fresh Reader, must give the
		// same trace: nothing may carry over from earlier traces.
		alone, err := ReadTrace(bytes.NewReader(data[starts[2*i]:starts[2*i+1]]))
		if err != nil {
			t.Fatalf("trace %d decodes in the stream but not alone: %v", i, err)
		}
		if err := tracesEqual(alone, tr); err != nil {
			t.Fatalf("trace %d decodes differently alone: %v", i, err)
		}
		// The format has no accept-but-cannot-rewrite states.
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("trace %d decoded but will not re-serialize: %v", i, err)
		}
		back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trace %d round trip failed: %v", i, err)
		}
		if err := tracesEqual(back, tr); err != nil {
			t.Fatalf("trace %d round trip changed it: %v", i, err)
		}
	}
}

// zeroedLike returns a trace shaped like tr whose samples, timeline events
// and run counters are all zero: decoded after tr, any field a decoder failed
// to reset would surface as one of tr's values.
func zeroedLike(tr *Trace) *Trace {
	z := &Trace{Model: tr.Model, Ops: tr.Ops, Samples: make([]cupti.Sample, len(tr.Samples))}
	z.Timeline = tfsim.TimelineFromEvents(make([]tfsim.TimelineEvent, len(tr.Timeline.Events())))
	return z
}

// tracesEqual reports the first difference between two traces at the value
// level: every sample counter bit for bit, every header field, and every
// timeline event including the op-table entry it points at.
func tracesEqual(a, b *Trace) error {
	same := func(x, y any) bool { return fmt.Sprintf("%#v", x) == fmt.Sprintf("%#v", y) }
	switch {
	case !same(a.Model, b.Model):
		return fmt.Errorf("model differs: %#v vs %#v", a.Model, b.Model)
	case !same(a.Ops, b.Ops):
		return errors.New("op table differs")
	case a.VictimWall != b.VictimWall, a.SpyProbeLaunches != b.SpyProbeLaunches,
		a.SpyChannelsRejected != b.SpyChannelsRejected, a.SchedSlices != b.SchedSlices:
		return errors.New("run counters differ")
	case !same(a.Reanchors, b.Reanchors):
		return fmt.Errorf("re-anchors differ: %v vs %v", a.Reanchors, b.Reanchors)
	case (a.Health == nil) != (b.Health == nil) || a.Health != nil && !same(*a.Health, *b.Health):
		return fmt.Errorf("health differs: %+v vs %+v", a.Health, b.Health)
	case len(a.Samples) != len(b.Samples):
		return fmt.Errorf("%d samples vs %d", len(a.Samples), len(b.Samples))
	}
	for i, s := range a.Samples {
		o := b.Samples[i]
		if s.Start != o.Start || s.End != o.End {
			return fmt.Errorf("sample %d spans [%d,%d] vs [%d,%d]", i, s.Start, s.End, o.Start, o.End)
		}
		for e, v := range s.Values {
			if math.Float64bits(v) != math.Float64bits(o.Values[e]) {
				return fmt.Errorf("sample %d counter %d: %v vs %v", i, e, v, o.Values[e])
			}
		}
	}
	ae, be := a.Timeline.Events(), b.Timeline.Events()
	if len(ae) != len(be) {
		return fmt.Errorf("%d timeline events vs %d", len(ae), len(be))
	}
	for i := range ae {
		x, y := ae[i], be[i]
		if x.Name != y.Name || x.Start != y.Start || x.End != y.End || x.Iteration != y.Iteration {
			return fmt.Errorf("event %d differs: %+v vs %+v", i, x, y)
		}
		if xi, yi := opIndex(a, x.Op), opIndex(b, y.Op); xi != yi {
			return fmt.Errorf("event %d points at op %d vs %d", i, xi, yi)
		}
	}
	return nil
}

// opIndex is op's position in tr's own op table, -1 for nil and -2 for a
// pointer outside the table.
func opIndex(tr *Trace, op *dnn.Op) int {
	if op == nil {
		return -1
	}
	for i := range tr.Ops {
		if op == &tr.Ops[i] {
			return i
		}
	}
	return -2
}
