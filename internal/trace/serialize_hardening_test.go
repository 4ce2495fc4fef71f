package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/wire"
	"leakydnn/internal/zoo"
)

// smallTrace builds a cheap synthetic trace for wire-format tests that do not
// need a real co-run.
func smallTrace(samples int) *Trace {
	t := &Trace{}
	for i := 0; i < samples; i++ {
		t.Samples = append(t.Samples, cupti.Sample{})
	}
	return t
}

func traceBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Trailing garbage after a complete trace must fail loudly with the byte
// offset of the garbage, never silently drop the tail: a collection file
// whose tail is damaged looks exactly like this.
func TestReadTracesTrailingGarbageFailsWithOffset(t *testing.T) {
	full := traceBytes(t, smallTrace(3))
	damaged := append(append([]byte{}, full...), []byte("GARBAGE")...)
	got, err := ReadTraces(bytes.NewReader(damaged))
	if err == nil {
		t.Fatalf("trailing garbage silently dropped: read %d traces", len(got))
	}
	want := fmt.Sprintf("byte offset %d", len(full))
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the garbage offset (%s)", err, want)
	}
}

// A partial final chunk — the classic interrupted download — must fail with
// the offset, and must not silently return only the complete prefix traces.
func TestReadTracesPartialFinalChunkFailsWithOffset(t *testing.T) {
	first := traceBytes(t, smallTrace(2))
	second := traceBytes(t, smallTrace(5))
	stream := append(append([]byte{}, first...), second...)
	for _, cut := range []int{len(first) + 1, len(first) + len(second)/2, len(stream) - 1} {
		got, err := ReadTraces(bytes.NewReader(stream[:cut]))
		if err == nil {
			t.Fatalf("cut at %d/%d accepted: read %d traces", cut, len(stream), len(got))
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("cut at %d: error %q carries no byte offset", cut, err)
		}
		if !strings.Contains(err.Error(), "trace 1") {
			t.Fatalf("cut at %d: error %q does not name the failing trace index", cut, err)
		}
	}
}

// A short single-byte truncation of the magic itself must also be loud.
func TestReadTracePartialMagicFails(t *testing.T) {
	full := traceBytes(t, smallTrace(1))
	if _, err := ReadTrace(bytes.NewReader(full[:3])); err == nil ||
		!strings.Contains(err.Error(), "byte offset 0") {
		t.Fatalf("partial magic: err = %v, want truncated-magic error at offset 0", err)
	}
}

// The Reader's chunk guard must reject oversized length prefixes before
// buffering anything, and the offset accounting must line up across traces in
// a stream.
func TestReaderChunkGuardAndOffset(t *testing.T) {
	first := traceBytes(t, smallTrace(2))
	second := traceBytes(t, smallTrace(3))
	stream := append(append([]byte{}, first...), second...)

	d := NewReader(bytes.NewReader(stream))
	if _, err := d.Read(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != int64(len(first)) {
		t.Fatalf("offset after first trace = %d, want %d", d.Offset(), len(first))
	}
	if _, err := d.Read(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() != int64(len(stream)) {
		t.Fatalf("offset after second trace = %d, want %d", d.Offset(), len(stream))
	}
	if _, err := d.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean stream end: err = %v, want io.EOF", err)
	}

	tight := NewReader(bytes.NewReader(stream))
	tight.SetMaxChunkBytes(8)
	if _, err := tight.Read(); err == nil || !strings.Contains(err.Error(), "exceeds limit 8") {
		t.Fatalf("tight chunk guard: err = %v, want exceeds-limit error", err)
	}
}

// frame is one frame of kind around payload.
func frame(kind chunkKind, payload []byte) []byte {
	return append(binary.AppendUvarint([]byte{byte(kind)}, uint64(len(payload))), payload...)
}

// headerPayload is the payload of a header frame carrying hdr.
func headerPayload(hdr *traceHeader) []byte {
	c := wire.NewEncoder(nil)
	hdr.walk(c)
	return c.Bytes()
}

// withHeader is the magic and a header frame carrying hdr.
func withHeader(hdr *traceHeader) []byte {
	return append([]byte(traceMagicV3), frame(chunkHeader, headerPayload(hdr))...)
}

// sampleRecords is the payload of a sample frame.
func sampleRecords(samples ...cupti.Sample) []byte {
	var b []byte
	for _, s := range samples {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.End))
		for _, v := range s.Values {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// hostileLead is everything before a header frame's length prefix.
const hostileLead = traceMagicV3 + string(rune(chunkHeader))

// Hostile headers: a length prefix claiming gigabytes backed by no data, and
// header counts that are negative or overflowed, must fail cheaply instead of
// allocating or panicking.
func TestReadTraceHostileHeader(t *testing.T) {
	// Huge length prefix, no payload.
	huge := append([]byte(hostileLead), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := ReadTrace(bytes.NewReader(huge)); err == nil {
		t.Fatal("overflowing length prefix accepted")
	}
	big := append([]byte(hostileLead), 0xff, 0xff, 0xff, 0x7f) // ~256 MB claim
	if _, err := ReadTrace(bytes.NewReader(big)); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length prefix: err = %v, want exceeds-limit error", err)
	}

	// Negative header counts.
	if _, err := ReadTrace(bytes.NewReader(withHeader(&traceHeader{SampleCount: -1}))); err == nil ||
		!strings.Contains(err.Error(), "negative counts") {
		t.Fatalf("negative sample count: err = %v, want negative-counts error", err)
	}

	// A header promising fewer samples than the frames deliver must be
	// caught by the overflow check rather than ballooning memory.
	over := append(withHeader(&traceHeader{SampleCount: 1}),
		frame(chunkSamples, sampleRecords(cupti.Sample{}, cupti.Sample{}))...)
	if _, err := ReadTrace(bytes.NewReader(over)); err == nil ||
		!strings.Contains(err.Error(), "overflows the header") {
		t.Fatalf("sample overflow: err = %v, want overflow error", err)
	}
}

// hostileOpCount is an upload of lead (the magic and the header frame's
// kind) and a header whose length prefix says frameLen and whose op count
// claims claim ops, followed by only present bytes of payload.
func hostileOpCount(lead string, frameLen, claim uint64, present int) []byte {
	b := binary.AppendUvarint([]byte(lead), frameLen)
	b = append(b, make([]byte, 7)...) // empty name, input shape, batch, layers and optimizer
	b = binary.AppendUvarint(b, claim)
	return append(b, make([]byte, present)...)
}

// allocsOf reports the bytes allocated while fn runs.
func allocsOf(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A count inside a header is as hostile as the header's own prefix: a few
// bytes of input must never buy megabytes of allocation, whether the claim
// overruns the frame or its prefix backs the claim and the stream is simply
// cut short.
func TestReadTraceHostileInnerLength(t *testing.T) {
	countEnd := len(hostileLead) + 1 + 7 + 4 // the claim is a 4-byte uvarint
	for _, tc := range []struct {
		name     string
		body     []byte
		maxChunk int64
		want     string
	}{
		{"claim overruns frame", hostileOpCount(hostileLead, 19, 9<<20, 8), 1 << 20,
			fmt.Sprintf("header frame at byte offset 8: op count exceeds payload at byte offset %d", countEnd)},
		{"truncated, default guard", hostileOpCount(hostileLead, 9<<20+4, 9<<20, 8), 0,
			"frame at byte offset 8 truncated: read 19 of 9437188 payload bytes"},
		{"truncated, 1 MiB guard", hostileOpCount(hostileLead, 1<<20, 1<<20-4, 8), 1 << 20,
			"frame at byte offset 8 truncated: read 18 of 1048576 payload bytes"},
	} {
		var err error
		alloc := allocsOf(func() {
			d := NewReader(bytes.NewReader(tc.body))
			d.SetMaxChunkBytes(tc.maxChunk)
			_, err = d.Read()
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if alloc >= 64<<10 {
			t.Fatalf("%s: rejecting a %d-byte upload allocated %d bytes, want < 64 KiB", tc.name, len(tc.body), alloc)
		}
	}
}

// hostileFrames are uploads that break one rule of the binary frames each,
// with the error each must produce.
func hostileFrames(tb testing.TB) []struct {
	name, want string
	body       []byte
} {
	promise := &traceHeader{Ops: []dnn.Op{{Kind: dnn.OpMatMul}}, SampleCount: 1, EventCount: 1}
	hdr := withHeader(promise)
	event := func(nameLen uint64, name string, vals ...int64) []byte {
		b := append(binary.AppendUvarint(nil, nameLen), name...)
		for _, x := range vals {
			b = binary.AppendVarint(b, x)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	sample := frame(chunkSamples, sampleRecords(cupti.Sample{}))
	good := cat(hdr, sample, frame(chunkEvents, event(2, "op", 1, 2, 0, 0)), frame(chunkEnd, nil))
	return []struct {
		name, want string
		body       []byte
	}{
		{"ragged sample frame", "holds 97 bytes, not a multiple of 96",
			cat(hdr, frame(chunkSamples, make([]byte, sampleRecordBytes+1)))},
		{"name past its frame", "name length 40 runs past the frame's 6 remaining bytes",
			cat(hdr, frame(chunkEvents, event(40, "op", 0, 0, 0, -1)))},
		{"op index past the table", "op index 1 outside op table of 1",
			cat(hdr, frame(chunkEvents, event(2, "op", 0, 0, 0, 1)))},
		{"op index below -1", "op index -2 outside op table of 1",
			cat(hdr, frame(chunkEvents, event(2, "op", 0, 0, 0, -2)))},
		{"overflowing varint", "truncated or overflowing varint",
			cat(hdr, frame(chunkEvents, append(event(2, "op"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)))},
		{"overflowing name length", "truncated or overflowing name length",
			cat(hdr, frame(chunkEvents, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}))},
		{"events past the promise", "overflows the header's promise of 1 events",
			cat(hdr, frame(chunkEvents, cat(event(2, "op", 0, 0, 0, -1), event(2, "op", 0, 0, 0, -1))))},
		{"unknown kind", "unexpected frame kind 9", cat(hdr, frame(9, nil))},
		{"second header", "unexpected frame kind 1", cat(hdr, hdr[len(traceMagicV3):])},
		{"no header", "does not start with a header frame", cat([]byte(traceMagicV3), sample)},
		{"end frame with payload", "end frame at byte offset", cat(hdr, sample, frame(chunkEnd, []byte{0}))},
		{"counts short at the end", "stream carried 0 samples, header promised 1", cat(hdr, frame(chunkEnd, nil))},
		{"frame after the end frame", "bad magic", cat(good, sample)},
		{"header bytes past its walk", "trailing bytes",
			cat([]byte(traceMagicV3), frame(chunkHeader, append(headerPayload(promise), 0)))},
		{"op count past the frame", "op count exceeds payload", hostileOpCount(hostileLead, 12, 2, 4)},
		{"overflowing layer count", "bad varint", cat([]byte(traceMagicV3), frame(chunkHeader,
			[]byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}))},
	}
}

// Each rule of the binary frames is enforced with an error that names its
// byte offset, and rejecting a hostile upload stays cheap.
func TestReadTraceHostileFrames(t *testing.T) {
	for _, tc := range hostileFrames(t) {
		var err error
		alloc := allocsOf(func() {
			d := NewReader(bytes.NewReader(tc.body))
			d.SetMaxChunkBytes(1 << 20)
			for err == nil {
				_, err = d.Read()
			}
		})
		if err == nil || errors.Is(err, io.EOF) || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("%s: err = %v, want %q with a byte offset", tc.name, err, tc.want)
		}
		if alloc >= 64<<10 {
			t.Fatalf("%s: rejecting a %d-byte upload allocated %d bytes, want < 64 KiB", tc.name, len(tc.body), alloc)
		}
	}
}

// A real collected trace must still round-trip through the hardened reader
// with a tightened (but sufficient) chunk guard — the server-side ingestion
// configuration.
func TestReaderTightGuardAcceptsRealTrace(t *testing.T) {
	tr, err := Collect(zoo.TinyTestedModels()[0], fastRun(71, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	raw := traceBytes(t, tr)
	d := NewReader(bytes.NewReader(raw))
	d.SetMaxChunkBytes(4 << 20)
	got, err := d.Read()
	if err != nil {
		t.Fatal(err)
	}
	if err := tracesEqual(got, tr); err != nil {
		t.Fatalf("round trip changed the trace: %v", err)
	}
}

// How the underlying reader splits its data must not matter: one byte at a
// time, half of each request, or the final bytes arriving together with
// io.EOF all decode the same traces.
func TestReadTraceUnderlyingReaderShapes(t *testing.T) {
	tr, err := Collect(zoo.TinyTestedModels()[0], fastRun(72, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	raw := append(traceBytes(t, tr), traceBytes(t, smallTrace(5))...)
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-eof": iotest.DataErrReader,
	} {
		got, err := ReadTraces(wrap(bytes.NewReader(raw)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 2 {
			t.Fatalf("%s: read %d traces, want 2", name, len(got))
		}
		if err := tracesEqual(got[0], tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
