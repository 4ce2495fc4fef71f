package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
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

// frame is one version-2 frame of kind around payload.
func frame(kind chunkKind, payload []byte) []byte {
	return append(binary.AppendUvarint([]byte{byte(kind)}, uint64(len(payload))), payload...)
}

// headerGob is the payload of a version-2 header frame carrying hdr.
func headerGob(tb testing.TB, hdr *traceHeader) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hdr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// v2Header is the version-2 magic and a header frame carrying hdr.
func v2Header(tb testing.TB, hdr *traceHeader) []byte {
	return append([]byte(traceMagicV2), frame(chunkHeader, headerGob(tb, hdr))...)
}

// sampleRecords is the payload of a version-2 sample frame.
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

// wireVersion builds hostile input in one format version: lead is
// everything before the header's length prefix, header a whole trace opening
// with hdr, and samples a sample chunk or frame.
type wireVersion struct {
	name, lead string
	header     func(testing.TB, *traceHeader) []byte
	samples    func(testing.TB, ...cupti.Sample) []byte
}

var wireVersions = []wireVersion{
	{
		name: "v1", lead: traceMagicV1,
		header: func(tb testing.TB, hdr *traceHeader) []byte {
			return v1Stream(tb, chunk{Kind: chunkHeader, Header: hdr})
		},
		samples: func(tb testing.TB, s ...cupti.Sample) []byte {
			return v1Stream(tb, chunk{Kind: chunkSamples, Samples: s})[len(traceMagicV1):]
		},
	},
	{
		name: "v2", lead: traceMagicV2 + string(rune(chunkHeader)),
		header: v2Header,
		samples: func(_ testing.TB, s ...cupti.Sample) []byte {
			return frame(chunkSamples, sampleRecords(s...))
		},
	},
}

// Hostile headers: a length prefix claiming gigabytes backed by no data, and
// header counts that are negative or overflowed, must fail cheaply instead of
// allocating or panicking, in every format version.
func TestReadTraceHostileHeader(t *testing.T) {
	for _, v := range wireVersions {
		// Huge length prefix, no payload.
		huge := append([]byte(v.lead), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
		if _, err := ReadTrace(bytes.NewReader(huge)); err == nil {
			t.Fatalf("%s: overflowing length prefix accepted", v.name)
		}
		big := append([]byte(v.lead), 0xff, 0xff, 0xff, 0x7f) // ~256 MB claim
		if _, err := ReadTrace(bytes.NewReader(big)); err == nil ||
			!strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("%s: oversized length prefix: err = %v, want exceeds-limit error", v.name, err)
		}

		// Negative header counts.
		if _, err := ReadTrace(bytes.NewReader(v.header(t, &traceHeader{SampleCount: -1}))); err == nil ||
			!strings.Contains(err.Error(), "negative counts") {
			t.Fatalf("%s: negative sample count: err = %v, want negative-counts error", v.name, err)
		}

		// A header promising more samples than the chunks deliver, with extra
		// sample chunks beyond the promise, must be caught by the overflow
		// check rather than ballooning memory.
		over := append(v.header(t, &traceHeader{SampleCount: 1}), v.samples(t, cupti.Sample{}, cupti.Sample{})...)
		if _, err := ReadTrace(bytes.NewReader(over)); err == nil ||
			!strings.Contains(err.Error(), "overflows the header") {
			t.Fatalf("%s: sample overflow: err = %v, want overflow error", v.name, err)
		}
	}
}

// hostileInnerLength is an upload of lead (the magic, and in version 2 the
// header frame's kind) and a header whose length prefix says chunkLen and
// whose first gob message length claims claim bytes, followed by only
// present bytes of payload. The 21-byte version-1 case (a 12-byte chunk
// claiming 9 MiB) passes any chunk guard, and encoding/gob allocates any
// message claim under 10 MB before reading it.
func hostileInnerLength(lead string, chunkLen, claim uint64, present int) []byte {
	b := binary.AppendUvarint([]byte(lead), chunkLen)
	width := (bits.Len64(claim) + 7) / 8
	b = append(b, byte(-width)) // gob uint: negated width, then big-endian bytes
	for i := width - 1; i >= 0; i-- {
		b = append(b, byte(claim>>(8*i)))
	}
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

// The gob message length inside a header is as hostile as the header's own
// prefix: a few bytes of input must never buy megabytes of allocation,
// whether the claim overruns the chunk or frame or its prefix backs the
// claim and the stream is simply cut short.
func TestReadTraceHostileInnerLength(t *testing.T) {
	if n := len(hostileInnerLength(traceMagicV1, 12, 9<<20, 8)); n != 21 {
		t.Fatalf("hostile body is %d bytes, want 21", n)
	}
	for _, v := range wireVersions {
		unit, gobAt := "chunk", len(v.lead)+1
		if v.name == "v2" {
			unit = "frame"
		}
		for _, tc := range []struct {
			name     string
			body     []byte
			maxChunk int64
			want     string
		}{
			{"claim overruns " + unit, hostileInnerLength(v.lead, 12, 9<<20, 8), 1 << 20,
				fmt.Sprintf("%s at byte offset 8: gob message at byte offset %d claims 9437184 bytes, only 8 remain in the %s", unit, gobAt, unit)},
			{"truncated, default guard", hostileInnerLength(v.lead, 9<<20+4, 9<<20, 8), 0,
				unit + " at byte offset 8 truncated: read 12 of 9437188 payload bytes"},
			{"truncated, 1 MiB guard", hostileInnerLength(v.lead, 1<<20, 1<<20-4, 8), 1 << 20,
				unit + " at byte offset 8 truncated: read 12 of 1048576 payload bytes"},
		} {
			var err error
			alloc := allocsOf(func() {
				d := NewReader(bytes.NewReader(tc.body))
				d.SetMaxChunkBytes(tc.maxChunk)
				_, err = d.Read()
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s %s: err = %v, want %q", v.name, tc.name, err, tc.want)
			}
			if alloc >= 64<<10 {
				t.Fatalf("%s %s: rejecting a %d-byte upload allocated %d bytes, want < 64 KiB", v.name, tc.name, len(tc.body), alloc)
			}
		}
	}
}

// hostileFrames are version-2 uploads that break one rule of the binary
// frames each, with the error each must produce.
func hostileFrames(tb testing.TB) []struct {
	name, want string
	body       []byte
} {
	promise := &traceHeader{Ops: []dnn.Op{{Kind: dnn.OpMatMul}}, SampleCount: 1, EventCount: 1}
	hdr := v2Header(tb, promise)
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
		{"second header", "unexpected frame kind 1", cat(hdr, hdr[len(traceMagicV2):])},
		{"no header", "does not start with a header frame", cat([]byte(traceMagicV2), sample)},
		{"end frame with payload", "end frame at byte offset", cat(hdr, sample, frame(chunkEnd, []byte{0}))},
		{"counts short at the end", "stream carried 0 samples, header promised 1", cat(hdr, frame(chunkEnd, nil))},
		{"frame after the end frame", "bad magic", cat(good, sample)},
		{"header bytes past its gob value", "bytes past its gob value",
			cat([]byte(traceMagicV2), frame(chunkHeader, append(headerGob(tb, promise), 0)))},
	}
}

// Each rule of the version-2 frames is enforced with an error that names its
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
