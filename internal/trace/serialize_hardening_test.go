package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"leakydnn/internal/cupti"
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

// Hostile headers: a length prefix claiming gigabytes backed by no data, and
// header counts that are negative or overflowed, must fail cheaply instead of
// allocating or panicking.
func TestReadTraceHostileHeader(t *testing.T) {
	// Huge length prefix, no payload.
	huge := append([]byte(traceMagic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := ReadTrace(bytes.NewReader(huge)); err == nil {
		t.Fatal("overflowing length prefix accepted")
	}
	big := append([]byte(traceMagic), 0xff, 0xff, 0xff, 0x7f) // ~256 MB claim
	if _, err := ReadTrace(bytes.NewReader(big)); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length prefix: err = %v, want exceeds-limit error", err)
	}

	// Negative header counts.
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	if err := writeChunk(&buf, chunk{Kind: chunkHeader, Header: &traceHeader{SampleCount: -1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "negative counts") {
		t.Fatalf("negative sample count: err = %v, want negative-counts error", err)
	}

	// A header promising more samples than the chunks deliver, with extra
	// sample chunks beyond the promise, must be caught by the overflow check
	// rather than ballooning memory.
	buf.Reset()
	buf.WriteString(traceMagic)
	if err := writeChunk(&buf, chunk{Kind: chunkHeader, Header: &traceHeader{SampleCount: 1}}); err != nil {
		t.Fatal(err)
	}
	twoSamples := []cupti.Sample{{}, {}}
	if err := writeChunk(&buf, chunk{Kind: chunkSamples, Samples: twoSamples}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "overflows the header") {
		t.Fatalf("sample overflow: err = %v, want overflow error", err)
	}
}

// hostileInnerLength is an upload of the magic and one chunk whose length
// prefix says chunkLen and whose first gob message length claims claim bytes,
// followed by only present bytes of payload. The 21-byte case (a 12-byte
// chunk claiming 9 MiB) passes any chunk guard, and encoding/gob allocates any
// message claim under 10 MB before reading it.
func hostileInnerLength(chunkLen, claim uint64, present int) []byte {
	b := binary.AppendUvarint([]byte(traceMagic), chunkLen)
	width := (bits.Len64(claim) + 7) / 8
	b = append(b, byte(-width)) // gob uint: negated width, then big-endian bytes
	for i := width - 1; i >= 0; i-- {
		b = append(b, byte(claim>>(8*i)))
	}
	return append(b, make([]byte, present)...)
}

// The gob message length inside a chunk is as hostile as the chunk's own
// prefix: a few bytes of input must never buy megabytes of allocation,
// whether the claim overruns the chunk or the chunk prefix backs the claim
// and the stream is simply cut short.
func TestReadTraceHostileInnerLength(t *testing.T) {
	if n := len(hostileInnerLength(12, 9<<20, 8)); n != 21 {
		t.Fatalf("hostile body is %d bytes, want 21", n)
	}
	for _, tc := range []struct {
		name     string
		body     []byte
		maxChunk int64
		want     string
	}{
		{"claim overruns chunk", hostileInnerLength(12, 9<<20, 8), 1 << 20,
			"chunk at byte offset 8: gob message at byte offset 9 claims 9437184 bytes, only 8 remain in the chunk"},
		{"truncated, default guard", hostileInnerLength(9<<20+4, 9<<20, 8), 0,
			"chunk at byte offset 8 truncated: read 12 of 9437188 payload bytes"},
		{"truncated, 1 MiB guard", hostileInnerLength(1<<20, 1<<20-4, 8), 1 << 20,
			"chunk at byte offset 8 truncated: read 12 of 1048576 payload bytes"},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := NewReader(bytes.NewReader(tc.body))
		d.SetMaxChunkBytes(tc.maxChunk)
		_, err := d.Read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
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
