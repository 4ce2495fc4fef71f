package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/tfsim"
)

// Streaming trace serialization. A trace is a magic string whose last byte
// is the format version, then a sequence of frames: the header (run metadata
// and the expected sample and event counts), bounded batches of samples and
// timeline events, and an end frame that seals the trace. Traces written
// back to back onto one writer form a multi-trace stream, and a reader never
// holds more than one frame in flight.
//
// Version 2, the only version WriteTo emits, frames everything as
// [kind byte][uvarint payload length][payload]:
//
//   - header: one gob message of traceHeader;
//   - samples: back-to-back sampleRecordBytes records, Start and End as
//     int64 and every counter as its float64 bit pattern, all little endian;
//   - events: per event a uvarint name length, the name, then zig-zag
//     varints Start, End, Iteration and Op, an index into the header's op
//     table (-1 for events without one), which restores the
//     pointer-into-Ops identity on read;
//   - end: an empty payload.
//
// Version 1 wrapped every chunk in its own self-contained gob stream behind
// a bare uvarint length. It stays readable, for saved trace files and for
// journaled upload hashes, but is never written.
const (
	traceMagicV1 = "MOSCONS\x01"
	traceMagicV2 = "MOSCONS\x02"
)

// samplesPerChunk bounds a sample frame's payload (~200 KB at the current
// event-set width).
const samplesPerChunk = 2048

// eventsPerChunk bounds a timeline frame the same way.
const eventsPerChunk = 2048

// sampleRecordBytes is one sample on the wire: Start, End and NumEvents
// counters, 8 bytes each.
const sampleRecordBytes = 8 * (2 + int(cupti.NumEvents))

// chunkKind tags a version-1 chunk and is a version-2 frame's kind byte.
type chunkKind int

const (
	chunkHeader chunkKind = iota + 1
	chunkSamples
	chunkEvents
	chunkEnd
)

// traceHeader opens every serialized trace.
type traceHeader struct {
	Model               dnn.Model
	Ops                 []dnn.Op
	VictimWall          gpu.Nanos
	SpyProbeLaunches    int
	SpyChannelsRejected int
	SchedSlices         int
	Reanchors           []gpu.Nanos
	Health              *Health
	// SampleCount and EventCount let the reader verify the stream was not
	// truncated mid-trace.
	SampleCount int
	EventCount  int
}

// eventRecord is a TimelineEvent with its Op pointer flattened to an index
// into the header's op table (-1 for events without one), as version 1
// carries it.
type eventRecord struct {
	Name       string
	Start, End gpu.Nanos
	Iteration  int
	Op         int
}

// gob numbers types process-wide in the order it first encodes them, and a
// header frame carries those numbers. Encoding one header before anything
// else in the process can encode pins them, so WriteTo's bytes depend on
// the trace alone and not on what else the process has encoded.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(traceHeader{}); err != nil {
		panic(err)
	}
}

// chunk is one version-1 chunk.
type chunk struct {
	Kind    chunkKind
	Header  *traceHeader
	Samples []cupti.Sample
	Events  []eventRecord
}

// frameHeadMax is the longest frame head: the kind byte and a uvarint length.
const frameHeadMax = 1 + binary.MaxVarintLen64

// flushBytes is how much encoded output frameWriter gathers before handing
// it to the underlying writer.
const flushBytes = 64 << 10

// frameWriter assembles version-2 frames in a pooled buffer and passes them
// to w in large writes.
type frameWriter struct {
	w    io.Writer
	n    int64 // bytes w accepted
	b    []byte
	head int // start of the open frame
}

// Write appends p to the open frame; it is gob's sink for the header.
func (f *frameWriter) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// open starts a frame, reserving room for the longest head; the payload is
// then appended to f.b.
func (f *frameWriter) open() {
	f.head = len(f.b)
	f.b = append(f.b, make([]byte, frameHeadMax)...)
}

// close writes the open frame's head, shifts its payload up against it, and
// flushes once enough output has gathered.
func (f *frameWriter) close(kind chunkKind) error {
	var h [frameHeadMax]byte
	h[0] = byte(kind)
	hn := 1 + binary.PutUvarint(h[1:], uint64(len(f.b)-f.head-frameHeadMax))
	copy(f.b[f.head+hn:], f.b[f.head+frameHeadMax:])
	copy(f.b[f.head:], h[:hn])
	f.b = f.b[:len(f.b)-frameHeadMax+hn]
	if len(f.b) < flushBytes {
		return nil
	}
	return f.flush()
}

func (f *frameWriter) flush() error {
	m, err := f.w.Write(f.b)
	f.n += int64(m)
	f.b = f.b[:0]
	return err
}

// opIndex is op's position in t's op table: -1 for nil, and ok false for a
// pointer outside the table. An op's Seq is its index in any compiled
// table, so the scan is for hand-built traces only.
func (t *Trace) opIndex(op *dnn.Op) (i int, ok bool) {
	if op == nil {
		return -1, true
	}
	if i := op.Seq; i >= 0 && i < len(t.Ops) && &t.Ops[i] == op {
		return i, true
	}
	for i := range t.Ops {
		if &t.Ops[i] == op {
			return i, true
		}
	}
	return 0, false
}

// WriteTo serializes the trace onto w in wire format version 2 and
// implements io.WriterTo. Traces written back to back onto the same writer
// form a valid multi-trace stream for ReadTraces. A trace that cannot be
// encoded fails before its first byte reaches w, so it never leaves a
// partial trace in a stream it was being appended to.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var events []tfsim.TimelineEvent
	if t.Timeline != nil {
		events = t.Timeline.Events()
	}
	for _, e := range events {
		if _, ok := t.opIndex(e.Op); !ok {
			return 0, fmt.Errorf("trace: timeline event %q points outside the trace's op table", e.Name)
		}
	}

	buf := stagePool.Get().(*[]byte)
	f := &frameWriter{w: w, b: append((*buf)[:0], traceMagicV2...)}
	defer func() {
		if *buf = f.b[:0]; cap(*buf) <= maxPooledStage {
			stagePool.Put(buf)
		}
	}()

	f.open()
	hdr := &traceHeader{
		Model:               t.Model,
		Ops:                 t.Ops,
		VictimWall:          t.VictimWall,
		SpyProbeLaunches:    t.SpyProbeLaunches,
		SpyChannelsRejected: t.SpyChannelsRejected,
		SchedSlices:         t.SchedSlices,
		Reanchors:           t.Reanchors,
		Health:              t.Health,
		SampleCount:         len(t.Samples),
		EventCount:          len(events),
	}
	if err := gob.NewEncoder(f).Encode(hdr); err != nil {
		return 0, fmt.Errorf("trace: encode header: %w", err)
	}
	if err := f.close(chunkHeader); err != nil {
		return f.n, err
	}
	for off := 0; off < len(t.Samples); off += samplesPerChunk {
		f.open()
		for i := off; i < min(off+samplesPerChunk, len(t.Samples)); i++ {
			s := &t.Samples[i]
			f.b = binary.LittleEndian.AppendUint64(f.b, uint64(s.Start))
			f.b = binary.LittleEndian.AppendUint64(f.b, uint64(s.End))
			for _, v := range s.Values {
				f.b = binary.LittleEndian.AppendUint64(f.b, math.Float64bits(v))
			}
		}
		if err := f.close(chunkSamples); err != nil {
			return f.n, err
		}
	}
	for off := 0; off < len(events); off += eventsPerChunk {
		f.open()
		for _, e := range events[off:min(off+eventsPerChunk, len(events))] {
			op, _ := t.opIndex(e.Op)
			f.b = binary.AppendUvarint(f.b, uint64(len(e.Name)))
			f.b = append(f.b, e.Name...)
			f.b = binary.AppendVarint(f.b, int64(e.Start))
			f.b = binary.AppendVarint(f.b, int64(e.End))
			f.b = binary.AppendVarint(f.b, int64(e.Iteration))
			f.b = binary.AppendVarint(f.b, int64(op))
		}
		if err := f.close(chunkEvents); err != nil {
			return f.n, err
		}
	}
	f.open()
	if err := f.close(chunkEnd); err != nil {
		return f.n, err
	}
	return f.n, f.flush()
}

// maxChunkBytes rejects absurd length prefixes before reading: the default
// guard for trusted files. Servers ingesting traces from the network should
// tighten it with Reader.SetMaxChunkBytes — the writer never emits chunks
// beyond a few hundred KB at the current chunk sizes.
const maxChunkBytes = 64 << 20

// maxPrealloc caps the capacity hint taken from header counts. The counts
// themselves still have to reconcile at the end chunk, but a hostile header
// claiming 10^18 samples must cost an append-doubling schedule, not an
// up-front allocation.
const maxPrealloc = 1 << 16

// Reader decodes traces from one stream incrementally, tracking the logical
// byte offset of everything it consumes so every error names where in the
// stream the damage sits. The zero value is not usable; build with NewReader.
type Reader struct {
	br       *bufio.Reader
	off      int64
	maxChunk uint64
	magic    [len(traceMagicV2)]byte
	buf      *[]byte      // staging buffer, held from stagePool during Read
	rd       bytes.Reader // gob's source for each staged payload
}

// NewReader wraps r for incremental trace decoding with the default chunk
// guard.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{br: br, maxChunk: maxChunkBytes}
}

// SetMaxChunkBytes tightens (or loosens) the per-chunk length guard: a chunk
// or frame whose length prefix exceeds n fails immediately instead of being
// buffered. Network-facing ingestion should set this well below the
// trusting file default. n <= 0 restores the default.
func (d *Reader) SetMaxChunkBytes(n int64) {
	if n <= 0 {
		d.maxChunk = maxChunkBytes
		return
	}
	d.maxChunk = uint64(n)
}

// Offset returns the number of stream bytes consumed so far — after an
// error, the position at or before which the stream went bad.
func (d *Reader) Offset() int64 { return d.off }

// readUvarint is binary.ReadUvarint with byte accounting.
func (d *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.br.ReadByte()
		if err != nil {
			return 0, err
		}
		d.off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errors.New("length prefix overflows uint64")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errors.New("length prefix overflows uint64")
}

// minStage is the first step a staging buffer grows by, and maxPooledStage
// the largest buffer stagePool keeps. The writer's frames stay well under
// maxPooledStage; a larger one is a trusted file or hostile input and is
// left to the garbage collector instead of pinning its memory.
const (
	minStage       = 4 << 10
	maxPooledStage = 1 << 20
)

// stagePool recycles the byte buffers Readers stage payloads in and WriteTo
// assembles frames in: mosconsd decodes every upload with a fresh Reader, so
// a buffer one Reader owned would be regrown from nothing for every trace.
var stagePool = sync.Pool{New: func() any { return new([]byte) }}

// stage reads the next n payload bytes into d.buf, growing it in doubling
// steps only as bytes actually arrive, so its size tracks the bytes present
// in the stream rather than the claimed n. On error it returns the bytes
// read so far.
func (d *Reader) stage(n uint64) ([]byte, error) {
	b := (*d.buf)[:0]
	defer func() { *d.buf = b[:0] }()
	for uint64(len(b)) < n {
		step := int(min(n-uint64(len(b)), uint64(max(len(b), minStage))))
		b = slices.Grow(b, step)
		m, err := io.ReadFull(d.br, b[len(b):len(b)+step])
		b = b[:len(b)+m]
		d.off += int64(m)
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// checkGobLengths walks the gob messages in a staged payload and refuses any
// whose length claims more bytes than the payload has left: encoding/gob
// allocates a message's claimed length before reading it. gob encodes a
// length as one byte below 0x80, or as a byte holding the negated width
// followed by that many big-endian bytes; a length it cannot parse is left
// for gob to reject. base is the stream offset of payload[0]; what names the
// enclosing unit ("chunk" or "frame").
func checkGobLengths(payload []byte, base int64, what string) error {
	for pos := 0; pos < len(payload); {
		width, count := 1, uint64(payload[pos])
		if count > 0x7f {
			width = 1 - int(int8(payload[pos]))
			if width > 1+8 || width > len(payload)-pos {
				return nil
			}
			count = 0
			for _, c := range payload[pos+1 : pos+width] {
				count = count<<8 | uint64(c)
			}
		}
		if rest := len(payload) - pos - width; count > uint64(rest) {
			return fmt.Errorf("gob message at byte offset %d claims %d bytes, only %d remain in the %s",
				base+int64(pos), count, rest, what)
		}
		pos += width + int(count)
	}
	return nil
}

// readPayload reads a uvarint length and stages that many bytes in d.buf.
// start is the offset of the enclosing chunk or frame, which what names. It
// returns a bare io.EOF only when the stream ends before start. The staging
// buffer grows only as bytes arrive, so a hostile length prefix costs at
// most the bytes actually present in the stream, never an up-front
// allocation of the claimed size.
func (d *Reader) readPayload(what string, start int64) ([]byte, error) {
	n, err := d.readUvarint()
	if err != nil {
		if errors.Is(err, io.EOF) && d.off > start {
			err = io.ErrUnexpectedEOF
		}
		if errors.Is(err, io.EOF) {
			return nil, err
		}
		return nil, fmt.Errorf("trace: %s length prefix at byte offset %d: %w", what, start, err)
	}
	if n > d.maxChunk {
		return nil, fmt.Errorf("trace: %s at byte offset %d: length %d exceeds limit %d", what, start, n, d.maxChunk)
	}
	payload, err := d.stage(n)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: %s at byte offset %d truncated: read %d of %d payload bytes: %w",
			what, start, len(payload), n, err)
	}
	return payload, nil
}

// decodeGob decodes v from a staged payload that must hold exactly one gob
// value, after checking every gob message length in it against the staged
// bytes.
func (d *Reader) decodeGob(payload []byte, what string, start int64, v any) error {
	if err := checkGobLengths(payload, d.off-int64(len(payload)), what); err != nil {
		return fmt.Errorf("trace: %s at byte offset %d: %w", what, start, err)
	}
	d.rd.Reset(payload)
	if err := gob.NewDecoder(&d.rd).Decode(v); err != nil {
		return fmt.Errorf("trace: decode %s at byte offset %d: %w", what, start, err)
	}
	if d.rd.Len() != 0 {
		return fmt.Errorf("trace: %s at byte offset %d carries %d bytes past its gob value", what, start, d.rd.Len())
	}
	return nil
}

// Read decodes the next trace from the stream, in whichever format version
// its magic names. It returns io.EOF exactly when the stream ends cleanly at
// a trace boundary (including an empty stream); any bytes past a boundary
// that do not form a complete trace — trailing garbage, a partial final
// frame — fail loudly with the byte offset.
func (d *Reader) Read() (*Trace, error) {
	start := d.off
	n, err := io.ReadFull(d.br, d.magic[:])
	d.off += int64(n)
	if err != nil {
		if errors.Is(err, io.EOF) && n == 0 {
			return nil, io.EOF // clean end of a multi-trace stream
		}
		return nil, fmt.Errorf("trace: truncated magic at byte offset %d (%d of %d bytes): %w",
			start, n, len(d.magic), err)
	}
	buf := stagePool.Get().(*[]byte)
	d.buf = buf
	defer func() {
		d.buf = nil
		if cap(*buf) <= maxPooledStage {
			stagePool.Put(buf)
		}
	}()
	switch string(d.magic[:]) {
	case traceMagicV2:
		return d.readV2(start)
	case traceMagicV1:
		return d.readV1(start)
	}
	return nil, fmt.Errorf("trace: bad magic %q at byte offset %d (not a serialized trace, trailing garbage, or unsupported version)",
		d.magic[:], start)
}

// newTrace validates a decoded header and starts the trace it describes,
// with sample and event capacity presized from its counts.
func newTrace(hdr *traceHeader, start int64) (*Trace, []tfsim.TimelineEvent, error) {
	if hdr.SampleCount < 0 || hdr.EventCount < 0 {
		return nil, nil, fmt.Errorf("trace: header at byte offset %d carries negative counts (%d samples, %d events)",
			start, hdr.SampleCount, hdr.EventCount)
	}
	t := &Trace{
		Model:               hdr.Model,
		Ops:                 hdr.Ops,
		VictimWall:          hdr.VictimWall,
		SpyProbeLaunches:    hdr.SpyProbeLaunches,
		SpyChannelsRejected: hdr.SpyChannelsRejected,
		SchedSlices:         hdr.SchedSlices,
		Reanchors:           hdr.Reanchors,
		Health:              hdr.Health,
		Samples:             make([]cupti.Sample, 0, min(hdr.SampleCount, maxPrealloc)),
	}
	return t, make([]tfsim.TimelineEvent, 0, min(hdr.EventCount, maxPrealloc)), nil
}

// finish reconciles the header's counts at the end chunk or frame, which
// sits at byte offset at, and seals the trace.
func finish(t *Trace, events []tfsim.TimelineEvent, hdr *traceHeader, what string, at int64) (*Trace, error) {
	if len(t.Samples) != hdr.SampleCount {
		return nil, fmt.Errorf("trace: stream carried %d samples, header promised %d (end %s at byte offset %d)",
			len(t.Samples), hdr.SampleCount, what, at)
	}
	if len(events) != hdr.EventCount {
		return nil, fmt.Errorf("trace: stream carried %d timeline events, header promised %d (end %s at byte offset %d)",
			len(events), hdr.EventCount, what, at)
	}
	t.Timeline = tfsim.TimelineFromEvents(events)
	return t, nil
}

// midTrace turns a clean end of stream inside the trace starting at start
// into the truncation error it is.
func (d *Reader) midTrace(err error, start int64) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("trace: truncated stream: trace starting at byte offset %d ends mid-trace at byte offset %d: %w",
			start, d.off, io.ErrUnexpectedEOF)
	}
	return err
}

// readFrame reads the next version-2 frame's kind and stages its payload.
func (d *Reader) readFrame() (chunkKind, []byte, error) {
	start := d.off
	kind, err := d.br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	d.off++
	payload, err := d.readPayload("frame", start)
	return chunkKind(kind), payload, err
}

// readV2 decodes the frames of a version-2 trace whose magic sits at start.
func (d *Reader) readV2(start int64) (*Trace, error) {
	kind, payload, err := d.readFrame()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("trace: stream ends after magic at byte offset %d: %w", d.off, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if kind != chunkHeader {
		return nil, fmt.Errorf("trace: stream does not start with a header frame (kind %d) at byte offset %d", kind, start)
	}
	hdr := new(traceHeader)
	if err := d.decodeGob(payload, "frame", start+int64(len(traceMagicV2)), hdr); err != nil {
		return nil, err
	}
	t, events, err := newTrace(hdr, start)
	if err != nil {
		return nil, err
	}
	var names map[string]string // interned event names
	for {
		at := d.off
		kind, payload, err := d.readFrame()
		if err != nil {
			return nil, d.midTrace(err, start)
		}
		switch kind {
		case chunkSamples:
			if len(payload)%sampleRecordBytes != 0 {
				return nil, fmt.Errorf("trace: sample frame at byte offset %d holds %d bytes, not a multiple of %d",
					at, len(payload), sampleRecordBytes)
			}
			k := len(payload) / sampleRecordBytes
			if len(t.Samples)+k > hdr.SampleCount {
				return nil, fmt.Errorf("trace: sample frame at byte offset %d overflows the header's promise of %d samples",
					at, hdr.SampleCount)
			}
			t.Samples = decodeSamples(t.Samples, payload)
		case chunkEvents:
			if names == nil {
				names = make(map[string]string)
			}
			base := d.off - int64(len(payload))
			if events, err = decodeEvents(events, payload, base, t.Ops, hdr.EventCount, names); err != nil {
				return nil, fmt.Errorf("trace: event frame at byte offset %d: %w", at, err)
			}
		case chunkEnd:
			if len(payload) != 0 {
				return nil, fmt.Errorf("trace: end frame at byte offset %d carries %d payload bytes", at, len(payload))
			}
			return finish(t, events, hdr, "frame", at)
		default:
			return nil, fmt.Errorf("trace: unexpected frame kind %d at byte offset %d", kind, at)
		}
	}
}

// decodeSamples appends the sample records in p to dst, decoding each
// straight into dst's spare capacity.
func decodeSamples(dst []cupti.Sample, p []byte) []cupti.Sample {
	n := len(dst)
	dst = slices.Grow(dst, len(p)/sampleRecordBytes)[:n+len(p)/sampleRecordBytes]
	for i := n; i < len(dst); i, p = i+1, p[sampleRecordBytes:] {
		s := &dst[i]
		s.Start = gpu.Nanos(binary.LittleEndian.Uint64(p))
		s.End = gpu.Nanos(binary.LittleEndian.Uint64(p[8:]))
		for e := range s.Values {
			s.Values[e] = math.Float64frombits(binary.LittleEndian.Uint64(p[16+8*e:]))
		}
	}
	return dst
}

// decodeEvents appends the timeline events in p, whose first byte sits at
// stream offset base, to events: at most limit in all, every op an index
// into ops, and every name interned in names.
func decodeEvents(events []tfsim.TimelineEvent, p []byte, base int64, ops []dnn.Op, limit int,
	names map[string]string) ([]tfsim.TimelineEvent, error) {
	for pos := 0; pos < len(p); {
		at := base + int64(pos)
		if len(events) == limit {
			return nil, fmt.Errorf("event at byte offset %d overflows the header's promise of %d events", at, limit)
		}
		nl, k := binary.Uvarint(p[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("event at byte offset %d: truncated or overflowing name length", at)
		}
		pos += k
		if nl > uint64(len(p)-pos) {
			return nil, fmt.Errorf("event at byte offset %d: name length %d runs past the frame's %d remaining bytes",
				at, nl, len(p)-pos)
		}
		raw := p[pos : pos+int(nl)]
		pos += int(nl)
		var v [4]int64 // Start, End, Iteration, Op
		for i := range v {
			if v[i], k = binary.Varint(p[pos:]); k <= 0 {
				return nil, fmt.Errorf("event at byte offset %d: truncated or overflowing varint", at)
			}
			pos += k
		}
		if op := v[3]; op < -1 || op >= int64(len(ops)) {
			return nil, fmt.Errorf("event at byte offset %d: op index %d outside op table of %d", at, op, len(ops))
		}
		name, ok := names[string(raw)]
		if !ok {
			name = string(raw)
			names[name] = name
		}
		ev := tfsim.TimelineEvent{Name: name, Start: gpu.Nanos(v[0]), End: gpu.Nanos(v[1]), Iteration: int(v[2])}
		if v[3] >= 0 {
			ev.Op = &ops[v[3]]
		}
		events = append(events, ev)
	}
	return events, nil
}

// readChunk decodes the next version-1 chunk, one self-contained gob stream
// behind a uvarint length, into c.
func (d *Reader) readChunk(c *chunk) error {
	start := d.off
	payload, err := d.readPayload("chunk", start)
	if err != nil {
		return err
	}
	return d.decodeGob(payload, "chunk", start, c)
}

// readV1 decodes the chunks of a version-1 trace whose magic sits at start.
func (d *Reader) readV1(start int64) (*Trace, error) {
	var first chunk
	if err := d.readChunk(&first); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("trace: stream ends after magic at byte offset %d: %w", d.off, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if first.Kind != chunkHeader || first.Header == nil {
		return nil, fmt.Errorf("trace: stream does not start with a header chunk (kind %d) at byte offset %d", first.Kind, start)
	}
	hdr := first.Header
	t, events, err := newTrace(hdr, start)
	if err != nil {
		return nil, err
	}
	for {
		at := d.off
		var c chunk
		if err := d.readChunk(&c); err != nil {
			return nil, d.midTrace(err, start)
		}
		switch c.Kind {
		case chunkSamples:
			if len(t.Samples)+len(c.Samples) > hdr.SampleCount {
				return nil, fmt.Errorf("trace: sample chunk at byte offset %d overflows the header's promise of %d samples",
					at, hdr.SampleCount)
			}
			t.Samples = append(t.Samples, c.Samples...)
		case chunkEvents:
			if len(events)+len(c.Events) > hdr.EventCount {
				return nil, fmt.Errorf("trace: event chunk at byte offset %d overflows the header's promise of %d events",
					at, hdr.EventCount)
			}
			for _, rec := range c.Events {
				ev := tfsim.TimelineEvent{Name: rec.Name, Start: rec.Start, End: rec.End, Iteration: rec.Iteration}
				if rec.Op >= 0 {
					if rec.Op >= len(t.Ops) {
						return nil, fmt.Errorf("trace: event op index %d outside op table of %d (chunk at byte offset %d)",
							rec.Op, len(t.Ops), at)
					}
					ev.Op = &t.Ops[rec.Op]
				}
				events = append(events, ev)
			}
		case chunkEnd:
			return finish(t, events, hdr, "chunk", at)
		default:
			return nil, fmt.Errorf("trace: unknown chunk kind %d at byte offset %d", c.Kind, at)
		}
	}
}

// ReadTrace decodes one trace from r. Use a Reader directly when reading
// several traces from one stream incrementally, or ReadTraces to slurp them
// all.
func ReadTrace(r io.Reader) (*Trace, error) {
	return NewReader(r).Read()
}

// ReadTraces decodes every trace from a concatenated stream until EOF. Any
// malformed tail — trailing garbage, a partial final frame — is an error
// carrying the byte offset, never a silently dropped trace.
func ReadTraces(r io.Reader) ([]*Trace, error) {
	d := NewReader(r)
	var out []*Trace
	for {
		t, err := d.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("trace: trace %d: %w", len(out), err)
		}
		out = append(out, t)
	}
}

// WriteTraces serializes a collection back to back onto w.
func WriteTraces(w io.Writer, traces []*Trace) error {
	for i, t := range traces {
		if _, err := t.WriteTo(w); err != nil {
			return fmt.Errorf("trace: trace %d: %w", i, err)
		}
	}
	return nil
}
