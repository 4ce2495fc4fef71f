package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/par"
	"leakydnn/internal/tfsim"
	"leakydnn/internal/wire"
)

// Streaming trace serialization. A trace is a magic string whose last byte
// is the format version, then a sequence of frames: the header (run metadata
// and the expected sample and event counts), bounded batches of samples and
// timeline events, and an end frame that seals the trace. Traces written
// back to back onto one writer form a multi-trace stream, and a reader never
// holds more than one frame in flight.
//
// Version 3, the only version, frames everything as
// [kind byte][uvarint payload length][payload]:
//
//   - header: traceHeader walked in the internal/wire encoding;
//   - samples: back-to-back sampleRecordBytes records, Start and End as
//     int64 and every counter as its float64 bit pattern, all little endian;
//   - events: per event a uvarint name length, the name, then zig-zag
//     varints Start, End, Iteration and Op, an index into the header's op
//     table (-1 for events without one), which restores the
//     pointer-into-Ops identity on read;
//   - end: an empty payload.
//
// Version 1 wrapped every chunk in its own gob stream, and version 2 was
// version 3 with a gob header. Both are retired: a trace is a pure function
// of its run configuration, so an old file is migrated by collecting it
// again, and Read rejects its magic.
const traceMagicV3 = "MOSCONS\x03"

// samplesPerChunk bounds a sample frame's payload (~200 KB at the current
// event-set width).
const samplesPerChunk = 2048

// eventsPerChunk bounds a timeline frame the same way.
const eventsPerChunk = 2048

// sampleRecordBytes is one sample on the wire: Start, End and NumEvents
// counters, 8 bytes each.
const sampleRecordBytes = 8 * (2 + int(cupti.NumEvents))

// chunkKind is a frame's kind byte.
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

// The least wire bytes of an op (15 varints and 5 floats) and of a layer
// (9 varints), against which the header's counts are checked.
const (
	opMinBytes    = 15 + 5*8
	layerMinBytes = 9
)

// walk walks the header in wire order: the fields in declaration order,
// recursing into the model, its layers and the ops.
func (h *traceHeader) walk(c *wire.Codec) {
	m := &h.Model
	c.String(&m.Name)
	walkShape(&m.Input, c)
	c.Int(&m.Batch)
	wire.Slice(c, &m.Layers, "layer", layerMinBytes)
	for i := range m.Layers {
		walkLayer(&m.Layers[i], c)
	}
	c.Int((*int)(&m.Optimizer))
	wire.Slice(c, &h.Ops, "op", opMinBytes)
	for i := range h.Ops {
		walkOp(&h.Ops[i], c)
	}
	c.Int64((*int64)(&h.VictimWall))
	c.Int(&h.SpyProbeLaunches)
	c.Int(&h.SpyChannelsRejected)
	c.Int(&h.SchedSlices)
	wire.Slice(c, &h.Reanchors, "re-anchor", 1)
	for i := range h.Reanchors {
		c.Int64((*int64)(&h.Reanchors[i]))
	}
	if wire.Ptr(c, &h.Health) {
		h.Health.Walk(c)
	}
	c.Int(&h.SampleCount)
	c.Int(&h.EventCount)
}

func walkShape(s *dnn.Shape, c *wire.Codec) {
	c.Int(&s.H)
	c.Int(&s.W)
	c.Int(&s.C)
}

func walkLayer(l *dnn.Layer, c *wire.Codec) {
	c.Int((*int)(&l.Kind))
	c.Int(&l.FilterSize)
	c.Int(&l.NumFilters)
	c.Int(&l.Stride)
	c.Int(&l.Neurons)
	c.Int(&l.PoolSize)
	c.Int(&l.Steps)
	c.Int((*int)(&l.Act))
	c.Int(&l.ShortcutFrom)
}

func walkOp(o *dnn.Op, c *wire.Codec) {
	c.Int((*int)(&o.Kind))
	c.Int(&o.Seq)
	c.Int(&o.Layer)
	walkShape(&o.In, c)
	walkShape(&o.Out, c)
	c.Int(&o.Batch)
	c.Int(&o.Params)
	c.Int(&o.FilterSize)
	c.Int(&o.NumFilters)
	c.Int(&o.Stride)
	c.Int(&o.Neurons)
	c.Float(&o.FLOPs)
	c.Float(&o.ReadBytes)
	c.Float(&o.WriteBytes)
	c.Float(&o.TexBytes)
	c.Float(&o.WorkingSetBytes)
}

// frameHeadMax is the longest frame head: the kind byte and a uvarint length.
const frameHeadMax = 1 + binary.MaxVarintLen64

// flushBytes is how much encoded output frameWriter gathers before handing
// it to the underlying writer.
const flushBytes = 64 << 10

// frameWriter assembles frames in a pooled buffer and passes them to w in
// large writes.
type frameWriter struct {
	w    io.Writer
	n    int64 // bytes w accepted
	b    []byte
	head int // start of the open frame
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

// WriteTo serializes the trace onto w and implements io.WriterTo. Traces
// written back to back onto the same writer form a valid multi-trace stream
// for ReadTraces. A trace that cannot be encoded fails before its first byte
// reaches w, so it never leaves a partial trace in a stream it was being
// appended to.
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

	buf := stagePool.Get()
	f := &frameWriter{w: w, b: append((*buf)[:0], traceMagicV3...)}
	defer func() {
		if *buf = f.b[:0]; cap(*buf) <= maxPooledStage {
			stagePool.Put(buf)
		}
	}()

	f.open()
	hdr := traceHeader{
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
	c := wire.NewEncoder(f.b)
	hdr.walk(c)
	f.b = c.Bytes()
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
// tighten it with Reader.SetMaxChunkBytes — the writer never emits frames
// beyond a few hundred KB at the current batch sizes.
const maxChunkBytes = 64 << 20

// maxPrealloc caps the capacity hint taken from header counts. The counts
// themselves still have to reconcile at the end frame, but a hostile header
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
	magic    [len(traceMagicV3)]byte
	buf      *[]byte // staging buffer, held from stagePool during Read
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

// SetMaxChunkBytes tightens (or loosens) the per-frame length guard: a frame
// whose length prefix exceeds n fails immediately instead of being
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
var stagePool par.FreeList[[]byte]

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

// readPayload reads a uvarint length and stages that many bytes in d.buf.
// start is the offset of the enclosing frame. It returns a bare io.EOF only
// when the stream ends before start. The staging buffer grows only as bytes
// arrive, so a hostile length prefix costs at
// most the bytes actually present in the stream, never an up-front
// allocation of the claimed size.
func (d *Reader) readPayload(start int64) ([]byte, error) {
	n, err := d.readUvarint()
	if err != nil {
		if errors.Is(err, io.EOF) && d.off > start {
			err = io.ErrUnexpectedEOF
		}
		if errors.Is(err, io.EOF) {
			return nil, err
		}
		return nil, fmt.Errorf("trace: frame length prefix at byte offset %d: %w", start, err)
	}
	if n > d.maxChunk {
		return nil, fmt.Errorf("trace: frame at byte offset %d: length %d exceeds limit %d", start, n, d.maxChunk)
	}
	payload, err := d.stage(n)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: frame at byte offset %d truncated: read %d of %d payload bytes: %w",
			start, len(payload), n, err)
	}
	return payload, nil
}

// Read decodes the next trace from the stream. It returns io.EOF exactly
// when the stream ends cleanly at a trace boundary (including an empty
// stream); any bytes past a boundary that do not form a complete trace —
// trailing garbage, a partial final frame, a retired version — fail loudly
// with the byte offset.
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
	if string(d.magic[:]) != traceMagicV3 {
		return nil, fmt.Errorf("trace: bad magic %q at byte offset %d (not a serialized trace, trailing garbage, "+
			"or a retired version: re-collect version 1 and 2 traces)", d.magic[:], start)
	}
	buf := stagePool.Get()
	d.buf = buf
	defer func() {
		d.buf = nil
		if cap(*buf) <= maxPooledStage {
			stagePool.Put(buf)
		}
	}()
	return d.read(start)
}

// newTrace validates a decoded header and starts the trace it describes,
// with sample and event capacity presized from its counts: the top spare
// pair's buffers where they fit, else fresh ones.
func newTrace(hdr *traceHeader, start int64) (*Trace, []tfsim.TimelineEvent, error) {
	if hdr.SampleCount < 0 || hdr.EventCount < 0 {
		return nil, nil, fmt.Errorf("trace: header at byte offset %d carries negative counts (%d samples, %d events)",
			start, hdr.SampleCount, hdr.EventCount)
	}
	samples, events := takeSpare(min(hdr.SampleCount, maxPrealloc), min(hdr.EventCount, maxPrealloc))
	t := &Trace{
		Model:               hdr.Model,
		Ops:                 hdr.Ops,
		VictimWall:          hdr.VictimWall,
		SpyProbeLaunches:    hdr.SpyProbeLaunches,
		SpyChannelsRejected: hdr.SpyChannelsRejected,
		SchedSlices:         hdr.SchedSlices,
		Reanchors:           hdr.Reanchors,
		Health:              hdr.Health,
		Samples:             samples,
	}
	return t, events, nil
}

// giveBackOnError returns a failed decode's sample and event buffers to the
// spares: no trace escapes a decode that fails, so nothing else can reach
// them.
func giveBackOnError(err *error, t *Trace, events *[]tfsim.TimelineEvent) {
	if *err != nil {
		putSpare(t.Samples, *events)
	}
}

// finish reconciles the header's counts at the end frame, which sits at
// byte offset at, and seals the trace.
func finish(t *Trace, events []tfsim.TimelineEvent, hdr *traceHeader, at int64) (*Trace, error) {
	if len(t.Samples) != hdr.SampleCount {
		return nil, fmt.Errorf("trace: stream carried %d samples, header promised %d (end frame at byte offset %d)",
			len(t.Samples), hdr.SampleCount, at)
	}
	if len(events) != hdr.EventCount {
		return nil, fmt.Errorf("trace: stream carried %d timeline events, header promised %d (end frame at byte offset %d)",
			len(events), hdr.EventCount, at)
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

// readFrame reads the next frame's kind and stages its payload.
func (d *Reader) readFrame() (chunkKind, []byte, error) {
	start := d.off
	kind, err := d.br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	d.off++
	payload, err := d.readPayload(start)
	return chunkKind(kind), payload, err
}

// read decodes the frames of a trace whose magic sits at start.
func (d *Reader) read(start int64) (_ *Trace, err error) {
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
	c := wire.NewDecoder(payload, int(d.off)-len(payload))
	hdr.walk(c)
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("trace: header frame at byte offset %d: %w", start+int64(len(traceMagicV3)), err)
	}
	t, events, err := newTrace(hdr, start)
	if err != nil {
		return nil, err
	}
	defer giveBackOnError(&err, t, &events)
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
			return finish(t, events, hdr, at)
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
// into ops, and every name interned in names. On error it returns the events
// decoded so far with the error.
func decodeEvents(events []tfsim.TimelineEvent, p []byte, base int64, ops []dnn.Op, limit int,
	names map[string]string) ([]tfsim.TimelineEvent, error) {
	for pos := 0; pos < len(p); {
		at := base + int64(pos)
		if len(events) == limit {
			return events, fmt.Errorf("event at byte offset %d overflows the header's promise of %d events", at, limit)
		}
		nl, k := binary.Uvarint(p[pos:])
		if k <= 0 {
			return events, fmt.Errorf("event at byte offset %d: truncated or overflowing name length", at)
		}
		pos += k
		if nl > uint64(len(p)-pos) {
			return events, fmt.Errorf("event at byte offset %d: name length %d runs past the frame's %d remaining bytes",
				at, nl, len(p)-pos)
		}
		raw := p[pos : pos+int(nl)]
		pos += int(nl)
		var v [4]int64 // Start, End, Iteration, Op
		for i := range v {
			if v[i], k = binary.Varint(p[pos:]); k <= 0 {
				return events, fmt.Errorf("event at byte offset %d: truncated or overflowing varint", at)
			}
			pos += k
		}
		if op := v[3]; op < -1 || op >= int64(len(ops)) {
			return events, fmt.Errorf("event at byte offset %d: op index %d outside op table of %d", at, op, len(ops))
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
