package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"leakydnn/internal/cupti"
	"leakydnn/internal/dnn"
	"leakydnn/internal/gpu"
	"leakydnn/internal/tfsim"
)

// Streaming trace serialization: a trace is written as a sequence of
// length-prefixed gob chunks (uvarint byte length, then one self-contained
// gob stream per chunk), so a reader can process a multi-gigabyte collection
// without holding more than one chunk of samples in flight, and a writer can
// append traces to the same file back to back. The header carries the run
// metadata and the expected chunk counts; sample and timeline-event chunks
// follow in order; an end chunk closes each trace. Timeline events encode
// their op as an index into the header's op table, restoring the
// pointer-into-Ops identity on read.

// traceMagic guards against feeding an arbitrary file to ReadTrace; the
// trailing byte is the format version.
const traceMagic = "MOSCONS\x01"

// samplesPerChunk bounds a chunk's decoded size (~70 KB of counter values at
// the current event-set width).
const samplesPerChunk = 2048

// eventsPerChunk bounds a timeline chunk the same way.
const eventsPerChunk = 2048

type chunkKind int

const (
	chunkHeader chunkKind = iota + 1
	chunkSamples
	chunkEvents
	chunkEnd
)

// traceHeader is the first chunk of every serialized trace.
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
// into the header's op table (-1 for events without one).
type eventRecord struct {
	Name       string
	Start, End gpu.Nanos
	Iteration  int
	Op         int
}

type chunk struct {
	Kind    chunkKind
	Header  *traceHeader
	Samples []cupti.Sample
	Events  []eventRecord
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeChunk(w io.Writer, c chunk) error {
	// A fresh encoder per chunk makes every chunk a self-contained gob
	// stream: a reader never needs type state from an earlier chunk, which
	// is what lets multi-trace files be a plain concatenation.
	var bb bytes.Buffer
	if err := gob.NewEncoder(&bb).Encode(c); err != nil {
		return fmt.Errorf("trace: encode chunk: %w", err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(bb.Len()))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.Write(bb.Bytes())
	return err
}

// WriteTo serializes the trace onto w as length-prefixed gob chunks and
// implements io.WriterTo. Traces written back to back onto the same writer
// form a valid multi-trace stream for ReadTraces.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)

	opIdx := make(map[*dnn.Op]int, len(t.Ops))
	for i := range t.Ops {
		opIdx[&t.Ops[i]] = i
	}
	var events []tfsim.TimelineEvent
	if t.Timeline != nil {
		events = t.Timeline.Events()
	}

	if _, err := bw.WriteString(traceMagic); err != nil {
		return cw.n, err
	}
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
	if err := writeChunk(bw, chunk{Kind: chunkHeader, Header: hdr}); err != nil {
		return cw.n, err
	}
	for off := 0; off < len(t.Samples); off += samplesPerChunk {
		end := off + samplesPerChunk
		if end > len(t.Samples) {
			end = len(t.Samples)
		}
		if err := writeChunk(bw, chunk{Kind: chunkSamples, Samples: t.Samples[off:end]}); err != nil {
			return cw.n, err
		}
	}
	recs := make([]eventRecord, 0, eventsPerChunk)
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		err := writeChunk(bw, chunk{Kind: chunkEvents, Events: recs})
		recs = recs[:0]
		return err
	}
	for _, e := range events {
		op := -1
		if e.Op != nil {
			i, ok := opIdx[e.Op]
			if !ok {
				return cw.n, fmt.Errorf("trace: timeline event %q points outside the trace's op table", e.Name)
			}
			op = i
		}
		recs = append(recs, eventRecord{Name: e.Name, Start: e.Start, End: e.End, Iteration: e.Iteration, Op: op})
		if len(recs) == eventsPerChunk {
			if err := flush(); err != nil {
				return cw.n, err
			}
		}
	}
	if err := flush(); err != nil {
		return cw.n, err
	}
	if err := writeChunk(bw, chunk{Kind: chunkEnd}); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
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
	rd       bytes.Reader // gob's source for each staged chunk
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
// whose length prefix exceeds n fails immediately instead of being buffered.
// Network-facing ingestion should set this well below the trusting file
// default. n <= 0 restores the default.
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

// minStage is the first step a chunk's staging buffer grows by, and
// maxPooledStage the largest buffer stagePool keeps. The writer's chunks stay
// well under maxPooledStage; a larger one is a trusted file or hostile input
// and is left to the garbage collector instead of pinning its memory.
const (
	minStage       = 4 << 10
	maxPooledStage = 1 << 20
)

// stagePool recycles chunk staging buffers across Readers: mosconsd decodes
// every upload with a fresh Reader, so a buffer one Reader owned would be
// regrown from nothing for every trace.
var stagePool = sync.Pool{New: func() any { return new([]byte) }}

// stage reads the next n payload bytes into *buf, growing it in doubling
// steps only as bytes actually arrive, so its size tracks the bytes present
// in the stream rather than the claimed n. On error it returns the bytes
// read so far.
func (d *Reader) stage(buf *[]byte, n uint64) ([]byte, error) {
	b := (*buf)[:0]
	defer func() { *buf = b[:0] }()
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

// checkGobLengths walks the gob messages in a staged chunk payload and
// refuses any whose length claims more bytes than the payload has left:
// encoding/gob allocates a message's claimed length before reading it. gob
// encodes a length as one byte below 0x80, or as a byte holding the negated
// width followed by that many big-endian bytes; a length it cannot parse is
// left for gob to reject. base is the stream offset of payload[0].
func checkGobLengths(payload []byte, base int64) error {
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
			return fmt.Errorf("gob message at byte offset %d claims %d bytes, only %d remain in the chunk",
				base+int64(pos), count, rest)
		}
		pos += width + int(count)
	}
	return nil
}

// readChunk decodes the next length-prefixed gob chunk into c. The payload
// is staged in a pooled buffer that grows only as bytes arrive, so a hostile
// length prefix costs at most the bytes actually present in the stream,
// never an up-front allocation of the claimed size; every gob message length
// inside it is then checked against the staged bytes before gob sees it.
// gob reuses any slice capacity it finds in c, so a sample chunk can land
// directly in the trace's presized sample slice.
func (d *Reader) readChunk(c *chunk) error {
	start := d.off
	n, err := d.readUvarint()
	if err != nil {
		if errors.Is(err, io.EOF) && d.off > start {
			err = io.ErrUnexpectedEOF
		}
		if errors.Is(err, io.EOF) {
			return err
		}
		return fmt.Errorf("trace: chunk length prefix at byte offset %d: %w", start, err)
	}
	if n > d.maxChunk {
		return fmt.Errorf("trace: chunk at byte offset %d: length %d exceeds limit %d", start, n, d.maxChunk)
	}
	buf := stagePool.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledStage {
			stagePool.Put(buf)
		}
	}()
	payload, err := d.stage(buf, n)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: chunk at byte offset %d truncated: read %d of %d payload bytes: %w",
			start, len(payload), n, err)
	}
	if err := checkGobLengths(payload, d.off-int64(n)); err != nil {
		return fmt.Errorf("trace: chunk at byte offset %d: %w", start, err)
	}
	d.rd.Reset(payload)
	if err := gob.NewDecoder(&d.rd).Decode(c); err != nil {
		return fmt.Errorf("trace: decode chunk at byte offset %d: %w", start, err)
	}
	return nil
}

// Read decodes the next trace from the stream. It returns io.EOF exactly when
// the stream ends cleanly at a trace boundary (including an empty stream);
// any bytes past a boundary that do not form a complete trace — trailing
// garbage, a partial final chunk — fail loudly with the byte offset.
func (d *Reader) Read() (*Trace, error) {
	start := d.off
	magic := make([]byte, len(traceMagic))
	n, err := io.ReadFull(d.br, magic)
	d.off += int64(n)
	if err != nil {
		if errors.Is(err, io.EOF) && n == 0 {
			return nil, io.EOF // clean end of a multi-trace stream
		}
		return nil, fmt.Errorf("trace: truncated magic at byte offset %d (%d of %d bytes): %w",
			start, n, len(traceMagic), err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q at byte offset %d (not a serialized trace, trailing garbage, or unsupported version)",
			magic, start)
	}
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
	if hdr.SampleCount < 0 || hdr.EventCount < 0 {
		return nil, fmt.Errorf("trace: header at byte offset %d carries negative counts (%d samples, %d events)",
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
	}
	t.Samples = make([]cupti.Sample, 0, min(hdr.SampleCount, maxPrealloc))
	events := make([]tfsim.TimelineEvent, 0, min(hdr.EventCount, maxPrealloc))
	for {
		chunkStart := d.off
		// Offer gob the spare capacity of the presized sample slice: a
		// sample chunk that fits decodes in place, with no fresh slice and
		// no append copy. gob omits zero-valued fields and leaves their
		// destination untouched, so that capacity must stay zero memory.
		filled := len(t.Samples)
		c := chunk{Samples: t.Samples[filled:filled]}
		if err := d.readChunk(&c); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("trace: truncated stream: trace starting at byte offset %d ends mid-trace at byte offset %d: %w",
					start, d.off, io.ErrUnexpectedEOF)
			}
			return nil, err
		}
		if c.Kind != chunkSamples {
			clear(c.Samples) // whatever gob put there belongs to no sample
		}
		switch c.Kind {
		case chunkSamples:
			if len(t.Samples)+len(c.Samples) > hdr.SampleCount {
				return nil, fmt.Errorf("trace: sample chunk at byte offset %d overflows the header's promise of %d samples",
					chunkStart, hdr.SampleCount)
			}
			if k := len(c.Samples); k > 0 && k <= cap(t.Samples)-filled && &c.Samples[0] == &t.Samples[:filled+1][filled] {
				t.Samples = t.Samples[:filled+k] // decoded in place
			} else {
				t.Samples = append(t.Samples, c.Samples...)
			}
		case chunkEvents:
			if len(events)+len(c.Events) > hdr.EventCount {
				return nil, fmt.Errorf("trace: event chunk at byte offset %d overflows the header's promise of %d events",
					chunkStart, hdr.EventCount)
			}
			for _, rec := range c.Events {
				ev := tfsim.TimelineEvent{Name: rec.Name, Start: rec.Start, End: rec.End, Iteration: rec.Iteration}
				if rec.Op >= 0 {
					if rec.Op >= len(t.Ops) {
						return nil, fmt.Errorf("trace: event op index %d outside op table of %d (chunk at byte offset %d)",
							rec.Op, len(t.Ops), chunkStart)
					}
					ev.Op = &t.Ops[rec.Op]
				}
				events = append(events, ev)
			}
		case chunkEnd:
			if len(t.Samples) != hdr.SampleCount {
				return nil, fmt.Errorf("trace: stream carried %d samples, header promised %d (end chunk at byte offset %d)",
					len(t.Samples), hdr.SampleCount, chunkStart)
			}
			if len(events) != hdr.EventCount {
				return nil, fmt.Errorf("trace: stream carried %d timeline events, header promised %d (end chunk at byte offset %d)",
					len(events), hdr.EventCount, chunkStart)
			}
			t.Timeline = tfsim.TimelineFromEvents(events)
			return t, nil
		default:
			return nil, fmt.Errorf("trace: unknown chunk kind %d at byte offset %d", c.Kind, chunkStart)
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
// malformed tail — trailing garbage, a partial final chunk — is an error
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
