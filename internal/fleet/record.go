package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"leakydnn/internal/attack"
	"leakydnn/internal/gpu"
	"leakydnn/internal/trace"
)

// Fleet-device record payloads are versioned by their first byte.
//
// Version 1 is a self-contained gob stream of a deviceRecord. Every journal
// written before version 2 holds it, so it stays readable, but nothing
// writes it any more. A gob stream starts with a message length: one byte
// below 0x80, or a negated byte count in 0xF8–0xFF. A first byte in
// 0x80–0xF7 therefore never starts version 1, and names a binary version.
//
// Version 2 is recordV2 followed by the deviceRecord fields in declaration
// order, recursing into Coverage and Health: ints and gpu.Nanos as varints,
// floats as their 8 little-endian IEEE bytes (NaN and -0 round-trip), bools
// as one byte 0 or 1, strings as a uvarint length and the bytes. Health and
// QuarantineCauses each carry a presence byte, so nil stays nil; the map is
// a uvarint count and its entries in ascending key order. Every encoding is
// canonical, so a payload that decodes re-encodes to the same bytes.
//
// Adding a field means a new version byte and a new walk beside this one;
// the version 2 decoder stays, as trace wire formats v1 and v2 do.
const recordV2 = 0x82

// deviceRecord is the journaled payload: the DeviceResult minus its Spec
// (restored from the live plan on replay, so a journal never resurrects a
// stale spec) and minus the Replayed marker.
type deviceRecord struct {
	LetterAcc, LayerAcc, HPAcc float64
	SamplesPerIter             float64
	Coverage                   attack.Coverage
	Health                     *trace.Health
	SchedSlices                int
	TraceHash                  string
	ExtractHash                string
	Fingerprint                string
	ExtractErr                 string
	Attempts                   int
	Quarantined                bool
	FailCause                  string
	// ModelRep records the model set's provenance (see DeviceResult.ModelRep).
	// Absent from pre-sharing version 1 records, which gob decodes as 0;
	// replay forces collect-only records back to -1, and extraction keys
	// changed when the field landed, so a stale 0 can never be replayed into
	// an extraction.
	ModelRep int
}

func recordOf(r *DeviceResult) deviceRecord {
	return deviceRecord{
		LetterAcc:      r.LetterAcc,
		LayerAcc:       r.LayerAcc,
		HPAcc:          r.HPAcc,
		SamplesPerIter: r.SamplesPerIter,
		Coverage:       r.Coverage,
		Health:         r.Health,
		SchedSlices:    r.SchedSlices,
		TraceHash:      r.TraceHash,
		ExtractHash:    r.ExtractHash,
		Fingerprint:    r.Fingerprint,
		ExtractErr:     r.ExtractErr,
		Attempts:       r.Attempts,
		Quarantined:    r.Quarantined,
		FailCause:      r.FailCause,
		ModelRep:       r.ModelRep,
	}
}

// result restores the replayed DeviceResult for spec.
func (rec *deviceRecord) result(spec DeviceSpec, collectOnly bool) DeviceResult {
	r := DeviceResult{
		Spec:           spec,
		LetterAcc:      rec.LetterAcc,
		LayerAcc:       rec.LayerAcc,
		HPAcc:          rec.HPAcc,
		SamplesPerIter: rec.SamplesPerIter,
		Coverage:       rec.Coverage,
		Health:         rec.Health,
		SchedSlices:    rec.SchedSlices,
		TraceHash:      rec.TraceHash,
		ExtractHash:    rec.ExtractHash,
		Fingerprint:    rec.Fingerprint,
		ExtractErr:     rec.ExtractErr,
		Attempts:       rec.Attempts,
		Quarantined:    rec.Quarantined,
		FailCause:      rec.FailCause,
		ModelRep:       rec.ModelRep,
		Replayed:       true,
	}
	if collectOnly {
		// Pre-sharing collect-only records predate the field; nothing was
		// trained, so the provenance is "none" regardless of stored bytes.
		r.ModelRep = -1
	}
	return r
}

// recordBufs holds payload buffers between appends: the journal copies a
// payload into its frame, so the buffer is free once Append returns.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeRecord appends rec's version 2 payload to b.
func encodeRecord(b []byte, rec *deviceRecord) []byte {
	c := recordCodec{b: append(b, recordV2)}
	c.record(rec)
	return c.b
}

// decodeRecord decodes a version 2 or version 1 payload into rec.
func decodeRecord(p []byte, rec *deviceRecord) error {
	*rec = deviceRecord{}
	switch {
	case len(p) > 0 && p[0] == recordV2:
		c := recordCodec{b: p[1:], n: len(p), decode: true}
		c.record(rec)
		if c.err == nil && len(c.b) > 0 {
			c.fail("trailing bytes")
		}
		return c.err
	case len(p) > 0 && p[0] >= 0x80 && p[0] < 0xF8:
		return fmt.Errorf("fleet: unknown device record version %#x", p[0])
	}
	return decodeGobRecord(p, rec)
}

// decodeGobRecord reads a version 1 payload, bounding what gob allocates on
// damaged bytes. gob reads a message in chunks of up to 10 MB before it finds
// the message short, so the framing is checked first. gob sizes a nil map
// from the count that precedes its entries, which could ask for gigabytes;
// into a map that already exists it inserts entry by entry and fails when
// the bytes run out. A first pass, which skips the map at no cost, learns
// whether the record holds a Health at all; the second decodes into a Health
// whose map exists. Version 1 Healths all came from trace.Collect, which
// always sets QuarantineCauses, so presetting the map loses nothing. What
// remains is gob's cap on a slice in a type definition (10 MB, once per
// pass, since the first short slice ends the decode).
func decodeGobRecord(p []byte, rec *deviceRecord) error {
	if !gobFramed(p) {
		return errors.New("fleet: device record v1: message length exceeds payload")
	}
	var probe struct {
		Health *struct{ IterationsTotal int }
	}
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&probe); err != nil {
		return err
	}
	if probe.Health != nil {
		rec.Health = &trace.Health{QuarantineCauses: map[string]int{}}
	}
	return gob.NewDecoder(bytes.NewReader(p)).Decode(rec)
}

// gobFramed reports whether p is a sequence of whole gob messages. Each
// starts with its length as a gob uint: one byte below 0x80, or a negated
// byte count followed by that many big-endian bytes.
func gobFramed(p []byte) bool {
	for len(p) > 0 {
		n, w := uint64(p[0]), 1
		if p[0] >= 0x80 {
			w += 256 - int(p[0])
			if w > 9 || w > len(p) {
				return false
			}
			n = 0
			for _, b := range p[1:w] {
				n = n<<8 | uint64(b)
			}
		}
		if n > uint64(len(p)-w) {
			return false
		}
		p = p[w+int(n):]
	}
	return true
}

// recordCodec walks a deviceRecord in version 2 wire order, appending each
// field to b when encoding and consuming it from b when decoding, so the two
// directions share one field list. A decode records its first error and
// reads zeros from then on.
type recordCodec struct {
	b      []byte
	n      int // payload length, for error offsets
	decode bool
	err    error
}

func (c *recordCodec) record(r *deviceRecord) {
	c.float(&r.LetterAcc)
	c.float(&r.LayerAcc)
	c.float(&r.HPAcc)
	c.float(&r.SamplesPerIter)
	cv := &r.Coverage
	c.int(&cv.Samples)
	c.int(&cv.StreamSegments)
	c.int(&cv.SegmentsDetected)
	c.int(&cv.SegmentsValid)
	c.int(&cv.QuarantinedShort)
	c.int(&cv.QuarantinedLong)
	c.bool(&cv.UsedFallback)
	if c.present(r.Health != nil) {
		if c.decode {
			r.Health = new(trace.Health)
		}
		c.health(r.Health)
	}
	c.int(&r.SchedSlices)
	c.str(&r.TraceHash)
	c.str(&r.ExtractHash)
	c.str(&r.Fingerprint)
	c.str(&r.ExtractErr)
	c.int(&r.Attempts)
	c.bool(&r.Quarantined)
	c.str(&r.FailCause)
	c.int(&r.ModelRep)
}

func (c *recordCodec) health(h *trace.Health) {
	c.int(&h.SamplesEmitted)
	c.int(&h.SamplesDelivered)
	f := &h.Faults
	c.int(&f.Truncated)
	c.int(&f.PreemptionGaps)
	c.int(&f.GapSamplesLost)
	c.int(&f.Dropped)
	c.int(&f.Duplicated)
	c.int(&f.Jittered)
	c.int(&f.Saturated)
	c.float(&f.ClockSkew)
	c.int(&f.ArmAttempts)
	c.int(&f.ArmRetries)
	c.int(&f.ArmFailures)
	s := &h.Sched
	c.int(&s.ResetsInjected)
	c.int(&s.ResetsSurvived)
	c.int(&s.StallsInjected)
	c.nanos(&s.StallTime)
	c.int(&s.TenantsJoined)
	c.int(&s.TenantsLeft)
	c.int(&s.SamplesLostToRecovery)
	c.int(&s.OpStallsInjected)
	c.nanos(&s.OpStallTime)
	c.int(&s.VictimResets)
	c.int(&s.VictimOpsReplayed)
	c.int(&h.Reanchors)
	d := &h.Device
	c.nanos(&d.SpyKilledAt)
	c.int(&d.SamplesLostToSpyKill)
	c.nanos(&d.ArmSessionLostAt)
	c.int(&d.SamplesLostToArmLoss)
	c.int(&d.TenantIterationCap)
	c.int(&d.TenantsExpired)
	c.int(&h.SpyChannelsRejected)
	c.int(&h.SpyArmRetries)
	c.int(&h.SpyArmFailures)
	c.int(&h.IterationsTotal)
	c.int(&h.IterationsProcessed)
	c.int(&h.IterationsQuarantined)
	c.causes(&h.QuarantineCauses)
}

// causes walks a string-keyed count map: a presence byte, then a count and
// the entries in strictly ascending key order.
func (c *recordCodec) causes(p *map[string]int) {
	if !c.present(*p != nil) {
		return
	}
	if !c.decode {
		var stack [4]string
		keys := stack[:0]
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.b = binary.AppendUvarint(c.b, uint64(len(keys)))
		for _, k := range keys {
			v := (*p)[k]
			c.str(&k)
			c.int(&v)
		}
		return
	}
	n := c.uvarint()
	// Every entry takes at least two bytes, so a count the payload cannot
	// hold is rejected before the map is sized from it.
	if n > uint64(len(c.b))/2 {
		c.fail("causes count exceeds payload")
		return
	}
	m := make(map[string]int, n)
	var prev string
	for i := range int(n) {
		var k string
		var v int
		c.str(&k)
		c.int(&v)
		if c.err != nil {
			return
		}
		if i > 0 && k <= prev {
			c.fail("causes keys out of order")
			return
		}
		m[k], prev = v, k
	}
	*p = m
}

func (c *recordCodec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("fleet: device record v2: %s at byte %d", what, c.n-len(c.b))
	}
	c.b = nil
}

func (c *recordCodec) int(p *int) {
	if !c.decode {
		c.b = binary.AppendVarint(c.b, int64(*p))
		return
	}
	v := c.varint()
	if int64(int(v)) != v {
		c.fail("int overflows")
		return
	}
	*p = int(v)
}

func (c *recordCodec) nanos(p *gpu.Nanos) {
	if !c.decode {
		c.b = binary.AppendVarint(c.b, int64(*p))
		return
	}
	*p = gpu.Nanos(c.varint())
}

func (c *recordCodec) float(p *float64) {
	if !c.decode {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if len(c.b) < 8 {
		c.fail("short float")
		return
	}
	*p = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
}

func (c *recordCodec) bool(p *bool) { *p = c.present(*p) }

// present walks one 0/1 byte: it writes has when encoding and returns
// what the payload holds when decoding.
func (c *recordCodec) present(has bool) bool {
	if !c.decode {
		v := byte(0)
		if has {
			v = 1
		}
		c.b = append(c.b, v)
		return has
	}
	if len(c.b) == 0 || c.b[0] > 1 {
		c.fail("bad flag byte")
		return false
	}
	v := c.b[0] == 1
	c.b = c.b[1:]
	return v
}

func (c *recordCodec) str(p *string) {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(len(*p)))
		c.b = append(c.b, *p...)
		return
	}
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.fail("string length exceeds payload")
		return
	}
	*p = string(c.b[:n])
	c.b = c.b[n:]
}

// varint and uvarint accept only minimal encodings: a multi-byte varint
// whose last byte is zero would re-encode shorter.
func (c *recordCodec) varint() int64 {
	v, n := binary.Varint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.fail("bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *recordCodec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.fail("bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}
