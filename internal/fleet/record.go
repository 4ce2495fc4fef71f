package fleet

import (
	"errors"
	"fmt"

	"leakydnn/internal/attack"
	"leakydnn/internal/par"
	"leakydnn/internal/trace"
	"leakydnn/internal/wire"
)

// Fleet-device record payloads are versioned by their first byte, and only
// the live version is read.
//
// Version 3 is recordV3 followed by the deviceRecord fields in declaration
// order, recursing into Coverage and Health (trace.Health.Walk), in the
// internal/wire encoding: varint ints, 8-byte floats, 0/1 bools, presence
// bytes for Health and QuarantineCauses, and the map's entries in ascending
// key order.
//
// Version 2 (0x82) was the same walk with six more Health counters, and
// version 1 a self-contained gob stream, whose first byte is a gob message
// length: below 0x80, or a negated byte count in 0xF8–0xFF. Both are
// retired. A device record is a pure function of its spec, so replay treats
// a retired record as absent and the device runs again, appending a version
// 3 record. Any other first byte in 0x80–0xF7 is an unknown version.
//
// Adding a field means a new version byte and a new walk in place of this
// one; the old version byte joins the retired ones.
const recordV3 = 0x83

// errRetiredRecord marks a payload in a retired version.
var errRetiredRecord = errors.New("fleet: device record in a retired version")

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
	ModelRep                   int
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
func (rec *deviceRecord) result(spec DeviceSpec) DeviceResult {
	return DeviceResult{
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
}

// recordBufs holds payload buffers between appends: the journal copies a
// payload into its frame, so the buffer is free once Append returns.
var recordBufs par.FreeList[[]byte]

// encodeRecord appends rec's version 3 payload to b.
func encodeRecord(b []byte, rec *deviceRecord) []byte {
	c := wire.NewEncoder(append(b, recordV3))
	rec.walk(c)
	return c.Bytes()
}

// decodeRecord decodes a version 3 payload into rec. A payload in a retired
// version returns errRetiredRecord and leaves rec untouched.
func decodeRecord(p []byte, rec *deviceRecord) error {
	switch {
	case len(p) == 0:
		return errors.New("fleet: empty device record")
	case p[0] == recordV3:
		*rec = deviceRecord{}
		c := wire.NewDecoder(p[1:], 1)
		rec.walk(c)
		if err := c.Finish(); err != nil {
			return fmt.Errorf("fleet: device record v3: %w", err)
		}
		return nil
	case p[0] == 0x82, p[0] < 0x80, p[0] >= 0xF8: // version 2, or version 1's gob
		return errRetiredRecord
	}
	return fmt.Errorf("fleet: unknown device record version %#x", p[0])
}

// walk walks r in version 3 wire order.
func (r *deviceRecord) walk(c *wire.Codec) {
	c.Float(&r.LetterAcc)
	c.Float(&r.LayerAcc)
	c.Float(&r.HPAcc)
	c.Float(&r.SamplesPerIter)
	cv := &r.Coverage
	c.Int(&cv.Samples)
	c.Int(&cv.StreamSegments)
	c.Int(&cv.SegmentsDetected)
	c.Int(&cv.SegmentsValid)
	c.Int(&cv.QuarantinedShort)
	c.Int(&cv.QuarantinedLong)
	c.Bool(&cv.UsedFallback)
	if wire.Ptr(c, &r.Health) {
		r.Health.Walk(c)
	}
	c.Int(&r.SchedSlices)
	c.String(&r.TraceHash)
	c.String(&r.ExtractHash)
	c.String(&r.Fingerprint)
	c.String(&r.ExtractErr)
	c.Int(&r.Attempts)
	c.Bool(&r.Quarantined)
	c.String(&r.FailCause)
	c.Int(&r.ModelRep)
}
