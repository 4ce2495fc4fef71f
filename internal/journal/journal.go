// Package journal is the crash-safety substrate for long-running campaigns:
// an append-only, fsync'd, CRC-framed record log. A fleet run (or the
// extraction daemon) appends one record per durably completed unit of work;
// after a SIGKILL the journal is reopened, intact records are replayed, and a
// torn tail — the half-written frame of the record that was being appended
// when the process died — is truncated away. The contract is exactly-once
// *recording*: a unit of work either has an intact record (and is skipped on
// resume) or it does not (and is re-executed deterministically from its own
// seed stream, producing byte-identical results). Nothing in a journal is
// ever rewritten; recovery is replay plus truncation, never repair.
//
// Wire format:
//
//	file  := magic record*
//	magic := "MOSJRNL1" (8 bytes)
//	record:= u32le(len(body)) u32le(crc32c(body)) body
//	body  := u8(len(kind)) kind u8(len(key)) key u32le(len(payload)) payload
//
// Kind namespaces producers ("fleet-device", "serve-extract"), Key identifies
// the unit of work (a canonical hash), Payload is the producer's serialized
// result. A frame that is incomplete, oversized, or fails its CRC marks the
// end of the valid prefix: it and everything after it are discarded on open.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Magic identifies a journal file. The trailing byte versions the format.
const Magic = "MOSJRNL1"

// maxBodyBytes bounds one record frame so a corrupt length prefix cannot
// drive a multi-gigabyte allocation on open. Serialized per-device fleet
// results are a few KB; 64 MiB leaves generous headroom.
const maxBodyBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one durably appended unit of completed work.
type Record struct {
	// Kind namespaces the producer, e.g. "fleet-device" or "serve-extract".
	Kind string
	// Key identifies the unit of work within the kind, canonically hashed by
	// the producer so a resume can match records against the live plan.
	Key string
	// Payload is the producer's serialized result.
	Payload []byte
}

// Stats describes what Open found.
type Stats struct {
	// Records is the number of intact records replayed.
	Records int
	// TornBytes is the size of the discarded tail, zero for a clean file.
	TornBytes int64
	// Truncated reports whether a torn tail was cut off.
	Truncated bool
}

// Journal is an open journal file positioned for append. Append is safe for
// concurrent use; the replayed records are fixed at open time.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	stats  Stats
	loaded []Record
	closed bool
}

// Open opens or creates the journal at path. An existing file has its magic
// verified and its intact record prefix replayed; a torn tail (half-written
// final frame from a kill mid-append) is truncated so the file ends on a
// record boundary. The returned journal is positioned for append.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j := &Journal{f: f, path: path}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replay validates the header, loads the intact record prefix, and truncates
// any torn tail, leaving the file offset at the new end.
func (j *Journal) replay() error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat %s: %w", j.path, err)
	}
	size := info.Size()
	var magic [len(Magic)]byte
	head := magic[:min(size, int64(len(Magic)))]
	if _, err := io.ReadFull(io.NewSectionReader(j.f, 0, int64(len(head))), head); err != nil {
		return fmt.Errorf("journal: read magic: %w", err)
	}
	if string(head) != Magic[:len(head)] {
		return fmt.Errorf("journal: %s: bad magic %q", j.path, head)
	}
	if size < int64(len(Magic)) {
		// Fresh file, or one torn inside the magic by a kill during its
		// first write (no record can precede the magic): stamp the magic
		// durably before any record.
		if err := j.f.Truncate(0); err != nil {
			return fmt.Errorf("journal: truncate torn magic: %w", err)
		}
		j.stats.TornBytes, j.stats.Truncated = size, size > 0
		if _, err := j.f.Write([]byte(Magic)); err != nil {
			return fmt.Errorf("journal: write magic: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync magic: %w", err)
		}
		return nil
	}

	// Walk frames until the first torn or corrupt one; that offset becomes
	// the new end of file.
	end := int64(len(Magic))
	r := io.NewSectionReader(j.f, end, size-end)
	for {
		rec, n, ok := readFrame(r, size-end)
		if !ok {
			break
		}
		j.loaded = append(j.loaded, rec)
		end += n
	}
	j.stats.Records = len(j.loaded)
	if end < size {
		j.stats.TornBytes = size - end
		j.stats.Truncated = true
		if err := j.f.Truncate(end); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync truncation: %w", err)
		}
	}
	if _, err := j.f.Seek(end, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seek to end: %w", err)
	}
	return nil
}

// readFrame decodes one record frame from r. remaining bounds the bytes left
// in the file. ok=false means the frame is torn or corrupt (end of valid
// prefix), with n undefined.
func readFrame(r io.Reader, remaining int64) (rec Record, n int64, ok bool) {
	var hdr [8]byte
	if remaining < int64(len(hdr)) {
		return Record{}, 0, false
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, 0, false
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if bodyLen > maxBodyBytes || int64(bodyLen) > remaining-int64(len(hdr)) {
		return Record{}, 0, false
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, 0, false
	}
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return Record{}, 0, false
	}
	dec, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, false
	}
	return dec, int64(len(hdr)) + int64(bodyLen), true
}

// encodeFrame serializes a record's whole frame, header and body, in one
// buffer. Kind and Key are length-prefixed with one byte each (255-byte cap
// keeps keys honest hashes, not blobs).
func encodeFrame(rec Record) ([]byte, error) {
	if len(rec.Kind) == 0 || len(rec.Kind) > 255 {
		return nil, fmt.Errorf("journal: kind length %d outside [1, 255]", len(rec.Kind))
	}
	if len(rec.Key) == 0 || len(rec.Key) > 255 {
		return nil, fmt.Errorf("journal: key length %d outside [1, 255]", len(rec.Key))
	}
	if len(rec.Payload) > maxBodyBytes-512 {
		return nil, fmt.Errorf("journal: payload %d bytes exceeds cap", len(rec.Payload))
	}
	bodyLen := 2 + len(rec.Kind) + len(rec.Key) + 4 + len(rec.Payload)
	frame := make([]byte, 8, 8+bodyLen)
	frame = append(frame, byte(len(rec.Kind)))
	frame = append(frame, rec.Kind...)
	frame = append(frame, byte(len(rec.Key)))
	frame = append(frame, rec.Key...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(rec.Payload)))
	frame = append(frame, rec.Payload...)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(bodyLen))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	return frame, nil
}

func decodeBody(body []byte) (Record, error) {
	bad := errors.New("journal: malformed record body")
	if len(body) < 1 {
		return Record{}, bad
	}
	kindLen := int(body[0])
	body = body[1:]
	if kindLen == 0 || len(body) < kindLen {
		return Record{}, bad
	}
	kind := string(body[:kindLen])
	body = body[kindLen:]
	if len(body) < 1 {
		return Record{}, bad
	}
	keyLen := int(body[0])
	body = body[1:]
	if keyLen == 0 || len(body) < keyLen {
		return Record{}, bad
	}
	key := string(body[:keyLen])
	body = body[keyLen:]
	if len(body) < 4 {
		return Record{}, bad
	}
	payLen := binary.LittleEndian.Uint32(body[:4])
	body = body[4:]
	if int(payLen) != len(body) {
		return Record{}, bad
	}
	// The payload aliases the body, which readFrame allocated for this
	// record alone.
	return Record{Kind: kind, Key: key, Payload: body[:payLen:payLen]}, nil
}

// Append frames rec, writes it, and fsyncs before returning: once Append
// returns nil the record survives a SIGKILL. A record that was mid-write when
// the process died fails its CRC on the next Open and is truncated, so the
// unit of work is simply re-executed — appends are atomic at the record
// level without any write-ahead machinery.
func (j *Journal) Append(rec Record) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: append on closed journal")
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Records returns the records replayed at open time. The slice is shared;
// callers must not mutate it. Records appended after open are not included —
// a resume consumes the pre-crash state, not its own writes.
func (j *Journal) Records() []Record { return j.loaded }

// Stats returns what Open found.
func (j *Journal) Stats() Stats { return j.stats }

// Close syncs and closes the file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: sync on close: %w", err)
	}
	return j.f.Close()
}
