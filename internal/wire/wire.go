// Package wire is the one binary codec of the persisted formats: fleet
// journal records, trace headers and model sets. A format is a walk: one
// function visits a value's fields in wire order through a Codec, which
// appends each field when encoding and consumes it when decoding, so the two
// directions share one field list.
//
// Ints are zig-zag varints, floats their 8 little-endian IEEE bytes (NaN and
// -0 round-trip), bools and presence flags one byte 0 or 1, strings a uvarint
// length and the bytes, and runs and maps a uvarint count and their elements,
// a map's in strictly ascending key order. Every encoding is canonical: a
// decoder accepts only minimal varints and 0/1 flags, so whatever decodes
// re-encodes to the same bytes. A decoder checks every count against the
// bytes left before it allocates, so a decode allocates in proportion to its
// input. It records its first error with its byte offset and reads zeros from
// then on.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Codec is one walk's cursor: the bytes encoded so far, or the input left to
// decode.
type Codec struct {
	b      []byte
	end    int // decoding: the offset just past the input, for error offsets
	decode bool
	err    error
}

// NewEncoder returns a Codec that appends to b.
func NewEncoder(b []byte) *Codec { return &Codec{b: b} }

// NewDecoder returns a Codec that decodes p, whose first byte sits at byte
// offset base of whatever an error should name.
func NewDecoder(p []byte, base int) *Codec {
	return &Codec{b: p, end: base + len(p), decode: true}
}

// Decoding reports whether the walk decodes.
func (c *Codec) Decoding() bool { return c.decode }

// Bytes returns what an encoding walk has written.
func (c *Codec) Bytes() []byte { return c.b }

// Finish ends a decoding walk and returns its first error, or an error if
// input is left over.
func (c *Codec) Finish() error {
	if c.err == nil && len(c.b) > 0 {
		c.Fail("trailing bytes")
	}
	return c.err
}

// Fail records a decode error at the current offset, unless one is already
// recorded, and drops the rest of the input.
func (c *Codec) Fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%s at byte offset %d", what, c.end-len(c.b))
	}
	c.b = nil
}

// Int walks an int as a varint.
func (c *Codec) Int(p *int) {
	if !c.decode {
		c.b = binary.AppendVarint(c.b, int64(*p))
		return
	}
	v := c.varint()
	if int64(int(v)) != v {
		c.Fail("int overflows")
		return
	}
	*p = int(v)
}

// Int64 walks an int64 as a varint.
func (c *Codec) Int64(p *int64) {
	if !c.decode {
		c.b = binary.AppendVarint(c.b, *p)
		return
	}
	*p = c.varint()
}

// Float walks a float64 as its 8 little-endian IEEE bytes.
func (c *Codec) Float(p *float64) {
	if !c.decode {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if len(c.b) < 8 {
		c.Fail("short float")
		return
	}
	*p = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
}

// Bool walks a bool as one byte 0 or 1.
func (c *Codec) Bool(p *bool) { *p = c.Present(*p) }

// Present walks one 0/1 flag: it writes has when encoding and returns what
// the input holds when decoding.
func (c *Codec) Present(has bool) bool {
	if !c.decode {
		v := byte(0)
		if has {
			v = 1
		}
		c.b = append(c.b, v)
		return has
	}
	if len(c.b) == 0 || c.b[0] > 1 {
		c.Fail("bad flag byte")
		return false
	}
	v := c.b[0] == 1
	c.b = c.b[1:]
	return v
}

// String walks a string as a uvarint length and its bytes.
func (c *Codec) String(p *string) {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(len(*p)))
		c.b = append(c.b, *p...)
		return
	}
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.Fail("string length exceeds payload")
		return
	}
	*p = string(c.b[:n])
	c.b = c.b[n:]
}

// Len walks the count of a run of elements that take at least min bytes
// each: it writes n when encoding, and when decoding returns the count read,
// or fails and returns 0 if the input left cannot hold that many elements.
// what names the run in the error.
func (c *Codec) Len(n, min int, what string) int {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(n))
		return n
	}
	v := c.uvarint()
	if v > uint64(len(c.b)/min) {
		c.Fail(what + " count exceeds payload")
		return 0
	}
	return int(v)
}

// Floats walks a count-prefixed run of float64s; an empty run decodes as nil.
func (c *Codec) Floats(p *[]float64, what string) {
	Slice(c, p, what, 8)
	for i := range *p {
		c.Float(&(*p)[i])
	}
}

// Ints walks a count-prefixed run of ints; an empty run decodes as nil.
func (c *Codec) Ints(p *[]int, what string) {
	Slice(c, p, what, 1)
	for i := range *p {
		c.Int(&(*p)[i])
	}
}

// Slice walks the count of a run of elements that take at least min bytes
// each; a decode allocates the run, and an empty one decodes as nil. The
// caller then walks each element of *p.
//
// Neither Slice nor Ptr takes the element walk as a function value: a
// Codec handed to an unknown function escapes to the heap, and with it
// every Codec a walk starts.
func Slice[T any](c *Codec, p *[]T, what string, min int) {
	n := c.Len(len(*p), min, what)
	if c.decode {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
}

// Ptr walks an optional value's presence flag, so nil stays nil, and
// reports whether the value follows, for the caller to walk; a decode
// allocates it first.
func Ptr[T any](c *Codec, p **T) bool {
	if !c.Present(*p != nil) {
		*p = nil
		return false
	}
	if c.decode {
		*p = new(T)
	}
	return true
}

// Map walks an optional string-keyed map of ints or floats: a presence
// flag, so nil stays nil, then a count and the entries in strictly
// ascending key order, each the key and its value.
func Map[V int | float64](c *Codec, p *map[string]V, what string) {
	if !c.Present(*p != nil) {
		*p = nil
		return
	}
	// An entry takes at least a length byte and its value.
	var zero V
	min := 1 + 1
	if _, isFloat := any(zero).(float64); isFloat {
		min = 1 + 8
	}
	if !c.decode {
		var stack [4]string
		keys := stack[:0]
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.Len(len(keys), min, what)
		for _, k := range keys {
			v := (*p)[k]
			c.String(&k)
			c.number(&v)
		}
		return
	}
	n := c.Len(0, min, what)
	m := make(map[string]V, n)
	var prev string
	for i := range n {
		var k string
		var v V
		c.String(&k)
		c.number(&v)
		if c.err != nil {
			return
		}
		if i > 0 && k <= prev {
			c.Fail(what + " keys out of order")
			return
		}
		m[k], prev = v, k
	}
	*p = m
}

// number walks a map value as Int or Float walks it.
func (c *Codec) number(p any) {
	switch v := p.(type) {
	case *int:
		c.Int(v)
	case *float64:
		c.Float(v)
	}
}

// varint and uvarint accept only minimal encodings: a multi-byte varint
// whose last byte is zero would re-encode shorter.
func (c *Codec) varint() int64 {
	v, n := binary.Varint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.Fail("bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *Codec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.Fail("bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}
