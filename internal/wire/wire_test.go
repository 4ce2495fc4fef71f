package wire

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// record exercises every walk the package offers.
type record struct {
	I    int
	I64  int64
	F    float64
	B    bool
	S    string
	Fs   []float64
	Is   []int
	Kids []kid
	P    *kid
	MI   map[string]int
	MF   map[string]float64
}

type kid struct {
	N    int
	Name string
}

func (k *kid) walk(c *Codec) {
	c.Int(&k.N)
	c.String(&k.Name)
}

func (r *record) walk(c *Codec) {
	c.Int(&r.I)
	c.Int64(&r.I64)
	c.Float(&r.F)
	c.Bool(&r.B)
	c.String(&r.S)
	c.Floats(&r.Fs, "floats")
	c.Ints(&r.Is, "ints")
	Slice(c, &r.Kids, "kids", 2)
	for i := range r.Kids {
		r.Kids[i].walk(c)
	}
	if Ptr(c, &r.P) {
		r.P.walk(c)
	}
	Map(c, &r.MI, "int map")
	Map(c, &r.MF, "float map")
}

func encode(r *record) []byte {
	c := NewEncoder(nil)
	r.walk(c)
	return c.Bytes()
}

func decode(p []byte) (*record, error) {
	r := new(record)
	c := NewDecoder(p, 0)
	r.walk(c)
	return r, c.Finish()
}

// equal compares two records field by field, floats by their bits, so a
// NaN's payload and the sign of zero count.
func equal(a, b *record) error {
	fl := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case a.I != b.I || a.I64 != b.I64 || a.B != b.B || a.S != b.S:
		return fmt.Errorf("scalars differ: %v %v %v %q vs %v %v %v %q", a.I, a.I64, a.B, a.S, b.I, b.I64, b.B, b.S)
	case !fl(a.F, b.F):
		return fmt.Errorf("float bits %#x vs %#x", math.Float64bits(a.F), math.Float64bits(b.F))
	case (a.Fs == nil) != (b.Fs == nil) || len(a.Fs) != len(b.Fs):
		return fmt.Errorf("float runs %d vs %d (nil %v vs %v)", len(a.Fs), len(b.Fs), a.Fs == nil, b.Fs == nil)
	case fmt.Sprint(a.Is) != fmt.Sprint(b.Is) || (a.Is == nil) != (b.Is == nil):
		return fmt.Errorf("int runs %v vs %v", a.Is, b.Is)
	case fmt.Sprint(a.Kids) != fmt.Sprint(b.Kids) || (a.Kids == nil) != (b.Kids == nil):
		return fmt.Errorf("kids %v vs %v", a.Kids, b.Kids)
	case (a.P == nil) != (b.P == nil) || a.P != nil && *a.P != *b.P:
		return fmt.Errorf("pointers %v vs %v", a.P, b.P)
	case (a.MI == nil) != (b.MI == nil) || len(a.MI) != len(b.MI):
		return fmt.Errorf("int maps %v vs %v", a.MI, b.MI)
	case (a.MF == nil) != (b.MF == nil) || len(a.MF) != len(b.MF):
		return fmt.Errorf("float maps have %d vs %d entries", len(a.MF), len(b.MF))
	}
	for i := range a.Fs {
		if !fl(a.Fs[i], b.Fs[i]) {
			return fmt.Errorf("float run [%d] bits %#x vs %#x", i, math.Float64bits(a.Fs[i]), math.Float64bits(b.Fs[i]))
		}
	}
	for k, v := range a.MI {
		if w, ok := b.MI[k]; !ok || w != v {
			return fmt.Errorf("int map [%q] = %d vs %d", k, v, w)
		}
	}
	for k, v := range a.MF {
		if w, ok := b.MF[k]; !ok || !fl(v, w) {
			return fmt.Errorf("float map [%q] bits %#x vs %#x", k, math.Float64bits(v), math.Float64bits(w))
		}
	}
	return nil
}

// fuzzRecord builds a record from fuzz arguments. Runs and maps are nil
// when empty, as a decode leaves them.
func fuzzRecord(i int64, bits uint64, b bool, s string, raw []byte) *record {
	r := &record{I: int(i), I64: -i ^ 0x5a5a, F: math.Float64frombits(bits), B: b, S: s}
	for ; len(raw) >= 8; raw = raw[8:] {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(raw[k]) << (8 * k)
		}
		r.Fs = append(r.Fs, math.Float64frombits(v))
	}
	for _, x := range raw {
		r.Is = append(r.Is, int(int8(x))<<(x%48))
	}
	if s != "" {
		r.MI, r.MF = map[string]int{}, map[string]float64{}
		for k, part := range strings.Split(s, ",") {
			r.Kids = append(r.Kids, kid{N: k - int(i%7), Name: part})
			r.MI[part] = int(i) + k
			r.MF[part] = math.Float64frombits(bits + uint64(k))
		}
	}
	if b {
		r.P = &kid{N: int(i >> 3), Name: s}
	}
	return r
}

// FuzzWireRoundTrip checks both directions of the codec on arbitrary
// values and bytes: a value built from the fuzz arguments encodes, decodes
// with no error to an equal value (float bits included, NaN payloads too)
// and re-encodes to the same bytes; and whatever arbitrary input decodes
// re-encodes to exactly that input, which is what canonical means. No input
// may panic a decode.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(int64(0), uint64(0), false, "", []byte(nil))
	f.Add(int64(-1), uint64(0x7ff8000000000001), true, "b,a,c", []byte{0xff, 0, 0, 0, 0, 0, 0xf0, 0x7f, 3})
	f.Add(int64(math.MinInt64), uint64(0x8000000000000000), true, ",", []byte("NaN-ish bytes"))
	f.Add(int64(1<<40), uint64(0xfff0000000000001), false, "x,y,x", encode(fuzzRecord(7, 1, true, "k,j", []byte{1, 2})))
	f.Fuzz(func(t *testing.T, i int64, bits uint64, b bool, s string, raw []byte) {
		want := fuzzRecord(i, bits, b, s, raw)
		enc := encode(want)
		got, err := decode(enc)
		if err != nil {
			t.Fatalf("decoding an encoding: %v", err)
		}
		if err := equal(got, want); err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if again := encode(got); !bytes.Equal(again, enc) {
			t.Fatal("a decoded value re-encodes to different bytes")
		}

		if r, err := decode(raw); err == nil {
			if again := encode(r); !bytes.Equal(again, raw) {
				t.Fatalf("input %x decodes but re-encodes as %x: the decoder accepted a non-canonical encoding", raw, again)
			}
		}
	})
}

// TestMapKeysSorted: a map encodes its entries in ascending key order
// whatever order Go iterates it in, so equal maps encode to equal bytes.
func TestMapKeysSorted(t *testing.T) {
	m := map[string]int{"c": 3, "a": 1, "b": 2, "d": 4, "e": 5}
	c := NewEncoder(nil)
	Map(c, &m, "map")
	want := []byte{1, 5, 1, 'a', 2, 1, 'b', 4, 1, 'c', 6, 1, 'd', 8, 1, 'e', 10}
	if !bytes.Equal(c.Bytes(), want) {
		t.Fatalf("encoded %v, want %v", c.Bytes(), want)
	}
}

// TestDecodeRejectsNonCanonical: every encoding that would not re-encode to
// itself, and every count the input cannot hold, fails at a known byte
// offset counted from the decoder's base: where the bad field starts, or for
// misordered map keys, just past the second key's entry.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	const base = 100
	cases := []struct {
		name string
		in   []byte
		walk func(c *Codec)
		want string
	}{
		{"over-long varint", []byte{0x80, 0x00}, func(c *Codec) { var v int; c.Int(&v) },
			"bad varint at byte offset 100"},
		{"over-long varint after a field", []byte{0x02, 0x81, 0x80, 0x00}, func(c *Codec) { var v int64; c.Int64(&v); c.Int64(&v) },
			"bad varint at byte offset 101"},
		{"flag byte 2", []byte{0x02, 0x02}, func(c *Codec) { var v int; var b bool; c.Int(&v); c.Bool(&b) },
			"bad flag byte at byte offset 101"},
		{"presence flag 2", []byte{0x02}, func(c *Codec) { var p *kid; Ptr(c, &p) },
			"bad flag byte at byte offset 100"},
		{"short float", []byte{1, 2, 3}, func(c *Codec) { var f float64; c.Float(&f) },
			"short float at byte offset 100"},
		{"string past the payload", []byte{0x05, 'a', 'b'}, func(c *Codec) { var s string; c.String(&s) },
			"string length exceeds payload at byte offset 101"},
		{"run count past the payload", []byte{0x02, 0, 0, 0, 0, 0, 0, 0, 0}, func(c *Codec) { var fs []float64; c.Floats(&fs, "floats") },
			"floats count exceeds payload at byte offset 101"},
		{"map keys out of order", []byte{1, 2, 1, 'b', 2, 1, 'a', 4}, func(c *Codec) { var m map[string]int; Map(c, &m, "map") },
			"map keys out of order at byte offset 108"},
		{"duplicate map key", []byte{1, 2, 1, 'a', 2, 1, 'a', 4}, func(c *Codec) { var m map[string]int; Map(c, &m, "map") },
			"map keys out of order at byte offset 108"},
		{"trailing bytes", []byte{0x02, 0x00}, func(c *Codec) { var v int; c.Int(&v) },
			"trailing bytes at byte offset 101"},
	}
	for _, tc := range cases {
		c := NewDecoder(tc.in, base)
		tc.walk(c)
		err := c.Finish()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
