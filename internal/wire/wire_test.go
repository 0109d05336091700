package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// UvarintAt accepts exactly what binary.AppendUvarint writes: the value
// back, and no longer spelling of it.
func TestUvarintAtIsMinimal(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 35, math.MaxUint64} {
		b := append([]byte{0xaa}, binary.AppendUvarint(nil, v)...)
		if got, next := UvarintAt(b, 1); got != v || next != len(b) {
			t.Errorf("%d: got %d, next %d of %d", v, got, next, len(b))
		}
	}
	for name, b := range map[string][]byte{
		"empty":            {},
		"truncated":        {0x80},
		"zero in two":      {0x80, 0x00},
		"one in three":     {0x81, 0x80, 0x00},
		"past 64 bits":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"eleven bytes":     {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"max plus padding": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00},
	} {
		if _, next := UvarintAt(b, 0); next >= 0 {
			t.Errorf("%s: accepted, next %d", name, next)
		}
	}
}

// A failure sticks, wraps the reader's sentinel, and zeroes later reads.
func TestReaderErrorIsStickyAndWrapsSentinel(t *testing.T) {
	sentinel := errors.New("test: corrupt")
	b := AppendStr(nil, "ok")
	b = append(b, 0x80, 0x00) // a non-minimal zero
	b = AppendFloat(b, 2.5)
	r := NewReader(b, 0, sentinel)
	if s := r.Str(); s != "ok" || r.Err() != nil {
		t.Fatalf("str = %q, err %v", s, r.Err())
	}
	if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), sentinel) {
		t.Fatalf("non-minimal varint: %d, err %v", v, r.Err())
	}
	if f := r.Float(); f != 0 {
		t.Fatalf("read after a failure returned %v", f)
	}
	if err := r.End(); !errors.Is(err, sentinel) {
		t.Fatalf("End = %v", err)
	}
}

// Counts and lengths are held to the bytes remaining before anything is
// sized from them.
func TestReaderChecksCountsAndLengths(t *testing.T) {
	sentinel := errors.New("test: corrupt")
	b := binary.AppendUvarint(nil, 3)
	r := NewReader(append(b, 1, 2), 0, sentinel)
	if n := r.Count("items", 1); n != 0 || !errors.Is(r.Err(), sentinel) {
		t.Fatalf("3 items in 2 bytes: n = %d, err %v", n, r.Err())
	}
	r = NewReader(append(b, 1, 2), 0, sentinel)
	if s := r.Bytes(); s != nil || !errors.Is(r.Err(), sentinel) {
		t.Fatalf("3 bytes in 2: %v, err %v", s, r.Err())
	}
	r = NewReader([]byte{1, 0, 2}, 0, sentinel)
	if !r.Bool() || r.Bool() || r.Err() != nil {
		t.Fatalf("markers 1, 0: err %v", r.Err())
	}
	if r.Bool(); !errors.Is(r.Err(), sentinel) {
		t.Fatal("a marker other than 0 or 1 must fail")
	}
}
