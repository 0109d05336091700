// Package wire holds the primitives of the repo's hand-written binary
// encodings — profdb databases and the cluster peer wire: append helpers
// for strings, byte fields, booleans and floats, and Reader, a
// bounds-checked cursor over untrusted bytes.
//
//	uvarint := minimal base-128 varint (binary.AppendUvarint)
//	varint  := zigzag uvarint (binary.AppendVarint)
//	float   := uvarint(byte-reversed IEEE-754 bits)
//	bytes   := uvarint(len) bytes
//	str     := bytes
//	bool    := 0x00 | 0x01
//
// There is one varint rule: minimal. A longer spelling of the same value
// is refused, so whatever a Reader accepts re-encodes to the bytes it came
// from. Floats reverse their bytes before the varint, as gob does, so the
// integer-valued floats profiles are full of take two or three bytes
// instead of nine.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// AppendBytes appends s as a length-prefixed field.
func AppendBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStr appends s as a length-prefixed field.
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends f's exact bits, byte-reversed, as a uvarint.
func AppendFloat(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// UvarintAt decodes the minimal uvarint at b[off:] and returns it with the
// offset just past it, or a negative offset when it is truncated, overflows
// 64 bits or is not minimal. Hot loops call this directly, between the
// Rest and Take of a Reader.
func UvarintAt(b []byte, off int) (uint64, int) {
	var v uint64
	for i, shift := off, uint(0); i < len(b) && shift < 64; i, shift = i+1, shift+7 {
		c := b[i]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if (c == 0 && i > off) || (shift == 63 && c > 1) {
				return 0, -1
			}
			return v, i + 1
		}
	}
	return 0, -1
}

// Unzigzag maps a uvarint back to the signed value binary.AppendVarint
// wrote.
func Unzigzag(u uint64) int64 {
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Float is the float whose byte-reversed bits are u (see AppendFloat).
func Float(u uint64) float64 { return math.Float64frombits(bits.ReverseBytes64(u)) }

// Reader is a bounds-checked cursor over untrusted bytes with a sticky
// error: after the first failure every read returns zero, so decoding code
// checks Err at record or message granularity instead of after each field.
// The error wraps the sentinel the reader was made with.
type Reader struct {
	b        []byte
	off      int
	err      error
	sentinel error
}

// NewReader returns a reader over b starting at byte off; its failures
// wrap sentinel.
func NewReader(b []byte, off int, sentinel error) Reader {
	return Reader{b: b, off: off, sentinel: sentinel}
}

// Err reports the first failure, nil if there was none.
func (r *Reader) Err() error { return r.err }

// Fail records a failure unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format+": %w", append(args, r.sentinel)...)
	}
}

// Offset reports the read position within the bytes.
func (r *Reader) Offset() int { return r.off }

// Remaining reports how many bytes are left to read.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Rest returns the unread bytes without consuming them; nil after a
// failure.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

// End fails on unread bytes and reports the first failure.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.b) {
		r.Fail("%d trailing bytes after byte %d", r.Remaining(), r.off)
	}
	return r.err
}

// Uvarint reads a minimal uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, next := UvarintAt(r.b, r.off)
	if next < 0 {
		r.Fail("truncated, overlong or non-minimal varint at byte %d", r.off)
		return 0
	}
	r.off = next
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 { return Unzigzag(r.Uvarint()) }

// Float reads a float written by AppendFloat.
func (r *Reader) Float() float64 { return Float(r.Uvarint()) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.Fail("truncated at byte %d", r.off)
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// Bool reads a boolean or an optional-field marker: 0 or 1, nothing else.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) || r.b[r.off] > 1 {
		r.Fail("bad boolean or marker at byte %d", r.off)
		return false
	}
	r.off++
	return r.b[r.off-1] == 1
}

// Take returns the next n bytes without copying, capacity-limited so an
// append to them cannot reach what follows; empty is nil.
func (r *Reader) Take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Fail("length %d at byte %d exceeds the %d bytes remaining", n, r.off, r.Remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	end := r.off + int(n)
	s := r.b[r.off:end:end]
	r.off = end
	return s
}

// Bytes reads a length-prefixed field without copying (see Take).
func (r *Reader) Bytes() []byte { return r.Take(r.Uvarint()) }

// Str reads a length-prefixed field as a string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count reads an element count and checks it against the bytes remaining,
// given that each element occupies at least minBytes — the guard that keeps
// a hostile count from sizing an allocation.
func (r *Reader) Count(what string, minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/minBytes) {
		r.Fail("%d %s at byte %d cannot fit in the %d bytes remaining", n, what, r.off, r.Remaining())
		return 0
	}
	return int(n)
}
