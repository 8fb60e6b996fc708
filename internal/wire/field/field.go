// Package field is the codec kit every wire format in the module shares:
// a sticky-error Reader for decoding and the append and length helpers
// the encoders use. Formats are built from a few primitives: single
// bytes, bools (one byte, nonzero reads as true), unsigned and zig-zag
// varints, raw 16-byte identifiers, and uvarint-length-prefixed strings
// and byte slices.
//
// A decoder is a straight line of Reader calls. The first failure sticks:
// every later read returns a zero value, so the decoder checks Err (or
// Done) once at the end instead of after each field. Limits that belong to
// one format — slice caps, version rules, flag masks — stay in its
// decoder, which reports them with Fail.
package field

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"mspastry/internal/id"
)

// Decode failures. They are sentinel values so a rejected frame costs no
// allocation.
var (
	ErrShort    = errors.New("short buffer")
	ErrVarint   = errors.New("bad varint")
	ErrTrailing = errors.New("trailing bytes")
)

// Reader decodes fields from the front of a buffer. Slices it returns
// alias the buffer.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is already recorded, and drops the
// unread bytes so every later read fails too.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Len returns the number of unread bytes (zero after a failure).
func (r *Reader) Len() int { return len(r.buf) }

// Done returns the first failure, or ErrTrailing when unread bytes
// remain.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		r.Fail(ErrTrailing)
	}
	return r.err
}

// Take returns the next n bytes, or nil and a failure when fewer remain.
func (r *Reader) Take(n int) []byte {
	if n < 0 || len(r.buf) < n {
		r.Fail(ErrShort)
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// Rest returns every unread byte.
func (r *Reader) Rest() []byte {
	out := r.buf
	r.buf = r.buf[len(r.buf):]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) < 1 {
		r.Fail(ErrShort)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bool reads one byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail(ErrVarint)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.Fail(ErrVarint)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// ID reads a 16-byte identifier.
func (r *Reader) ID() id.ID {
	if len(r.buf) < 16 {
		r.Fail(ErrShort)
		return id.ID{}
	}
	x := id.FromBytes(r.buf)
	r.buf = r.buf[16:]
	return x
}

// AppendID appends x's 16 raw bytes.
func AppendID(dst []byte, x id.ID) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, x.Hi), x.Lo)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBytes appends b with a uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// UvarintLen is len(binary.AppendUvarint(nil, v)).
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarintLen is len(binary.AppendVarint(nil, v)).
func VarintLen(v int64) int { return UvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }
