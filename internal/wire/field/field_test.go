package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"mspastry/internal/codectest"
	"mspastry/internal/id"
)

// readAll reads data as a sequence of fields whose kinds cycle through
// ops (byte, bool, uvarint, varint, ID, length-prefixed bytes) until the
// data runs out, and re-encodes each field with the matching helper.
func readAll(ops, data []byte) ([]byte, error) {
	if len(ops) == 0 {
		ops = []byte{2}
	}
	r := NewReader(data)
	var out []byte
	for i := 0; r.Len() > 0; i++ {
		switch ops[i%len(ops)] % 6 {
		case 0:
			out = append(out, r.Byte())
		case 1:
			out = AppendBool(out, r.Bool())
		case 2:
			out = binary.AppendUvarint(out, r.Uvarint())
		case 3:
			out = binary.AppendVarint(out, r.Varint())
		case 4:
			out = AppendID(out, r.ID())
		case 5:
			out = AppendBytes(out, r.Take(int(r.Uvarint())))
		}
	}
	return out, r.Done()
}

// FuzzReader asserts the Reader never panics on arbitrary bytes under any
// field sequence, and that whatever it reads re-encodes canonically: the
// re-encoding reads back under the same sequence to the same bytes.
func FuzzReader(f *testing.F) {
	corpora, _ := filepath.Glob("../../*/testdata/corpus.json")
	for _, path := range corpora {
		_, frames := codectest.Load(f, path)
		for _, frame := range frames {
			f.Add([]byte{0, 2, 5, 1, 3, 4}, frame)
		}
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3}, []byte{0x80, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		enc, err := readAll(ops, data)
		if err != nil {
			return
		}
		again, err := readAll(ops, enc)
		if err != nil {
			t.Fatalf("re-encoding %x of accepted %x does not read back: %v", enc, data, err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding of %x is not canonical: %x then %x", data, enc, again)
		}
	})
}

func TestReaderFieldsRoundTrip(t *testing.T) {
	x := id.New(0x0102030405060708, 0x090a0b0c0d0e0f10)
	var buf []byte
	buf = append(buf, 7)
	buf = AppendBool(buf, true)
	buf = binary.AppendUvarint(buf, math.MaxUint64)
	buf = binary.AppendVarint(buf, math.MinInt64)
	buf = AppendID(buf, x)
	buf = AppendString(buf, "addr")
	buf = AppendBytes(buf, nil)
	buf = append(buf, "tail"...)
	if !bytes.Equal(AppendID(nil, x), x.Bytes()) {
		t.Fatalf("AppendID = %x, want %x", AppendID(nil, x), x.Bytes())
	}
	r := NewReader(buf)
	if b, ok, u, v, got := r.Byte(), r.Bool(), r.Uvarint(), r.Varint(), r.ID(); b != 7 || !ok ||
		u != math.MaxUint64 || v != math.MinInt64 || got != x {
		t.Fatalf("read %d %v %d %d %v", b, ok, u, v, got)
	}
	if s := string(r.Take(int(r.Uvarint()))); s != "addr" {
		t.Fatalf("string %q", s)
	}
	if n := r.Uvarint(); n != 0 {
		t.Fatalf("empty bytes length %d", n)
	}
	if r.Done() != ErrTrailing {
		t.Fatalf("Done with unread bytes = %v, want ErrTrailing", r.Err())
	}
}

func TestReaderFailureSticks(t *testing.T) {
	r := NewReader([]byte{0x80, 1, 2, 3})
	r.Take(5)
	if !errors.Is(r.Err(), ErrShort) || r.Len() != 0 {
		t.Fatalf("after short Take: err %v, %d bytes left", r.Err(), r.Len())
	}
	if r.Byte() != 0 || r.Uvarint() != 0 || r.ID() != (id.ID{}) || r.Take(0) != nil || !errors.Is(r.Done(), ErrShort) {
		t.Fatal("reads after a failure must return zero values and keep the first error")
	}
	r = NewReader([]byte{0x80})
	if r.Uvarint(); !errors.Is(r.Err(), ErrVarint) {
		t.Fatalf("truncated varint: %v", r.Err())
	}
	r = NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	if r.Uvarint(); !errors.Is(r.Err(), ErrVarint) {
		t.Fatalf("overflowing varint: %v", r.Err())
	}
	r = NewReader([]byte{2, 0})
	if r.Bool() != true || r.Bool() != false || r.Done() != nil {
		t.Fatal("bools: nonzero reads true, zero false")
	}
}

func TestLengths(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if got, want := UvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
		s := int64(v)
		if got, want := VarintLen(s), len(binary.AppendVarint(nil, s)); got != want {
			t.Errorf("VarintLen(%d) = %d, want %d", s, got, want)
		}
		if got, want := VarintLen(-s), len(binary.AppendVarint(nil, -s)); got != want {
			t.Errorf("VarintLen(%d) = %d, want %d", -s, got, want)
		}
	}
}
