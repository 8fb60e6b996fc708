package pastry

import (
	"reflect"
	"testing"
	"time"

	"mspastry/internal/id"
)

// FuzzDecodeSecureMessage drives the secure-routing wire surface — the
// RootReport codec and the Lookup WantReport bit — with arbitrary peer
// bytes: the decoder must be total (parse or error, never panic or
// over-allocate) and accepted messages must survive an encode/decode
// round trip exactly. Root reports cross trust boundaries by design (a
// colluder forges them), so this surface sees hostile input in normal
// operation, not just from bugs.
func FuzzDecodeSecureMessage(f *testing.F) {
	from := NodeRef{ID: id.New(1, 2), Addr: "127.0.0.1:9000"}
	leaf := NodeRef{ID: id.New(3, 4), Addr: "127.0.0.1:9001"}
	seeds := []Message{
		&RootReport{From: from, Seq: 42, Key: id.New(5, 6),
			Leaves: []NodeRef{leaf, from}, TrtHint: 30 * time.Second},
		&RootReport{From: from, Seq: 0, Key: id.ID{}},
		&Envelope{Xfer: 9, NeedAck: true, From: from, Lookup: &Lookup{
			Key: id.New(7, 8), Seq: 3, Origin: leaf, WantReport: true,
			Payload: []byte("p")}},
	}
	for _, m := range seeds {
		f.Add(AppendMessage(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{20})
	f.Add([]byte{20, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		back := AppendMessage(nil, m)
		m2, err := DecodeMessage(back)
		if err != nil {
			t.Fatalf("re-encoding of accepted %x does not decode: %v", data, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed message for %x: %#v != %#v", data, m, m2)
		}
		if rr, ok := m.(*RootReport); ok && len(rr.Leaves) > maxWireSlice {
			t.Fatalf("decoder accepted %d leaves (cap %d)", len(rr.Leaves), maxWireSlice)
		}
	})
}
