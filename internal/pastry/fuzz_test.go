package pastry

import (
	"reflect"
	"testing"
	"time"

	"mspastry/internal/id"
)

// FuzzDecodeMessage asserts the message decoder is total — arbitrary peer
// bytes either parse or error, never panic or over-allocate — and that
// accepted messages survive an encode/decode round trip exactly.
func FuzzDecodeMessage(f *testing.F) {
	from := NodeRef{ID: id.New(1, 2), Addr: "127.0.0.1:9000"}
	to := NodeRef{ID: id.New(3, 4), Addr: "127.0.0.1:9001"}
	seeds := []Message{
		&Heartbeat{From: from, TrtHint: 30 * time.Second},
		&Ack{Xfer: 7, From: from, TrtHint: time.Second},
		&LSProbe{From: from, Leaves: []NodeRef{to}, Failed: []NodeRef{from}, NeedNear: true},
		&RTProbe{From: from},
		&JoinReply{Rows: []NodeRef{to}, Leaves: []NodeRef{from}},
		&AppDirect{From: from, Payload: []byte("payload")},
	}
	for _, m := range seeds {
		f.Add(AppendMessage(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
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
		if m.Category() != m2.Category() {
			t.Fatalf("category changed across round trip for %x", data)
		}
	})
}
