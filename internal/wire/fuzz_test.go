package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mspastry/internal/pastry"
)

// FuzzFrameRoundTrip asserts the frame layer is total (arbitrary bytes
// either split into payloads or return an error, never panic) and
// canonical: payloads extracted from an accepted frame re-frame into a
// frame that yields the same payloads.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(single(hb(1)))
	batch := []byte{Version, frameBatch}
	for _, m := range []pastry.Message{hb(1), &pastry.Ack{Xfer: 9, From: ref(2)}} {
		p := pastry.AppendMessage(nil, m)
		batch = binary.AppendUvarint(batch, uint64(len(p)))
		batch = append(batch, p...)
	}
	f.Add(batch)
	f.Add([]byte{})
	f.Add([]byte{Version, frameBatch, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, err := Payloads(data)
		if err != nil {
			return
		}
		if len(payloads) == 0 {
			t.Fatalf("accepted frame %x with no payloads", data)
		}
		// Re-frame what we extracted and extract again: the payload
		// sequence must survive (uvarint prefixes admit non-minimal
		// encodings, so the frame image itself need not be identical).
		reframed := []byte{Version, frameBatch}
		for _, p := range payloads {
			reframed = binary.AppendUvarint(reframed, uint64(len(p)))
			reframed = append(reframed, p...)
		}
		back, err := Payloads(reframed)
		if err != nil || len(back) != len(payloads) {
			t.Fatalf("re-framed %x: %d payloads, err=%v", data, len(back), err)
		}
		for i := range back {
			if !bytes.Equal(back[i], payloads[i]) {
				t.Fatalf("payload %d changed across re-framing of %x", i, data)
			}
		}
		// A lone payload must also survive the single-frame path.
		single := AppendSingle(nil, payloads[0])
		back, err = Payloads(single)
		if err != nil || len(back) != 1 || !bytes.Equal(back[0], payloads[0]) {
			t.Fatalf("single re-framing of %x failed: %v", payloads[0], err)
		}
		// DecodeAll on the original frame must never panic either.
		DecodeAll(data)
	})
}
