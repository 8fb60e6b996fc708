package scribe

import (
	"testing"

	"mspastry/internal/codectest"
	"mspastry/internal/id"
	"mspastry/internal/pastry"
)

// corpusCodec decodes one scribe payload by its kind byte for the
// committed corpus check and re-encodes it with that kind's encoder.
func corpusCodec(frame []byte) (string, []byte, bool) {
	if len(frame) == 0 {
		return "", nil, false
	}
	type fields struct {
		Kind    byte
		Group   id.ID
		Child   *pastry.NodeRef `json:",omitempty"`
		Nonce   uint64
		Payload []byte `json:",omitempty"`
	}
	f := fields{Kind: frame[0]}
	var re []byte
	ok := false
	switch frame[0] {
	case kindSubscribe:
		var child pastry.NodeRef
		f.Group, child, ok = decodeSubscribe(frame)
		f.Child = &child
		re = encodeSubscribe(f.Group, child)
	case kindPublish:
		f.Group, f.Payload, ok = decodePublish(frame)
		re = encodePublish(f.Group, f.Payload)
	case kindMulticast:
		f.Group, f.Nonce, f.Payload, ok = decodeMulticast(frame)
		re = encodeMulticast(f.Group, f.Nonce, f.Payload)
	}
	if !ok {
		return "", nil, false
	}
	return codectest.Render(f), re, true
}

// TestCodecCorpus pins every scribe payload kind's wire image byte for
// byte (testdata/corpus.json holds frames from the original encoders).
func TestCodecCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
