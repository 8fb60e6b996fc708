package hotspot

import (
	"testing"

	"mspastry/internal/codectest"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// corpusCodec decodes one hotspot message by its kind byte for the
// committed corpus check and re-encodes it with that kind's encoder.
func corpusCodec(frame []byte) (string, []byte, bool) {
	if len(frame) == 0 {
		return "", nil, false
	}
	type fields struct {
		Kind             byte
		ReqID            uint64
		Vias             []Via `json:",omitempty"`
		Found, FromCache bool
		Key              id.ID
		Version, Origin  uint64
		Dig              store.Digest
		Value            []byte `json:",omitempty"`
	}
	f := fields{Kind: frame[0]}
	var re []byte
	ok := false
	switch frame[0] {
	case KindGetVia:
		f.ReqID, f.Vias, ok = DecodeGetVia(frame)
		re = EncodeGetVia(f.ReqID, f.Vias)
	case KindCachedReply:
		f.ReqID, f.Found, f.FromCache, f.Version, f.Origin, f.Dig, f.Value, ok = DecodeCachedReply(frame)
		re = EncodeCachedReply(f.ReqID, f.Found, f.FromCache, f.Version, f.Origin, f.Dig, f.Value)
	case KindDeposit:
		var e Entry
		e, ok = DecodeDeposit(frame)
		f.Key, f.Version, f.Origin, f.Dig, f.Value = e.Key, e.Version, e.Origin, e.Dig, e.Value
		re = EncodeDeposit(e)
	case KindInvalidate:
		f.Key, f.Version, f.Origin, ok = DecodeInvalidate(frame)
		re = EncodeInvalidate(f.Key, f.Version, f.Origin)
	}
	if !ok {
		return "", nil, false
	}
	return codectest.Render(f), re, true
}

// TestCodecCorpus pins every hotspot message kind's wire image byte for
// byte (testdata/corpus.json holds frames from the original encoders).
func TestCodecCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
