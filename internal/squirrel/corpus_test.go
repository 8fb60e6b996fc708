package squirrel

import (
	"testing"

	"mspastry/internal/codectest"
)

// corpusCodec decodes one squirrel payload by its kind byte for the
// committed corpus check and re-encodes it with that kind's encoder.
func corpusCodec(frame []byte) (string, []byte, bool) {
	if len(frame) == 0 {
		return "", nil, false
	}
	type fields struct {
		Kind    byte
		ReqID   uint64
		URL     string  `json:",omitempty"`
		Outcome Outcome `json:",omitempty"`
		Body    []byte  `json:",omitempty"`
	}
	f := fields{Kind: frame[0]}
	var re []byte
	ok := false
	switch frame[0] {
	case kindRequest:
		f.ReqID, f.URL, ok = decodeRequest(frame)
		re = encodeRequest(f.ReqID, f.URL)
	case kindResponse:
		f.ReqID, f.Body, f.Outcome, ok = decodeResponse(frame)
		re = encodeResponse(f.ReqID, f.Body, f.Outcome)
	}
	if !ok {
		return "", nil, false
	}
	return codectest.Render(f), re, true
}

// TestCodecCorpus pins both squirrel payload kinds byte for byte
// (testdata/corpus.json holds frames from the original encoders).
func TestCodecCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
