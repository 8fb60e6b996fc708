package store

import (
	"testing"

	"mspastry/internal/codectest"
)

// corpusCodec decodes one object encoding for the committed corpus check.
func corpusCodec(frame []byte) (string, []byte, bool) {
	o, ok := DecodeObject(frame)
	if !ok {
		return "", nil, false
	}
	return codectest.Render(o), EncodeObject(nil, o), true
}

// TestObjectCorpus pins the object encoding byte for byte
// (testdata/corpus.json holds encodings from the original encoder).
func TestObjectCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
