package pastry

import (
	"fmt"
	"testing"

	"mspastry/internal/codectest"
)

// corpusCodec decodes one message for the committed corpus check.
func corpusCodec(frame []byte) (string, []byte, bool) {
	m, err := DecodeMessage(frame)
	if err != nil {
		return "", nil, false
	}
	return fmt.Sprintf("%T %s", m, codectest.Render(m)), AppendMessage(nil, m), true
}

// TestCodecCorpus pins every message type's wire image byte for byte
// (testdata/corpus.json holds frames from the original encoders).
func TestCodecCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
