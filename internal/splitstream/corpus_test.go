package splitstream

import (
	"testing"

	"mspastry/internal/codectest"
)

// corpusCodec decodes one block for the committed corpus check.
func corpusCodec(frame []byte) (string, []byte, bool) {
	seq, stripe, origLen, block, ok := decodeBlock(frame)
	if !ok {
		return "", nil, false
	}
	rendered := codectest.Render(struct {
		Seq             uint64
		Stripe, OrigLen int
		Block           []byte `json:",omitempty"`
	}{seq, stripe, origLen, block})
	return rendered, encodeBlock(seq, stripe, origLen, block), true
}

// TestBlockCorpus pins the block encoding byte for byte
// (testdata/corpus.json holds blocks from the original encoder).
func TestBlockCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
