package splitstream

import (
	"testing"

	"mspastry/internal/codectest"
)

// FuzzDecodeBlock asserts the splitstream block decoder is total and canonical:
// arbitrary peer bytes either parse or are rejected, never panic, and an
// accepted payload re-encodes to a stable wire image.
func FuzzDecodeBlock(f *testing.F) {
	codectest.Seed(f, "testdata/corpus.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.FuzzRoundTrip(t, corpusCodec, data)
	})
}
