package squirrel

import (
	"testing"

	"mspastry/internal/codectest"
)

// FuzzDecodeSquirrel asserts the squirrel decoders are total and canonical:
// arbitrary peer bytes either parse or are rejected, never panic, and an
// accepted payload re-encodes to a stable wire image.
func FuzzDecodeSquirrel(f *testing.F) {
	codectest.Seed(f, "testdata/corpus.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.FuzzRoundTrip(t, corpusCodec, data)
	})
}
