package wire

import (
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"mspastry/internal/codectest"
)

// corpusCodec splits and decodes one frame for the committed corpus
// check; a frame decodes only when every message in it does. It
// re-encodes by sending the messages through a coalescer (no window for a
// single frame, one flush for a batch), so the corpus pins the frames the
// coalescer assembles.
func corpusCodec(frame []byte) (string, []byte, bool) {
	payloads, err := Payloads(frame)
	if err != nil {
		return "", nil, false
	}
	msgs, _, bad, _ := DecodeAll(frame)
	if bad > 0 {
		return "", nil, false
	}
	parts := make([]string, len(msgs))
	for i, m := range msgs {
		parts[i] = fmt.Sprintf("%T %s", m, hex.EncodeToString(payloads[i]))
	}
	window := time.Duration(0)
	if frame[1] == frameBatch {
		window = time.Second
	}
	co, _, flushes := newTestCoalescer(window, 0, 0)
	for _, m := range msgs {
		if _, err := co.Send("p", ref(1), m); err != nil {
			return "", nil, false
		}
	}
	co.FlushAll()
	var re []byte
	for _, f := range *flushes {
		re = append(re, f.Frame...)
	}
	return codectest.Render(parts), re, true
}

// TestFrameCorpus pins single and batch frames byte for byte
// (testdata/corpus.json holds frames from the original coalescer).
func TestFrameCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
