// Package codectest checks wire codecs against a committed corpus of
// frames. Each entry holds a frame's bytes, a rendering of what it decodes
// to, and whether each strict prefix of it decodes; the check recomputes
// all three from the code under test and requires that the decoded value
// re-encodes to the same bytes. A corpus file is never rewritten by a
// test: a changed frame is a changed wire format. To add a frame, append
// an entry with its name and hex; the failing check prints the full entry.
package codectest

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// Codec decodes one frame. It returns a rendering of the decoded value
// and that value re-encoded, or ok=false when the frame is rejected.
type Codec func(frame []byte) (decoded string, reencoded []byte, ok bool)

// Entry is one corpus frame.
type Entry struct {
	Name    string `json:"name"`
	Hex     string `json:"hex"`
	Decoded string `json:"decoded"`
	// Prefixes has one character per strict prefix length 0..len-1:
	// '1' when that prefix decodes, '0' when it is rejected.
	Prefixes string `json:"prefixes"`
}

// Make builds the entry for frame under codec.
func Make(name string, frame []byte, codec Codec) Entry {
	e := Entry{Name: name, Hex: hex.EncodeToString(frame)}
	e.Decoded, _, _ = codec(frame)
	p := make([]byte, len(frame))
	for cut := range p {
		p[cut] = '0'
		if _, _, ok := codec(frame[:cut]); ok {
			p[cut] = '1'
		}
	}
	e.Prefixes = string(p)
	return e
}

// Render is the JSON rendering codecs use for decoded values.
func Render(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// Load reads a corpus file and returns its entries with their frames.
func Load(t testing.TB, path string) ([]Entry, [][]byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	frames := make([][]byte, len(entries))
	for i, e := range entries {
		if frames[i], err = hex.DecodeString(e.Hex); err != nil {
			t.Fatalf("%s: entry %q: %v", path, e.Name, err)
		}
	}
	return entries, frames
}

// Seed adds every frame of the corpus at path to f's seed corpus.
func Seed(f *testing.F, path string) {
	_, frames := Load(f, path)
	for _, frame := range frames {
		f.Add(frame)
	}
}

// FuzzRoundTrip is the body of a codec fuzz target: decoding data must
// not panic, and when it decodes, its re-encoding must decode to the same
// value and re-encode to the same bytes. (Inputs may use non-minimal
// varints or nonzero bools other than 1, so data itself need not equal its
// re-encoding; the re-encoding is canonical.)
func FuzzRoundTrip(t *testing.T, codec Codec, data []byte) {
	decoded, re, ok := codec(data)
	if !ok {
		return
	}
	again, re2, ok := codec(re)
	if !ok {
		t.Fatalf("re-encoding %x of accepted %x does not decode", re, data)
	}
	if again != decoded || string(re2) != string(re) {
		t.Fatalf("round trip of %x changed:\n %s -> %x\n %s -> %x", data, decoded, re, again, re2)
	}
}

// Check verifies every entry of the corpus at path against codec.
func Check(t *testing.T, path string, codec Codec) {
	t.Helper()
	entries, frames := Load(t, path)
	if len(entries) == 0 {
		t.Fatalf("%s: empty corpus", path)
	}
	for i, want := range entries {
		_, re, ok := codec(frames[i])
		if !ok {
			t.Errorf("%s: frame no longer decodes", want.Name)
			continue
		}
		if hex.EncodeToString(re) != want.Hex {
			t.Errorf("%s: re-encodes to %x, want %s", want.Name, re, want.Hex)
		}
		if got := Make(want.Name, frames[i], codec); got != want {
			t.Errorf("%s: entry mismatch:\n got  %s\n want %s", want.Name, Render(got), Render(want))
		}
	}
}
