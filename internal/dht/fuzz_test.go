package dht

import (
	"testing"

	"mspastry/internal/codectest"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// The DHT decoders face bytes from arbitrary peers; each fuzz target
// asserts a decoder never panics and that accepted inputs re-encode to the
// same wire image (the codecs are canonical).

func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodePut(42, []byte("value")))
	f.Add(encodeGet(7))
	f.Add(encodeDelete(9))
	f.Add([]byte{})
	f.Add([]byte{kindPut})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, reqID, value, ok := decodeRequest(data)
		if !ok {
			return
		}
		var back []byte
		switch kind {
		case kindPut:
			back = encodePut(reqID, value)
		case kindGet:
			back = encodeGet(reqID)
		case kindDelete:
			back = encodeDelete(reqID)
		default:
			t.Fatalf("decoder accepted unknown kind %d", kind)
		}
		if kind != kindPut && len(value) != 0 {
			t.Fatalf("%d decoded a value from %x", kind, data)
		}
		// Value-level roundtrip (uvarints admit non-minimal encodings, so
		// the wire image itself need not be identical).
		k2, r2, v2, ok2 := decodeRequest(back)
		if !ok2 || k2 != kind || r2 != reqID || string(v2) != string(value) {
			t.Fatalf("request roundtrip mismatch for %x", data)
		}
	})
}

func FuzzDecodeGetResp(f *testing.F) {
	f.Add(encodeGetResp(5, true, []byte("x")))
	f.Add(encodeGetResp(0, false, nil))
	f.Add([]byte{kindGetResp, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		reqID, found, value, ok := decodeGetResp(data)
		if !ok {
			return
		}
		back := encodeGetResp(reqID, found, value)
		r2, f2, v2, ok2 := decodeGetResp(back)
		if !ok2 || r2 != reqID || f2 != found || string(v2) != string(value) {
			t.Fatalf("getresp roundtrip mismatch for %x", data)
		}
	})
}

func FuzzDecodeReplicate(f *testing.F) {
	f.Add(encodeReplicate(store.Object{Key: id.New(1, 2), Version: 3, Origin: 4, Value: []byte("v")}))
	f.Add(encodeReplicate(store.Object{Key: id.New(5, 6), Version: 1, Tombstone: true}))
	f.Add([]byte{kindReplicate})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, ok := decodeReplicate(data)
		if !ok {
			return
		}
		if o.Version == 0 {
			t.Fatal("replicate decoder accepted version 0")
		}
		back, ok2 := decodeReplicate(encodeReplicate(o))
		if !ok2 || back.Key != o.Key || back.Version != o.Version ||
			back.Origin != o.Origin || back.Tombstone != o.Tombstone ||
			string(back.Value) != string(o.Value) {
			t.Fatalf("replicate roundtrip mismatch for %x", data)
		}
	})
}

func FuzzDecodeSyncKeys(f *testing.F) {
	sums := []store.Summary{
		store.Object{Key: id.New(2, 2), Version: 1, Origin: 3, Value: []byte("a")}.Summarize(),
		store.Object{Key: id.New(3, 3), Version: 7, Origin: 1, Tombstone: true}.Summarize(),
	}
	f.Add(encodeSyncKeys(id.New(1, 1), id.New(9, 9), 0xff00, sums))
	f.Add(encodeSyncKeys(id.ID{}, id.ID{}, 0, nil))
	f.Add([]byte{kindSyncKeys})
	f.Fuzz(func(t *testing.T, data []byte) {
		lo, hi, bitmap, got, ok := decodeSyncKeys(data)
		if !ok {
			return
		}
		l2, h2, b2, s2, ok2 := decodeSyncKeys(encodeSyncKeys(lo, hi, bitmap, got))
		if !ok2 || l2 != lo || h2 != hi || b2 != bitmap || len(s2) != len(got) {
			t.Fatalf("synckeys roundtrip mismatch for %x", data)
		}
		for i := range got {
			if s2[i] != got[i] {
				t.Fatalf("synckeys summary %d mismatch for %x", i, data)
			}
		}
	})
}

func FuzzDecodeSyncRoot(f *testing.F) {
	var root store.Digest
	root[0] = 0xaa
	f.Add(encodeSyncRoot(1, id.New(1, 1), id.New(2, 2), root))
	f.Add([]byte{kindSyncRoot, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sid, lo, hi, r, ok := decodeSyncRoot(data)
		if !ok {
			return
		}
		s2, l2, h2, r2, ok2 := decodeSyncRoot(encodeSyncRoot(sid, lo, hi, r))
		if !ok2 || s2 != sid || l2 != lo || h2 != hi || r2 != r {
			t.Fatalf("syncroot roundtrip mismatch for %x", data)
		}
	})
}

// FuzzDecodeMessage covers every dht message kind, including those
// without a dedicated target above: the acks, sync buckets, sync pull and
// the handoff offer and key.
func FuzzDecodeMessage(f *testing.F) {
	codectest.Seed(f, "testdata/corpus.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.FuzzRoundTrip(t, corpusCodec, data)
	})
}
