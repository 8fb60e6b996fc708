package dht

import (
	"testing"

	"mspastry/internal/codectest"
	"mspastry/internal/id"
	"mspastry/internal/store"
)

// corpusCodec decodes one dht message by its kind byte for the committed
// corpus check and re-encodes it with that kind's encoder.
func corpusCodec(frame []byte) (string, []byte, bool) {
	if len(frame) == 0 {
		return "", nil, false
	}
	type fields struct {
		Kind    byte
		ReqID   uint64          `json:",omitempty"`
		Found   bool            `json:",omitempty"`
		Value   []byte          `json:",omitempty"`
		Object  *store.Object   `json:",omitempty"`
		Lo, Hi  *id.ID          `json:",omitempty"`
		Digests []store.Digest  `json:",omitempty"`
		Bitmap  uint64          `json:",omitempty"`
		Sums    []store.Summary `json:",omitempty"`
		Keys    []id.ID         `json:",omitempty"`
	}
	f := fields{Kind: frame[0]}
	var re []byte
	ok := false
	switch frame[0] {
	case kindPut, kindGet, kindDelete:
		var kind byte
		kind, f.ReqID, f.Value, ok = decodeRequest(frame)
		switch kind {
		case kindPut:
			re = encodePut(f.ReqID, f.Value)
		case kindGet:
			re = encodeGet(f.ReqID)
		default:
			re = encodeDelete(f.ReqID)
		}
	case kindPutAck:
		f.ReqID, ok = decodePutAck(frame)
		re = encodePutAck(f.ReqID)
	case kindDeleteAck:
		f.ReqID, ok = decodeDeleteAck(frame)
		re = encodeDeleteAck(f.ReqID)
	case kindSyncRootOK:
		f.ReqID, ok = decodeSyncRootOK(frame)
		re = encodeSyncRootOK(f.ReqID)
	case kindGetResp:
		f.ReqID, f.Found, f.Value, ok = decodeGetResp(frame)
		re = encodeGetResp(f.ReqID, f.Found, f.Value)
	case kindReplicate:
		var o store.Object
		o, ok = decodeReplicate(frame)
		f.Object = &o
		re = encodeReplicate(o)
	case kindSyncRoot:
		var lo, hi id.ID
		var root store.Digest
		f.ReqID, lo, hi, root, ok = decodeSyncRoot(frame)
		f.Lo, f.Hi, f.Digests = &lo, &hi, []store.Digest{root}
		re = encodeSyncRoot(f.ReqID, lo, hi, root)
	case kindSyncBuckets:
		var buckets [store.RangeBuckets]store.Digest
		f.ReqID, buckets, ok = decodeSyncBuckets(frame)
		f.Digests = buckets[:]
		re = encodeSyncBuckets(f.ReqID, &buckets)
	case kindSyncKeys:
		var lo, hi id.ID
		lo, hi, f.Bitmap, f.Sums, ok = decodeSyncKeys(frame)
		f.Lo, f.Hi = &lo, &hi
		re = encodeSyncKeys(lo, hi, f.Bitmap, f.Sums)
	case kindSyncPull:
		f.Keys, ok = decodeSyncPull(frame)
		re = encodeSyncPull(f.Keys)
	case kindHandoffOffer:
		var sum store.Summary
		sum, ok = decodeHandoffOffer(frame)
		f.Sums = []store.Summary{sum}
		re = encodeHandoffOffer(sum)
	case kindHandoffWant, kindHandoffHave:
		var key id.ID
		key, ok = decodeHandoffKey(frame[0], frame)
		f.Keys = []id.ID{key}
		re = encodeHandoffKey(frame[0], key)
	}
	if !ok {
		return "", nil, false
	}
	return codectest.Render(f), re, true
}

// TestCodecCorpus pins every dht message kind's wire image byte for byte
// (testdata/corpus.json holds frames from the original encoders).
func TestCodecCorpus(t *testing.T) {
	codectest.Check(t, "testdata/corpus.json", corpusCodec)
}
