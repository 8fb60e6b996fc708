package dht

import (
	"encoding/binary"
	"errors"

	"mspastry/internal/id"
	"mspastry/internal/store"
	"mspastry/internal/wire/field"
)

// Wire formats: every message starts with a 1-byte kind. Put/Get/Delete
// requests travel through the overlay as lookup payloads and are answered
// with a direct ack; everything from kindReplicate down travels only on
// direct links between replicas. All decoders are total: arbitrary bytes
// either parse or return ok=false, never panic. Each message has one
// encoder, which returns a right-sized fresh slice because callers retain
// the payload.
const (
	kindPut byte = iota + 1
	kindGet
	kindPutAck
	kindGetResp
	kindReplicate
	kindDelete
	kindDeleteAck
	// Anti-entropy, in exchange order: the initiator opens with the root
	// digest of an arc; the responder answers "OK" or its bucket layer; the
	// initiator sends per-key summaries for divergent buckets; the
	// responder pulls the keys it is missing. Values move as kindReplicate.
	kindSyncRoot
	kindSyncRootOK
	kindSyncBuckets
	kindSyncKeys
	kindSyncPull
	// Handoff: a node far outside a key's replica set offers the object's
	// summary to the root, which answers Want (send the value) or Have
	// (already current) — either way the offerer may then drop its copy.
	kindHandoffOffer
	kindHandoffWant
	kindHandoffHave
)

// --- Client requests (lookup payloads) ---

func encodePut(reqID uint64, value []byte) []byte {
	dst := append(make([]byte, 0, 16+len(value)), kindPut)
	dst = binary.AppendUvarint(dst, reqID)
	return append(dst, value...)
}

// encodeReqID covers the kind-plus-request-id family: Get and Delete
// requests, every end-to-end ack and the sync-root match.
func encodeReqID(kind byte, reqID uint64) []byte {
	return binary.AppendUvarint(append(make([]byte, 0, 16), kind), reqID)
}

func encodeGet(reqID uint64) []byte { return encodeReqID(kindGet, reqID) }

func encodeDelete(reqID uint64) []byte { return encodeReqID(kindDelete, reqID) }

func decodeRequest(buf []byte) (kind byte, reqID uint64, value []byte, ok bool) {
	r := field.NewReader(buf)
	kind, reqID, value = r.Byte(), r.Uvarint(), r.Rest()
	if r.Err() != nil || (kind != kindPut && kind != kindGet && kind != kindDelete) ||
		(kind != kindPut && len(value) != 0) { // only puts carry a value
		return 0, 0, nil, false
	}
	return kind, reqID, value, true
}

// --- End-to-end acks ---

func encodePutAck(reqID uint64) []byte { return encodeReqID(kindPutAck, reqID) }

func decodePutAck(buf []byte) (uint64, bool) {
	return decodeAck(kindPutAck, buf)
}

func encodeDeleteAck(reqID uint64) []byte { return encodeReqID(kindDeleteAck, reqID) }

func decodeDeleteAck(buf []byte) (uint64, bool) {
	return decodeAck(kindDeleteAck, buf)
}

// decodeAck reads the kind-plus-request-id family. Bytes after the id
// are ignored.
func decodeAck(kind byte, buf []byte) (uint64, bool) {
	r := field.NewReader(buf)
	if r.Byte() != kind {
		return 0, false
	}
	v := r.Uvarint()
	return v, r.Err() == nil
}

func encodeGetResp(reqID uint64, found bool, value []byte) []byte {
	dst := append(make([]byte, 0, 16+len(value)), kindGetResp)
	dst = field.AppendBool(dst, found)
	dst = binary.AppendUvarint(dst, reqID)
	return append(dst, value...)
}

func decodeGetResp(buf []byte) (reqID uint64, found bool, value []byte, ok bool) {
	r := field.NewReader(buf)
	if r.Byte() != kindGetResp {
		return 0, false, nil, false
	}
	found, reqID, value = r.Bool(), r.Uvarint(), r.Rest()
	if r.Err() != nil {
		return 0, false, nil, false
	}
	return reqID, found, value, true
}

// --- Replica value transfer ---

// encodeReplicate carries one full versioned object; it is the only sync
// or replication message that moves values.
func encodeReplicate(o store.Object) []byte {
	return store.EncodeObject(append(make([]byte, 0, 40+len(o.Value)), kindReplicate), o)
}

func decodeReplicate(buf []byte) (store.Object, bool) {
	if len(buf) < 1 || buf[0] != kindReplicate {
		return store.Object{}, false
	}
	return store.DecodeObject(buf[1:])
}

// --- Anti-entropy control messages ---

// kindSyncRoot: sid uvarint | lo 16 | hi 16 | root 16. sid identifies the
// initiator's round; lo/hi carry the arc so both sides digest the same
// key domain regardless of their leaf-set views.
func encodeSyncRoot(sid uint64, lo, hi id.ID, root store.Digest) []byte {
	dst := append(make([]byte, 0, 64), kindSyncRoot)
	dst = binary.AppendUvarint(dst, sid)
	dst = field.AppendID(field.AppendID(dst, lo), hi)
	return append(dst, root[:]...)
}

func decodeSyncRoot(buf []byte) (sid uint64, lo, hi id.ID, root store.Digest, ok bool) {
	r := field.NewReader(buf)
	if r.Byte() != kindSyncRoot {
		return 0, id.ID{}, id.ID{}, store.Digest{}, false
	}
	sid, lo, hi = r.Uvarint(), r.ID(), r.ID()
	copy(root[:], r.Take(store.DigestLen))
	if r.Done() != nil {
		return 0, id.ID{}, id.ID{}, store.Digest{}, false
	}
	return sid, lo, hi, root, true
}

// kindSyncRootOK: sid uvarint. The responder's arc digest matched.
func encodeSyncRootOK(sid uint64) []byte { return encodeReqID(kindSyncRootOK, sid) }

func decodeSyncRootOK(buf []byte) (uint64, bool) {
	return decodeAck(kindSyncRootOK, buf)
}

// kindSyncBuckets: sid uvarint | RangeBuckets × 16-byte bucket digests.
func encodeSyncBuckets(sid uint64, buckets *[store.RangeBuckets]store.Digest) []byte {
	dst := append(make([]byte, 0, 16+store.RangeBuckets*store.DigestLen), kindSyncBuckets)
	dst = binary.AppendUvarint(dst, sid)
	for i := range buckets {
		dst = append(dst, buckets[i][:]...)
	}
	return dst
}

func decodeSyncBuckets(buf []byte) (sid uint64, buckets [store.RangeBuckets]store.Digest, ok bool) {
	r := field.NewReader(buf)
	if r.Byte() != kindSyncBuckets {
		return 0, buckets, false
	}
	sid = r.Uvarint()
	for i := range buckets {
		copy(buckets[i][:], r.Take(store.DigestLen))
	}
	if r.Done() != nil {
		return 0, [store.RangeBuckets]store.Digest{}, false
	}
	return sid, buckets, true
}

// kindSyncKeys: lo 16 | hi 16 | bucket bitmap u64 BE | count uvarint |
// count × summary. Carries the initiator's per-key summaries for the
// divergent buckets. It repeats the arc and bucket set instead of the sid
// so the responder needs no round state to answer.
func encodeSyncKeys(lo, hi id.ID, bitmap uint64, sums []store.Summary) []byte {
	dst := append(make([]byte, 0, 48+len(sums)*56), kindSyncKeys)
	dst = field.AppendID(field.AppendID(dst, lo), hi)
	dst = binary.BigEndian.AppendUint64(dst, bitmap)
	dst = binary.AppendUvarint(dst, uint64(len(sums)))
	for _, sum := range sums {
		dst = appendSummary(dst, sum)
	}
	return dst
}

func decodeSyncKeys(buf []byte) (lo, hi id.ID, bitmap uint64, sums []store.Summary, ok bool) {
	r := field.NewReader(buf)
	if r.Byte() != kindSyncKeys {
		return id.ID{}, id.ID{}, 0, nil, false
	}
	lo, hi = r.ID(), r.ID()
	if b := r.Take(8); b != nil {
		bitmap = binary.BigEndian.Uint64(b)
	}
	count := r.Uvarint()
	if count > uint64(r.Len()/minSummaryLen) {
		return id.ID{}, id.ID{}, 0, nil, false
	}
	sums = make([]store.Summary, count)
	for i := range sums {
		sums[i] = readSummary(&r)
	}
	if r.Done() != nil {
		return id.ID{}, id.ID{}, 0, nil, false
	}
	return lo, hi, bitmap, sums, true
}

// kindSyncPull: count uvarint | count × 16-byte keys the responder wants.
func encodeSyncPull(keys []id.ID) []byte {
	dst := append(make([]byte, 0, 16+len(keys)*16), kindSyncPull)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = field.AppendID(dst, k)
	}
	return dst
}

func decodeSyncPull(buf []byte) ([]id.ID, bool) {
	r := field.NewReader(buf)
	if r.Byte() != kindSyncPull {
		return nil, false
	}
	count := r.Uvarint()
	if count > uint64(r.Len()/16) {
		return nil, false
	}
	keys := make([]id.ID, count)
	for i := range keys {
		keys[i] = r.ID()
	}
	if r.Done() != nil {
		return nil, false
	}
	return keys, true
}

// --- Handoff messages ---

// kindHandoffOffer: one summary — the object a foreign node wants to shed.
func encodeHandoffOffer(sum store.Summary) []byte {
	return appendSummary(append(make([]byte, 0, 64), kindHandoffOffer), sum)
}

func decodeHandoffOffer(buf []byte) (store.Summary, bool) {
	r := field.NewReader(buf)
	if r.Byte() != kindHandoffOffer {
		return store.Summary{}, false
	}
	sum := readSummary(&r)
	if r.Done() != nil {
		return store.Summary{}, false
	}
	return sum, true
}

// kindHandoffWant / kindHandoffHave: the bare 16-byte key.
func encodeHandoffKey(kind byte, key id.ID) []byte {
	return field.AppendID(append(make([]byte, 0, 17), kind), key)
}

func decodeHandoffKey(kind byte, buf []byte) (id.ID, bool) {
	r := field.NewReader(buf)
	if r.Byte() != kind {
		return id.ID{}, false
	}
	key := r.ID()
	return key, r.Done() == nil
}

// --- Key summary entries ---

// Summary wire layout: key 16 | flags 1 | version uvarint | origin uvarint
// | digest 16.
func appendSummary(dst []byte, sum store.Summary) []byte {
	dst = field.AppendID(dst, sum.Key)
	dst = field.AppendBool(dst, sum.Tombstone)
	dst = binary.AppendUvarint(dst, sum.Version)
	dst = binary.AppendUvarint(dst, sum.Origin)
	return append(dst, sum.Dig[:]...)
}

// minSummaryLen is the smallest encoded summary: both varints one byte.
const minSummaryLen = 16 + 1 + 1 + 1 + store.DigestLen

var (
	errSummaryFlags   = errors.New("dht: unknown summary flags")
	errSummaryVersion = errors.New("dht: summary of version 0")
)

// readSummary parses one summary. Summaries describe written objects, so
// version 0 is rejected.
func readSummary(r *field.Reader) store.Summary {
	sum := store.Summary{Key: r.ID()}
	flags := r.Byte()
	if flags&^1 != 0 {
		r.Fail(errSummaryFlags)
	}
	sum.Tombstone = flags == 1
	if sum.Version = r.Uvarint(); sum.Version == 0 {
		r.Fail(errSummaryVersion)
	}
	sum.Origin = r.Uvarint()
	copy(sum.Dig[:], r.Take(store.DigestLen))
	return sum
}
