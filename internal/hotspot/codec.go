package hotspot

import (
	"encoding/binary"

	"mspastry/internal/id"
	"mspastry/internal/store"
	"mspastry/internal/wire/field"
)

// Wire kinds for the path-caching protocol. They live above 0x40 so
// they can never collide with the dht request/response kinds (1..16);
// the dht dispatches any payload whose first byte is >= KindBase here.
const (
	// KindBase is the dispatch floor for hotspot messages.
	KindBase byte = 0x40

	// KindGetVia is a routed Get that accumulates caching hops: the
	// first hop and the (continually overwritten) most recent hop ride
	// along, so the root learns which nodes to deposit hot replies on.
	// Layout: kind | reqID uvarint | nvia 1 | nvia x (id 16 | addrLen
	// uvarint | addr).
	KindGetVia byte = 0x41

	// KindCachedReply answers a KindGetVia lookup, either from the root
	// (authoritative) or from a caching hop that short-circuited the
	// route. Layout: kind | flags 1 (bit0 found, bit1 fromCache) |
	// reqID uvarint | version uvarint | origin uvarint | digest 16 |
	// value.
	KindCachedReply byte = 0x42

	// KindDeposit pushes a versioned entry onto a caching hop.
	// Layout: kind | key 16 | version uvarint | origin uvarint |
	// digest 16 | value.
	KindDeposit byte = 0x43

	// KindInvalidate tells a caching hop that (version, origin) now
	// supersedes whatever it holds for key. Layout: kind | key 16 |
	// version uvarint | origin uvarint.
	KindInvalidate byte = 0x44
)

// MaxVia bounds the via list: slot 0 is the route's first hop, slot 1
// is overwritten at every later hop and so ends up the penultimate one.
const MaxVia = 2

// maxViaAddr bounds an encoded via address, keeping decode allocation
// proportional to sane inputs.
const maxViaAddr = 255

// Via identifies a caching hop accumulated along a lookup route.
type Via struct {
	ID   id.ID
	Addr string
}

const (
	flagFound     byte = 1 << 0
	flagFromCache byte = 1 << 1
)

// EncodeGetVia encodes a KindGetVia request.
func EncodeGetVia(reqID uint64, vias []Via) []byte {
	if len(vias) > MaxVia {
		vias = vias[:MaxVia]
	}
	dst := append(make([]byte, 0, 12+len(vias)*40), KindGetVia)
	dst = binary.AppendUvarint(dst, reqID)
	dst = append(dst, byte(len(vias)))
	for _, v := range vias {
		addr := v.Addr
		if len(addr) > maxViaAddr {
			addr = addr[:maxViaAddr]
		}
		dst = field.AppendString(field.AppendID(dst, v.ID), addr)
	}
	return dst
}

// DecodeGetVia parses a KindGetVia payload.
func DecodeGetVia(buf []byte) (reqID uint64, vias []Via, ok bool) {
	r := field.NewReader(buf)
	if r.Byte() != KindGetVia {
		return 0, nil, false
	}
	reqID = r.Uvarint()
	count := int(r.Byte())
	if count > MaxVia {
		return 0, nil, false
	}
	for i := 0; i < count; i++ {
		v := Via{ID: r.ID()}
		alen := r.Uvarint()
		if alen > maxViaAddr {
			return 0, nil, false
		}
		v.Addr = string(r.Take(int(alen)))
		vias = append(vias, v)
	}
	if r.Done() != nil {
		return 0, nil, false
	}
	return reqID, vias, true
}

// EncodeCachedReply encodes a KindCachedReply.
func EncodeCachedReply(reqID uint64, found, fromCache bool, version, origin uint64, dig store.Digest, value []byte) []byte {
	var flags byte
	if found {
		flags |= flagFound
	}
	if fromCache {
		flags |= flagFromCache
	}
	dst := append(make([]byte, 0, 32+store.DigestLen+len(value)), KindCachedReply, flags)
	dst = binary.AppendUvarint(dst, reqID)
	dst = binary.AppendUvarint(dst, version)
	dst = binary.AppendUvarint(dst, origin)
	dst = append(dst, dig[:]...)
	return append(dst, value...)
}

// DecodeCachedReply parses a KindCachedReply payload. A not-found reply
// must carry an empty value.
func DecodeCachedReply(buf []byte) (reqID uint64, found, fromCache bool, version, origin uint64, dig store.Digest, value []byte, ok bool) {
	r := field.NewReader(buf)
	if r.Byte() != KindCachedReply {
		return 0, false, false, 0, 0, store.Digest{}, nil, false
	}
	flags := r.Byte()
	reqID, version, origin = r.Uvarint(), r.Uvarint(), r.Uvarint()
	copy(dig[:], r.Take(store.DigestLen))
	value = r.Rest()
	found = flags&flagFound != 0
	if r.Err() != nil || flags&^(flagFound|flagFromCache) != 0 || (!found && len(value) != 0) {
		return 0, false, false, 0, 0, store.Digest{}, nil, false
	}
	return reqID, found, flags&flagFromCache != 0, version, origin, dig, value, true
}

// EncodeDeposit encodes a KindDeposit carrying entry e.
func EncodeDeposit(e Entry) []byte {
	dst := append(make([]byte, 0, 1+16+20+store.DigestLen+len(e.Value)), KindDeposit)
	dst = field.AppendID(dst, e.Key)
	dst = binary.AppendUvarint(dst, e.Version)
	dst = binary.AppendUvarint(dst, e.Origin)
	dst = append(dst, e.Dig[:]...)
	return append(dst, e.Value...)
}

// DecodeDeposit parses a KindDeposit payload. Version 0 is invalid: a
// deposit always carries a root-assigned write.
func DecodeDeposit(buf []byte) (Entry, bool) {
	r := field.NewReader(buf)
	if r.Byte() != KindDeposit {
		return Entry{}, false
	}
	e := Entry{Key: r.ID(), Version: r.Uvarint(), Origin: r.Uvarint()}
	copy(e.Dig[:], r.Take(store.DigestLen))
	e.Value = r.Rest()
	if r.Err() != nil || e.Version == 0 {
		return Entry{}, false
	}
	return e, true
}

// EncodeInvalidate encodes a KindInvalidate.
func EncodeInvalidate(key id.ID, version, origin uint64) []byte {
	dst := field.AppendID(append(make([]byte, 0, 1+16+20), KindInvalidate), key)
	dst = binary.AppendUvarint(dst, version)
	return binary.AppendUvarint(dst, origin)
}

// DecodeInvalidate parses a KindInvalidate payload.
func DecodeInvalidate(buf []byte) (key id.ID, version, origin uint64, ok bool) {
	r := field.NewReader(buf)
	if r.Byte() != KindInvalidate {
		return id.ID{}, 0, 0, false
	}
	key, version, origin = r.ID(), r.Uvarint(), r.Uvarint()
	if r.Done() != nil {
		return id.ID{}, 0, 0, false
	}
	return key, version, origin, true
}
