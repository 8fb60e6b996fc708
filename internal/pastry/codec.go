package pastry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"mspastry/internal/wire/field"
)

// Wire format: a 1-byte message tag followed by the message fields in a
// fixed order. Integers are unsigned varints, durations are varint
// nanoseconds, node references are 16 raw identifier bytes plus a
// length-prefixed address, and slices carry a varint element count. The
// message format itself is versionless; versioning lives one layer down,
// in the internal/wire frame header that every transported message is
// wrapped in (see DESIGN.md "Wire format & batching").

const (
	tagLookupEnvelope byte = iota + 1
	tagAck
	tagLSProbe
	tagLSProbeReply
	tagHeartbeat
	tagRTProbe
	tagRTProbeReply
	tagJoinReply
	tagDistProbe
	tagDistProbeReply
	tagDistReport
	tagRowRequest
	tagRowReply
	tagRowAnnounce
	tagRepairRequest
	tagRepairReply
	tagNNStateRequest
	tagNNStateReply
	tagAppDirect
	tagRootReport
)

// maxWireSlice bounds decoded slice lengths to keep a malformed or
// malicious packet from causing huge allocations.
const maxWireSlice = 4096

// AppendMessage serialises a message onto buf and returns the extended
// slice, allocating only when buf's capacity is exhausted. It panics on
// unknown message types (a programming error).
func AppendMessage(buf []byte, m Message) []byte {
	switch msg := m.(type) {
	case *Envelope:
		buf = append(buf, tagLookupEnvelope)
		buf = binary.AppendUvarint(buf, msg.Xfer)
		buf = field.AppendBool(buf, msg.NeedAck)
		buf = field.AppendBool(buf, msg.Retx)
		buf = appendRef(buf, msg.From)
		buf = appendDuration(buf, msg.TrtHint)
		buf = field.AppendBool(buf, msg.Lookup != nil)
		if msg.Lookup != nil {
			buf = appendLookup(buf, msg.Lookup)
		}
		buf = field.AppendBool(buf, msg.Join != nil)
		if msg.Join != nil {
			buf = appendJoin(buf, msg.Join)
		}
	case *Ack:
		buf = append(buf, tagAck)
		buf = binary.AppendUvarint(buf, msg.Xfer)
		buf = appendRef(buf, msg.From)
		buf = appendDuration(buf, msg.TrtHint)
	case *LSProbe:
		buf = append(buf, tagLSProbe)
		buf = appendRef(buf, msg.From)
		buf = appendRefs(buf, msg.Leaves)
		buf = appendRefs(buf, msg.Failed)
		buf = field.AppendBool(buf, msg.NeedNear)
		buf = appendDuration(buf, msg.TrtHint)
	case *LSProbeReply:
		buf = append(buf, tagLSProbeReply)
		buf = appendRef(buf, msg.From)
		buf = appendRefs(buf, msg.Leaves)
		buf = appendRefs(buf, msg.Failed)
		buf = appendRefs(buf, msg.Near)
		buf = appendDuration(buf, msg.TrtHint)
	case *Heartbeat:
		buf = append(buf, tagHeartbeat)
		buf = appendRef(buf, msg.From)
		buf = appendDuration(buf, msg.TrtHint)
	case *RTProbe:
		buf = append(buf, tagRTProbe)
		buf = appendRef(buf, msg.From)
		buf = appendDuration(buf, msg.TrtHint)
	case *RTProbeReply:
		buf = append(buf, tagRTProbeReply)
		buf = appendRef(buf, msg.From)
		buf = appendDuration(buf, msg.TrtHint)
	case *JoinReply:
		buf = append(buf, tagJoinReply)
		buf = appendRefs(buf, msg.Rows)
		buf = appendRefs(buf, msg.Leaves)
	case *DistProbe:
		buf = append(buf, tagDistProbe)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, msg.Seq)
	case *DistProbeReply:
		buf = append(buf, tagDistProbeReply)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, msg.Seq)
	case *DistReport:
		buf = append(buf, tagDistReport)
		buf = appendRef(buf, msg.From)
		buf = appendDuration(buf, msg.RTT)
	case *RowRequest:
		buf = append(buf, tagRowRequest)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, uint64(msg.Row))
	case *RowReply:
		buf = append(buf, tagRowReply)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, uint64(msg.Row))
		buf = appendRefs(buf, msg.Entries)
	case *RowAnnounce:
		buf = append(buf, tagRowAnnounce)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, uint64(msg.Row))
		buf = appendRefs(buf, msg.Entries)
	case *RepairRequest:
		buf = append(buf, tagRepairRequest)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, uint64(msg.Row))
		buf = binary.AppendUvarint(buf, uint64(msg.Col))
	case *RepairReply:
		buf = append(buf, tagRepairReply)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, uint64(msg.Row))
		buf = binary.AppendUvarint(buf, uint64(msg.Col))
		buf = appendRefs(buf, msg.Entries)
	case *NNStateRequest:
		buf = append(buf, tagNNStateRequest)
		buf = appendRef(buf, msg.From)
	case *NNStateReply:
		buf = append(buf, tagNNStateReply)
		buf = appendRef(buf, msg.From)
		buf = appendRefs(buf, msg.Leaves)
		buf = appendRefs(buf, msg.Entries)
	case *AppDirect:
		buf = append(buf, tagAppDirect)
		buf = appendRef(buf, msg.From)
		buf = field.AppendBytes(buf, msg.Payload)
	case *RootReport:
		buf = append(buf, tagRootReport)
		buf = appendRef(buf, msg.From)
		buf = binary.AppendUvarint(buf, msg.Seq)
		buf = field.AppendID(buf, msg.Key)
		buf = appendRefs(buf, msg.Leaves)
		buf = appendDuration(buf, msg.TrtHint)
	default:
		panic(fmt.Sprintf("pastry: cannot encode %T", m))
	}
	return buf
}

// MessageWireSize returns len(AppendMessage(nil, m)) — the encoded size
// of a message — without encoding anything. The simulator charges every
// send its single-frame size through this function, so it sits on the
// hottest path in the process: the size is computed arithmetically,
// mirroring AppendMessage field for field (TestMessageWireSizeMatchesEncoding
// pins the equivalence).
func MessageWireSize(m Message) int {
	switch msg := m.(type) {
	case *Envelope:
		n := 1 + field.UvarintLen(msg.Xfer) + 2 + refSize(msg.From) +
			durationLen(msg.TrtHint) + 2
		if msg.Lookup != nil {
			n += lookupSize(msg.Lookup)
		}
		if msg.Join != nil {
			n += joinSize(msg.Join)
		}
		return n
	case *Ack:
		return 1 + field.UvarintLen(msg.Xfer) + refSize(msg.From) + durationLen(msg.TrtHint)
	case *LSProbe:
		return 1 + refSize(msg.From) + refsSize(msg.Leaves) + refsSize(msg.Failed) +
			1 + durationLen(msg.TrtHint)
	case *LSProbeReply:
		return 1 + refSize(msg.From) + refsSize(msg.Leaves) + refsSize(msg.Failed) +
			refsSize(msg.Near) + durationLen(msg.TrtHint)
	case *Heartbeat:
		return 1 + refSize(msg.From) + durationLen(msg.TrtHint)
	case *RTProbe:
		return 1 + refSize(msg.From) + durationLen(msg.TrtHint)
	case *RTProbeReply:
		return 1 + refSize(msg.From) + durationLen(msg.TrtHint)
	case *JoinReply:
		return 1 + refsSize(msg.Rows) + refsSize(msg.Leaves)
	case *DistProbe:
		return 1 + refSize(msg.From) + field.UvarintLen(msg.Seq)
	case *DistProbeReply:
		return 1 + refSize(msg.From) + field.UvarintLen(msg.Seq)
	case *DistReport:
		return 1 + refSize(msg.From) + durationLen(msg.RTT)
	case *RowRequest:
		return 1 + refSize(msg.From) + field.UvarintLen(uint64(msg.Row))
	case *RowReply:
		return 1 + refSize(msg.From) + field.UvarintLen(uint64(msg.Row)) + refsSize(msg.Entries)
	case *RowAnnounce:
		return 1 + refSize(msg.From) + field.UvarintLen(uint64(msg.Row)) + refsSize(msg.Entries)
	case *RepairRequest:
		return 1 + refSize(msg.From) + field.UvarintLen(uint64(msg.Row)) + field.UvarintLen(uint64(msg.Col))
	case *RepairReply:
		return 1 + refSize(msg.From) + field.UvarintLen(uint64(msg.Row)) +
			field.UvarintLen(uint64(msg.Col)) + refsSize(msg.Entries)
	case *NNStateRequest:
		return 1 + refSize(msg.From)
	case *NNStateReply:
		return 1 + refSize(msg.From) + refsSize(msg.Leaves) + refsSize(msg.Entries)
	case *AppDirect:
		return 1 + refSize(msg.From) + field.UvarintLen(uint64(len(msg.Payload))) + len(msg.Payload)
	case *RootReport:
		return 1 + refSize(msg.From) + field.UvarintLen(msg.Seq) + 16 +
			refsSize(msg.Leaves) + durationLen(msg.TrtHint)
	default:
		panic(fmt.Sprintf("pastry: cannot size %T", m))
	}
}

func durationLen(d time.Duration) int { return field.VarintLen(int64(d)) }

func refSize(r NodeRef) int { return 16 + field.UvarintLen(uint64(len(r.Addr))) + len(r.Addr) }

func refsSize(refs []NodeRef) int {
	n := field.UvarintLen(uint64(len(refs)))
	for _, r := range refs {
		n += refSize(r)
	}
	return n
}

func lookupSize(lk *Lookup) int {
	return 16 + field.UvarintLen(lk.Seq) + field.UvarintLen(lk.TraceID) + refSize(lk.Origin) +
		durationLen(lk.Issued) + field.UvarintLen(uint64(lk.Hops)) + 2 +
		field.UvarintLen(uint64(len(lk.Payload))) + len(lk.Payload)
}

func joinSize(jr *JoinRequest) int {
	return refSize(jr.Joiner) + refsSize(jr.Rows) + field.UvarintLen(uint64(jr.Hops))
}

// DecodeMessage parses a wire message.
func DecodeMessage(buf []byte) (Message, error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("pastry: empty message")
	}
	r := field.NewReader(buf[1:])
	var m Message
	switch buf[0] {
	case tagLookupEnvelope:
		env := &Envelope{Xfer: r.Uvarint(), NeedAck: r.Bool(), Retx: r.Bool(),
			From: readRef(&r), TrtHint: readDuration(&r)}
		if r.Bool() {
			env.Lookup = readLookup(&r)
		}
		if r.Bool() {
			env.Join = &JoinRequest{Joiner: readRef(&r), Rows: readRefs(&r), Hops: int(r.Uvarint())}
		}
		m = env
	case tagAck:
		m = &Ack{Xfer: r.Uvarint(), From: readRef(&r), TrtHint: readDuration(&r)}
	case tagLSProbe:
		m = &LSProbe{From: readRef(&r), Leaves: readRefs(&r), Failed: readRefs(&r), NeedNear: r.Bool(), TrtHint: readDuration(&r)}
	case tagLSProbeReply:
		m = &LSProbeReply{From: readRef(&r), Leaves: readRefs(&r), Failed: readRefs(&r), Near: readRefs(&r), TrtHint: readDuration(&r)}
	case tagHeartbeat:
		m = &Heartbeat{From: readRef(&r), TrtHint: readDuration(&r)}
	case tagRTProbe:
		m = &RTProbe{From: readRef(&r), TrtHint: readDuration(&r)}
	case tagRTProbeReply:
		m = &RTProbeReply{From: readRef(&r), TrtHint: readDuration(&r)}
	case tagJoinReply:
		m = &JoinReply{Rows: readRefs(&r), Leaves: readRefs(&r)}
	case tagDistProbe:
		m = &DistProbe{From: readRef(&r), Seq: r.Uvarint()}
	case tagDistProbeReply:
		m = &DistProbeReply{From: readRef(&r), Seq: r.Uvarint()}
	case tagDistReport:
		m = &DistReport{From: readRef(&r), RTT: readDuration(&r)}
	case tagRowRequest:
		m = &RowRequest{From: readRef(&r), Row: int(r.Uvarint())}
	case tagRowReply:
		m = &RowReply{From: readRef(&r), Row: int(r.Uvarint()), Entries: readRefs(&r)}
	case tagRowAnnounce:
		m = &RowAnnounce{From: readRef(&r), Row: int(r.Uvarint()), Entries: readRefs(&r)}
	case tagRepairRequest:
		m = &RepairRequest{From: readRef(&r), Row: int(r.Uvarint()), Col: int(r.Uvarint())}
	case tagRepairReply:
		m = &RepairReply{From: readRef(&r), Row: int(r.Uvarint()), Col: int(r.Uvarint()), Entries: readRefs(&r)}
	case tagNNStateRequest:
		m = &NNStateRequest{From: readRef(&r)}
	case tagNNStateReply:
		m = &NNStateReply{From: readRef(&r), Leaves: readRefs(&r), Entries: readRefs(&r)}
	case tagAppDirect:
		m = &AppDirect{From: readRef(&r), Payload: readPayload(&r)}
	case tagRootReport:
		m = &RootReport{From: readRef(&r), Seq: r.Uvarint(), Key: r.ID(), Leaves: readRefs(&r), TrtHint: readDuration(&r)}
	default:
		return nil, fmt.Errorf("pastry: unknown message tag %d", buf[0])
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("pastry: decode tag %d: %w", buf[0], err)
	}
	return m, nil
}

func appendRef(buf []byte, r NodeRef) []byte {
	return field.AppendString(field.AppendID(buf, r.ID), r.Addr)
}

func appendRefs(buf []byte, refs []NodeRef) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(refs)))
	for _, r := range refs {
		buf = appendRef(buf, r)
	}
	return buf
}

func appendDuration(buf []byte, d time.Duration) []byte {
	return binary.AppendVarint(buf, int64(d))
}

func appendLookup(buf []byte, lk *Lookup) []byte {
	buf = field.AppendID(buf, lk.Key)
	buf = binary.AppendUvarint(buf, lk.Seq)
	buf = binary.AppendUvarint(buf, lk.TraceID)
	buf = appendRef(buf, lk.Origin)
	buf = appendDuration(buf, lk.Issued)
	buf = binary.AppendUvarint(buf, uint64(lk.Hops))
	buf = field.AppendBool(buf, lk.NoAck)
	buf = field.AppendBool(buf, lk.WantReport)
	return field.AppendBytes(buf, lk.Payload)
}

func appendJoin(buf []byte, jr *JoinRequest) []byte {
	buf = appendRef(buf, jr.Joiner)
	buf = appendRefs(buf, jr.Rows)
	return binary.AppendUvarint(buf, uint64(jr.Hops))
}

// minRefSize is the smallest encoded NodeRef: an identifier and an empty
// address.
const minRefSize = 17

// maxPayload bounds a decoded application payload.
const maxPayload = 1 << 20

var (
	errAddrTooLong    = errors.New("address too long")
	errSliceTooLong   = errors.New("slice too long")
	errPayloadTooLong = errors.New("payload too long")
)

func readRef(r *field.Reader) NodeRef {
	x := r.ID()
	alen := r.Uvarint()
	if alen > maxWireSlice {
		r.Fail(errAddrTooLong)
		return NodeRef{}
	}
	return NodeRef{ID: x, Addr: string(r.Take(int(alen)))}
}

// readRefs rejects a count the remaining bytes cannot hold before it
// allocates, so a bogus count costs nothing.
func readRefs(r *field.Reader) []NodeRef {
	n := r.Uvarint()
	if n > maxWireSlice {
		r.Fail(errSliceTooLong)
		return nil
	}
	if n > uint64(r.Len()/minRefSize) {
		r.Fail(field.ErrShort)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]NodeRef, n)
	for i := range out {
		out[i] = readRef(r)
	}
	return out
}

func readDuration(r *field.Reader) time.Duration { return time.Duration(r.Varint()) }

// readPayload reads a length-prefixed payload into its own memory (nil
// when empty), so the message outlives the frame it came in.
func readPayload(r *field.Reader) []byte {
	n := r.Uvarint()
	if n > maxPayload {
		r.Fail(errPayloadTooLong)
		return nil
	}
	if n == 0 {
		return nil
	}
	return append([]byte(nil), r.Take(int(n))...)
}

func readLookup(r *field.Reader) *Lookup {
	return &Lookup{Key: r.ID(), Seq: r.Uvarint(), TraceID: r.Uvarint(), Origin: readRef(r),
		Issued: readDuration(r), Hops: int(r.Uvarint()), NoAck: r.Bool(), WantReport: r.Bool(),
		Payload: readPayload(r)}
}
