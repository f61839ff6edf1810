package streaming

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire protocol versions. Every connection opens in the newline-delimited
// JSON framing (ProtoJSON) and exchanges exactly one request and one reply in
// it — Hello/Accept, or the first SummaryReq/Summary of a feed, or a Reject.
// The request carries the highest version its sender speaks and the reply
// the version the server chose; everything after that exchange travels in
// the one binary layout, ProtoBinary3. Version 2, an earlier binary layout
// without the extended ClusterSummary, is retired and its number is not
// reused.
const (
	// ProtoJSON is the JSON handshake framing (version 1). It carries no
	// session or feed traffic: a peer that advertises nothing newer is
	// rejected.
	ProtoJSON = 1
	// ProtoBinary3 is the length-prefixed binary framing (version 3).
	ProtoBinary3 = 3
)

// NegotiateProto resolves the version both ends of a handshake speak:
// ProtoBinary3 when each advertises at least that, else 0 — there is no
// older layout to fall back to, so a server answers 0 with a Reject and a
// client treats it as a failed handshake.
func NegotiateProto(clientMax, serverMax int) int {
	if clientMax >= ProtoBinary3 && serverMax >= ProtoBinary3 {
		return ProtoBinary3
	}
	return 0
}

// unsupportedProto is the Reject reason for a peer that cannot reach
// ProtoBinary3.
func unsupportedProto(offered int) string {
	return fmt.Sprintf("unsupported wire protocol version %d: this server speaks version %d only", offered, ProtoBinary3)
}

// Binary framing: every message is
//
//	[4-byte little-endian length n][1-byte message tag][payload]
//
// where n counts the tag and payload. Integers are varints (zigzag for
// signed), floats are 8-byte IEEE 754 little-endian, strings and byte
// slices are length-prefixed. The layout per tag is fixed.

// maxWireFrame bounds a binary frame so a corrupt or hostile length prefix
// cannot make the reader allocate unbounded memory.
const maxWireFrame = 1 << 20

// Binary message tags, one per message type of the binary phase. Hello,
// Accept and Reject travel only in the JSON handshake: their old tags 1–3 are
// reserved and decode as unknown.
const (
	tagInput byte = iota + 4
	tagFrames
	tagEnd
	tagSummaryReq
	tagSummary
)

var errWireTruncated = errors.New("streaming: truncated binary frame")

// AppendTo appends the envelope as one complete binary frame (length prefix
// included) and returns the extended slice. It never allocates when buf has
// sufficient capacity, so hot paths can reuse one buffer per connection
// across every send.
//
//cocg:hot
func (e *Envelope) AppendTo(buf []byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
	var err error
	switch e.Type {
	case MsgInput:
		in := e.Input
		buf = append(buf, tagInput)
		buf = appendSvarint(buf, in.SessionID)
		buf = appendSvarint(buf, in.Seq)
		buf = appendSvarint(buf, int64(in.Events))
		buf = appendSvarint(buf, in.SentAtMS)
		buf = binary.AppendUvarint(buf, uint64(len(in.Codes)))
		buf = append(buf, in.Codes...)
	case MsgFrames:
		f := e.Frames
		buf = append(buf, tagFrames)
		buf = appendSvarint(buf, f.SessionID)
		buf = appendSvarint(buf, f.Seq)
		buf = appendFloat(buf, f.FPS)
		buf = appendFloat(buf, f.BitrateKbps)
		buf = appendSvarint(buf, int64(f.Stage))
		buf = appendBool(buf, f.Loading)
		buf = appendSvarint(buf, f.EchoSeq)
		buf = appendSvarint(buf, f.EchoSentAtMS)
		buf = binary.AppendUvarint(buf, uint64(len(f.Frames)))
		for _, fr := range f.Frames {
			// One varint per frame: size with the keyframe flag in bit 0.
			v := uint64(fr.SizeBytes) << 1
			if fr.Key {
				v |= 1
			}
			buf = binary.AppendUvarint(buf, v)
		}
	case MsgEnd:
		st := e.End
		buf = append(buf, tagEnd)
		buf = appendSvarint(buf, st.SessionID)
		buf = appendSvarint(buf, st.DurationSec)
		buf = appendFloat(buf, st.AvgFPS)
		buf = appendFloat(buf, st.FPSRatio)
		buf = appendFloat(buf, st.Degraded)
	case MsgSummaryReq:
		buf = append(buf, tagSummaryReq)
		buf = appendSvarint(buf, int64(e.SummaryReq.Proto))
	case MsgSummary:
		sm := e.Summary
		buf = append(buf, tagSummary)
		buf = appendSvarint(buf, int64(sm.Proto))
		buf = appendSvarint(buf, int64(sm.Servers))
		buf = appendSvarint(buf, 0) // reserved: the retired Draining count's slot
		buf = appendSvarint(buf, int64(sm.LiveSessions))
		buf = appendSvarint(buf, int64(sm.Pending))
		buf = appendSvarint(buf, int64(sm.Placements))
		buf = appendSvarint(buf, int64(sm.Completed))
		buf = appendFloat(buf, sm.Headroom)
		buf = appendFloat(buf, sm.UtilPct)
		if len(sm.Games) != len(sm.GameDemand) {
			err = fmt.Errorf("streaming: summary has %d games but %d demand entries", len(sm.Games), len(sm.GameDemand)) //cocg:lint-ignore hotalloc error path; boxing only happens on a malformed summary
			break
		}
		buf = appendSvarint(buf, int64(sm.IdleServers))
		buf = binary.AppendUvarint(buf, uint64(len(sm.Games)))
		for i, g := range sm.Games {
			buf = appendString(buf, g)
			buf = appendFloat(buf, sm.GameDemand[i])
		}
	default:
		err = fmt.Errorf("streaming: cannot encode message type %q", e.Type) //cocg:lint-ignore hotalloc error path; boxing for %q only happens on an unencodable type
	}
	if err != nil {
		return buf[:start], err
	}
	n := len(buf) - start - 4
	if n > maxWireFrame {
		return buf[:start], fmt.Errorf("streaming: frame of %d bytes exceeds wire limit", n) //cocg:lint-ignore hotalloc error path; boxing for %d only happens on an oversized frame
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// DecodeFrom decodes one binary frame body (tag + payload, without the
// length prefix) into e. Payload structs already attached to e are reused —
// including the FrameBatch.Frames and InputBatch.Codes backing arrays — so a
// reused envelope decodes with zero allocations in steady state; payload
// pointers of other message types are cleared. Corrupt input yields an
// error, never a panic, and never a partially valid envelope.
//
//cocg:hot
func (e *Envelope) DecodeFrom(data []byte) error {
	if len(data) == 0 {
		return errWireTruncated
	}
	r := wireReader{data: data[1:]}
	switch data[0] {
	case tagInput:
		in := e.Input
		if in == nil {
			in = &InputBatch{} //cocg:lint-ignore hotalloc first decode of this payload type; RecvInto callers reuse one envelope per connection, so it is allocated once per connection
		}
		in.SessionID = r.svarint()
		in.Seq = r.svarint()
		in.Events = int(r.svarint())
		in.SentAtMS = r.svarint()
		n := int(r.uvarint())
		if n < 0 || n > r.remaining() {
			return r.fail()
		}
		in.Codes = append(in.Codes[:0], r.bytes(n)...)
		if len(in.Codes) == 0 {
			in.Codes = nil
		}
		if !r.done() {
			return r.fail()
		}
		e.setPayload(MsgInput)
		e.Input = in
	case tagFrames:
		f := e.Frames
		if f == nil {
			f = &FrameBatch{} //cocg:lint-ignore hotalloc first decode of this payload type; RecvInto callers reuse one envelope per connection, so it is allocated once per connection
		}
		f.SessionID = r.svarint()
		f.Seq = r.svarint()
		f.FPS = r.float()
		f.BitrateKbps = r.float()
		f.Stage = int(r.svarint())
		f.Loading = r.bool()
		f.EchoSeq = r.svarint()
		f.EchoSentAtMS = r.svarint()
		n := int(r.uvarint())
		// Each frame record is at least one byte on the wire.
		if n < 0 || n > r.remaining() {
			return r.fail()
		}
		frames := f.Frames[:0]
		for i := 0; i < n; i++ {
			v := r.uvarint()
			if v>>1 > math.MaxUint32 {
				return r.fail()
			}
			frames = append(frames, FrameInfo{SizeBytes: uint32(v >> 1), Key: v&1 != 0})
		}
		if len(frames) == 0 {
			frames = nil
		}
		if !r.done() {
			return r.fail()
		}
		f.Frames = frames
		e.setPayload(MsgFrames)
		e.Frames = f
	case tagEnd:
		st := e.End
		if st == nil {
			st = &SessionStat{} //cocg:lint-ignore hotalloc first decode of this payload type; RecvInto callers reuse one envelope per connection, so it is allocated once per connection
		}
		st.SessionID = r.svarint()
		st.DurationSec = r.svarint()
		st.AvgFPS = r.float()
		st.FPSRatio = r.float()
		st.Degraded = r.float()
		if !r.done() {
			return r.fail()
		}
		e.setPayload(MsgEnd)
		e.End = st
	case tagSummaryReq:
		sr := e.SummaryReq
		if sr == nil {
			sr = &SummaryReq{} //cocg:lint-ignore hotalloc first decode of this payload type; RecvInto callers reuse one envelope per connection, so it is allocated once per connection
		}
		sr.Proto = int(r.svarint())
		if !r.done() {
			return r.fail()
		}
		e.setPayload(MsgSummaryReq)
		e.SummaryReq = sr
	case tagSummary:
		sm := e.Summary
		if sm == nil {
			sm = &ClusterSummary{} //cocg:lint-ignore hotalloc first decode of this payload type; RecvInto callers reuse one envelope per connection, so it is allocated once per connection
		}
		sm.Proto = int(r.svarint())
		sm.Servers = int(r.svarint())
		r.svarint() // reserved slot: a peer may still send a count here; it is discarded
		sm.LiveSessions = int(r.svarint())
		sm.Pending = int(r.svarint())
		sm.Placements = int(r.svarint())
		sm.Completed = int(r.svarint())
		sm.Headroom = r.float()
		sm.UtilPct = r.float()
		sm.IdleServers = int(r.svarint())
		n := int(r.uvarint())
		if n < 0 || n > r.remaining() {
			return r.fail()
		}
		games := sm.Games[:0]
		demand := sm.GameDemand[:0]
		for i := 0; i < n; i++ {
			games = append(games, r.str())
			demand = append(demand, r.float())
		}
		if len(games) == 0 {
			games, demand = nil, nil
		}
		sm.Games = games
		sm.GameDemand = demand
		if !r.done() {
			return r.fail()
		}
		e.setPayload(MsgSummary)
		e.Summary = sm
	default:
		return fmt.Errorf("streaming: unknown binary message tag %d", data[0]) //cocg:lint-ignore hotalloc error path; boxing for %d only happens on a corrupt frame
	}
	return nil
}

// setPayload stamps the type and clears every payload pointer that does not
// match it, so a reused envelope never carries two payloads at once.
func (e *Envelope) setPayload(t MsgType) {
	e.Type = t
	if t != MsgHello {
		e.Hello = nil
	}
	if t != MsgAccept {
		e.Accept = nil
	}
	if t != MsgReject {
		e.Reject = nil
	}
	if t != MsgInput {
		e.Input = nil
	}
	if t != MsgFrames {
		e.Frames = nil
	}
	if t != MsgEnd {
		e.End = nil
	}
	if t != MsgSummaryReq {
		e.SummaryReq = nil
	}
	if t != MsgSummary {
		e.Summary = nil
	}
}

// wireReader walks a binary payload with saturating error state: after the
// first malformed read every subsequent read returns zero values and done()
// reports failure, so decoders can parse straight-line and check once.
type wireReader struct {
	data []byte
	off  int
	bad  bool
}

func (r *wireReader) remaining() int { return len(r.data) - r.off }

func (r *wireReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) svarint() int64 {
	v := r.uvarint()
	// Zigzag decode.
	return int64(v>>1) ^ -int64(v&1)
}

func (r *wireReader) float() float64 {
	if r.bad || r.remaining() < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

func (r *wireReader) bool() bool {
	if r.bad || r.remaining() < 1 {
		r.bad = true
		return false
	}
	b := r.data[r.off]
	r.off++
	return b != 0
}

func (r *wireReader) bytes(n int) []byte {
	if r.bad || n < 0 || r.remaining() < n {
		r.bad = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) str() string {
	n := int(r.uvarint())
	if n < 0 || n > r.remaining() {
		r.bad = true
		return ""
	}
	return string(r.bytes(n))
}

// done reports whether the payload parsed cleanly and was consumed exactly.
func (r *wireReader) done() bool { return !r.bad && r.off == len(r.data) }

func (r *wireReader) fail() error {
	return errWireTruncated
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendSvarint(buf []byte, v int64) []byte {
	// Zigzag encode.
	return binary.AppendUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}
