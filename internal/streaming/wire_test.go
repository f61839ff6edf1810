package streaming

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cocg/internal/core"
)

// wireEnvelopes is one of every binary-phase message type with every field
// exercised.
func wireEnvelopes() []*Envelope {
	return []*Envelope{
		{Type: MsgInput, Input: &InputBatch{SessionID: 9, Seq: 41, Events: 3, SentAtMS: 171234, Codes: []byte{7, 14, 21}}},
		{Type: MsgFrames, Frames: &FrameBatch{
			SessionID: 9, Seq: 5, FPS: 59.5, BitrateKbps: 8123.25, Stage: 3,
			Loading: true, EchoSeq: 40, EchoSentAtMS: 171200,
			Frames: []FrameInfo{{SizeBytes: 40000, Key: true}, {SizeBytes: 10000}, {SizeBytes: 9999}},
		}},
		{Type: MsgEnd, End: &SessionStat{SessionID: 9, DurationSec: 900, AvgFPS: 58.2, FPSRatio: 0.97, Degraded: 0.01}},
		{Type: MsgSummaryReq, SummaryReq: &SummaryReq{Proto: ProtoBinary3}},
		{Type: MsgSummary, Summary: &ClusterSummary{
			Proto: ProtoBinary3, Servers: 16, LiveSessions: 41,
			Pending: 3, Placements: 977, Completed: 936, Headroom: 0.375, UtilPct: 61.5,
			IdleServers: 4, Games: []string{"Contra", "Genshin Impact"},
			GameDemand: []float64{0.5, 3.25},
		}},
	}
}

func TestBinaryRoundTripAllTypes(t *testing.T) {
	for _, in := range wireEnvelopes() {
		blob, err := in.AppendTo(nil)
		if err != nil {
			t.Fatalf("%s: %v", in.Type, err)
		}
		n := binary.LittleEndian.Uint32(blob)
		if int(n) != len(blob)-4 {
			t.Fatalf("%s: length prefix %d, body %d", in.Type, n, len(blob)-4)
		}
		var out Envelope
		if err := out.DecodeFrom(blob[4:]); err != nil {
			t.Fatalf("%s: decode: %v", in.Type, err)
		}
		if err := out.validate(); err != nil {
			t.Fatalf("%s: %v", in.Type, err)
		}
		if !reflect.DeepEqual(in, &out) {
			t.Errorf("%s round trip changed the message:\n in: %+v\nout: %+v", in.Type, in, &out)
		}
	}
}

// summaryGolden is wireEnvelopes()'s summary as one binary frame, written
// when the slot after Servers still carried a draining-server count (here
// 0). The slot stays reserved, so the layout and these bytes do not move.
const summaryGolden = "42000000080620005206a20fd00e000000000000d83f0000000000c04e40" +
	"080206436f6e747261000000000000e03f0e47656e7368696e20496d706163740000000000000a40"

// summaryEnvelope returns wireEnvelopes()'s summary message.
func summaryEnvelope(t *testing.T) *Envelope {
	t.Helper()
	for _, e := range wireEnvelopes() {
		if e.Type == MsgSummary {
			return e
		}
	}
	t.Fatal("wireEnvelopes has no summary")
	return nil
}

func TestSummaryWireGolden(t *testing.T) {
	blob, err := summaryEnvelope(t).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(blob); got != summaryGolden {
		t.Errorf("summary frame moved:\n got %s\nwant %s", got, summaryGolden)
	}
}

// TestSummaryReservedSlotIgnored decodes summaries whose reserved slot holds
// a non-zero count, as a peer that still reports draining servers sends
// them: every other field must come out intact.
func TestSummaryReservedSlotIgnored(t *testing.T) {
	want := summaryEnvelope(t)
	blob, err := want.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Body: tag, Proto, Servers, then the slot, each one byte here.
	const slot = 4 + 3
	if blob[slot] != 0 {
		t.Fatalf("reserved slot at byte %d holds %#x, want 0", slot, blob[slot])
	}
	for _, v := range []int64{1, 2, 300, -1} {
		body := append([]byte(nil), blob[4:slot]...)
		body = appendSvarint(body, v)
		body = append(body, blob[slot+1:]...)
		var out Envelope
		if err := out.DecodeFrom(body); err != nil {
			t.Fatalf("slot %d: decode: %v", v, err)
		}
		if !reflect.DeepEqual(want, &out) {
			t.Errorf("slot %d changed the summary:\n in: %+v\nout: %+v", v, want.Summary, out.Summary)
		}
	}
}

func TestBinaryDecodeReusesStorage(t *testing.T) {
	src := &Envelope{Type: MsgFrames, Frames: &FrameBatch{
		SessionID: 3, Seq: 1, FPS: 60,
		Frames: []FrameInfo{{SizeBytes: 100, Key: true}, {SizeBytes: 50}},
	}}
	blob, err := src.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	reuse := &Envelope{Type: MsgFrames, Frames: &FrameBatch{Frames: make([]FrameInfo, 0, 8)}}
	keepBatch, keepArr := reuse.Frames, reuse.Frames.Frames[:1]
	if err := reuse.DecodeFrom(blob[4:]); err != nil {
		t.Fatal(err)
	}
	if reuse.Frames != keepBatch {
		t.Error("decode allocated a fresh FrameBatch instead of reusing")
	}
	if &reuse.Frames.Frames[0] != &keepArr[0] {
		t.Error("decode allocated a fresh Frames backing array instead of reusing")
	}
	// A reused envelope switching types must drop the stale payload.
	end := &Envelope{Type: MsgEnd, End: &SessionStat{SessionID: 3, DurationSec: 5}}
	blob2, err := end.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reuse.DecodeFrom(blob2[4:]); err != nil {
		t.Fatal(err)
	}
	if reuse.Type != MsgEnd || reuse.Frames != nil || reuse.End == nil {
		t.Errorf("type switch left payloads inconsistent: %+v", reuse)
	}
}

func TestBinaryDecodeRejectsCorruptInput(t *testing.T) {
	good, err := wireEnvelopes()[1].AppendTo(nil) // frames
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:]
	cases := map[string][]byte{
		"empty":           {},
		"unknown tag":     {0xEE, 1, 2, 3},
		"truncated":       body[:len(body)-3],
		"trailing bytes":  append(append([]byte{}, body...), 0, 0),
		"huge count":      {tagFrames, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80},
		"bytes overrun":   {tagInput, 0, 0, 0, 0, 0xFF, 0x01, 'x'},
		"frames no float": {tagFrames, 2, 2, 1, 2},
		"v2 summary":      v2LengthSummary(t),
		// The handshake messages' retired tags.
		"tag 1 (hello)":  {1, 0},
		"tag 2 (accept)": {2, 0},
		"tag 3 (reject)": {3, 0},
	}
	for name, data := range cases {
		var e Envelope
		if err := e.DecodeFrom(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestBinaryAppendToUnknownType(t *testing.T) {
	e := &Envelope{Type: "nope"}
	if _, err := e.AppendTo(nil); err == nil {
		t.Fatal("AppendTo encoded an unknown message type")
	}
}

// v2LengthSummary is a well-formed summary frame body cut where the retired
// version-2 layout ended (after UtilPct, before the idle-server count and the
// per-game list) — what an old peer would still send.
func v2LengthSummary(t testing.TB) []byte {
	t.Helper()
	e := &Envelope{Type: MsgSummary, Summary: &ClusterSummary{Servers: 8, LiveSessions: 20, Headroom: 0.5, UtilPct: 40}}
	blob, err := e.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// With no idle servers and no games the version-3 tail is two one-byte
	// varints.
	return blob[4 : len(blob)-2]
}

func TestNegotiateProto(t *testing.T) {
	cases := []struct{ client, server, want int }{
		{ProtoBinary3, ProtoBinary3, ProtoBinary3},
		{99, ProtoBinary3, ProtoBinary3}, // a newer peer settles on the version we speak
		{ProtoBinary3, 99, ProtoBinary3},
		{0, ProtoBinary3, 0},         // a peer that predates negotiation
		{ProtoJSON, ProtoBinary3, 0}, // a peer that offers only the handshake framing
		{2, ProtoBinary3, 0},         // the retired binary layout
		{ProtoBinary3, 2, 0},
		{ProtoBinary3, 0, 0},
		{-3, ProtoBinary3, 0},
	}
	for _, c := range cases {
		if got := NegotiateProto(c.client, c.server); got != c.want {
			t.Errorf("NegotiateProto(%d, %d) = %d, want %d", c.client, c.server, got, c.want)
		}
	}
}

// TestSummaryCrossVersion pins what happens where an old summary peer meets
// this build: a frame body of the retired version-2 length is a decode error,
// never a summary with its extended fields silently zero; a summary whose
// Games and GameDemand disagree in length refuses to encode rather than
// writing a frame its peer cannot parse; and a feed opened by a requester
// that offers version 2 is rejected with the reason and closed.
func TestSummaryCrossVersion(t *testing.T) {
	var out Envelope
	if err := out.DecodeFrom(v2LengthSummary(t)); err == nil {
		t.Errorf("decode accepted a version-2-length summary frame: %+v", out.Summary)
	}

	bad := &Envelope{Type: MsgSummary, Summary: &ClusterSummary{
		Games: []string{"Contra"}, GameDemand: []float64{1, 2},
	}}
	if _, err := bad.AppendTo(nil); err == nil {
		t.Error("encoded a summary with mismatched Games/GameDemand lengths")
	}

	before := runtime.NumGoroutine()
	s, err := Serve("127.0.0.1:0", ServerConfig{System: testSystem(t), Policy: core.PolicyCoCG, TickEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	requireVersionReject(t, s.Addr(), `{"type":"summary_req","summary_req":{"proto":2}}`)
	if got := s.snapshot().SummariesServed; got != 0 {
		t.Errorf("a rejected feed was served %d summaries", got)
	}
	requireCleanClose(t, s, before)
}

// TestConnBinaryConversation drives both framings over a live pipe through
// the Conn layer, switching protocols mid-stream exactly as a session does.
func TestConnBinaryConversation(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	deadline := time.Now().Add(5 * time.Second)
	_ = a.SetDeadline(deadline)
	_ = b.SetDeadline(deadline)

	done := make(chan error, 1)
	go func() {
		// Peer: JSON hello in, JSON accept out, then binary both ways.
		env, err := cb.Recv()
		if err == nil {
			err = cb.Send(&Envelope{Type: MsgAccept, Accept: &Accept{
				SessionID: 1, Game: env.Hello.Game, Proto: ProtoBinary3,
			}})
		}
		if err == nil {
			cb.SetProto(ProtoBinary3)
			_, err = cb.Recv() // binary input batch
		}
		if err == nil {
			err = cb.Send(wireEnvelopes()[1]) // binary frames
		}
		done <- err
	}()

	if err := ca.Send(&Envelope{Type: MsgHello, Hello: &Hello{Game: "Contra", Proto: ProtoBinary3}}); err != nil {
		t.Fatal(err)
	}
	acc, err := ca.Recv()
	if err != nil || acc.Type != MsgAccept {
		t.Fatalf("accept: %v %v", acc, err)
	}
	ca.SetProto(NegotiateProto(ProtoBinary3, acc.Accept.Proto))
	if err := ca.Send(wireEnvelopes()[0]); err != nil {
		t.Fatal(err)
	}
	frames, err := ca.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frames, wireEnvelopes()[1]) {
		t.Errorf("binary frames changed in flight: %+v", frames)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConnRejectsOversizedBinaryFrame ensures a hostile length prefix is an
// error, not an allocation.
func TestConnRejectsOversizedBinaryFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	_ = b.SetDeadline(time.Now().Add(2 * time.Second))
	conn := NewConn(b)
	conn.SetProto(ProtoBinary3)
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], maxWireFrame+1)
		_, _ = a.Write(hdr[:])
	}()
	if err := conn.RecvInto(&Envelope{}); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// jsonExchange sends one raw JSON handshake line on a fresh connection and
// returns the reply line decoded as a generic object, plus the reader for
// whatever follows — the hand-rolled peer TestJSONWireCompatibility plays.
func jsonExchange(t *testing.T, addr, line string) (map[string]any, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(time.Minute))
	if _, err := nc.Write([]byte(line + "\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(nc)
	reply, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	var obj map[string]any
	if err := json.Unmarshal(reply, &obj); err != nil {
		t.Fatalf("%s: reply %q is not a JSON line: %v", line, reply, err)
	}
	return obj, r
}

// TestJSONWireCompatibility pins the JSON handshake by field name: a peer
// that hand-rolls its JSON (no Go structs from this package) gets an accept,
// a reject and a first summary it can read, each as one newline-terminated
// object, and the session body that follows an accept is binary frames.
func TestJSONWireCompatibility(t *testing.T) {
	s := startServer(t)

	reply, r := jsonExchange(t, s.Addr(), `{"type":"hello","hello":{"game":"Contra","script":0,"proto":3}}`)
	accept, _ := reply["accept"].(map[string]any)
	if reply["type"] != "accept" || accept == nil {
		t.Fatalf("hello answered with %v", reply)
	}
	if accept["proto"] != float64(ProtoBinary3) || accept["game"] != "Contra" || accept["session_id"] == nil {
		t.Errorf("accept fields: %v", accept)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	var first Envelope
	if err := first.DecodeFrom(body); err != nil || first.Type != MsgFrames {
		t.Fatalf("session body did not open with a binary frame batch: %+v, %v", first, err)
	}

	reply, _ = jsonExchange(t, s.Addr(), `{"type":"hello","hello":{"game":"No Such Game","proto":3}}`)
	reject, _ := reply["reject"].(map[string]any)
	if reply["type"] != "reject" || reject == nil || reject["reason"] == "" {
		t.Errorf("unknown game answered with %v", reply)
	}

	reply, _ = jsonExchange(t, s.Addr(), `{"type":"summary_req","summary_req":{"proto":3}}`)
	sum, _ := reply["summary"].(map[string]any)
	if reply["type"] != "summary" || sum == nil {
		t.Fatalf("summary request answered with %v", reply)
	}
	if sum["proto"] != float64(ProtoBinary3) || sum["servers"] != float64(2) || sum["headroom"] == nil {
		t.Errorf("summary fields: %v", sum)
	}
}
