package streaming

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzRecv throws arbitrary bytes at the wire decoder: it must either return
// a validated envelope or an error, never panic or accept a payload-less
// message.
func FuzzRecv(f *testing.F) {
	f.Add([]byte(`{"type":"hello","hello":{"game":"Contra","script":0}}` + "\n"))
	f.Add([]byte(`{"type":"frames","frames":{"session_id":1,"seq":2,"fps":60}}` + "\n"))
	f.Add([]byte(`{"type":"hello"}` + "\n"))
	f.Add([]byte(`{"type":"zzz"}` + "\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasSuffix(data, []byte("\n")) {
			data = append(data, '\n')
		}
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			a.Write(data)
			a.Close()
		}()
		b.SetReadDeadline(time.Now().Add(time.Second))
		conn := NewConn(b)
		env, err := conn.Recv()
		if err != nil {
			return
		}
		if verr := env.validate(); verr != nil {
			t.Fatalf("Recv returned an invalid envelope: %v", verr)
		}
	})
}

// FuzzEnvelopeRoundTrip checks that any valid envelope survives a
// marshal/unmarshal cycle.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add("Contra", 0, int64(42))
	f.Add("Genshin Impact", 2, int64(-1))
	f.Fuzz(func(t *testing.T, game string, script int, habit int64) {
		if !utf8.ValidString(game) {
			t.Skip() // encoding/json replaces invalid UTF-8 with U+FFFD by design
		}
		in := &Envelope{Type: MsgHello, Hello: &Hello{Game: game, Script: script, Habit: habit}}
		blob, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out Envelope
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatal(err)
		}
		if err := out.validate(); err != nil {
			t.Fatal(err)
		}
		if out.Hello.Game != game || out.Hello.Script != script || out.Hello.Habit != habit {
			t.Fatal("round trip changed the hello")
		}
	})
}

// FuzzBinaryRoundTrip checks the binary codec's round-trip property over
// fuzzer-driven envelopes: decode(encode(e)) must reproduce e exactly.
// Floats are derived from the fuzzed integers (finite, non-NaN) so that
// reflect.DeepEqual is a sound equality.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), "Contra", uint(3), false)
	f.Add(int64(-9), int64(1<<40), "", uint(0), true)
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), "Genshin Impact", uint(200), true)
	f.Fuzz(func(t *testing.T, a, b int64, s string, nframes uint, key bool) {
		fb := &FrameBatch{
			SessionID:    a,
			Seq:          b,
			FPS:          float64(a%240) / 4,
			BitrateKbps:  float64(b % 100_000),
			Stage:        int(a % 7),
			Loading:      key,
			EchoSeq:      b / 3,
			EchoSentAtMS: a / 5,
		}
		for i := uint(0); i < nframes%512; i++ {
			fb.Frames = append(fb.Frames, FrameInfo{SizeBytes: uint32(a) + uint32(i), Key: key && i == 0})
		}
		envs := []*Envelope{
			{Type: MsgInput, Input: &InputBatch{SessionID: a, Seq: b, Events: int(a % 64), SentAtMS: b, Codes: []byte(s)}},
			{Type: MsgFrames, Frames: fb},
			{Type: MsgEnd, End: &SessionStat{SessionID: a, DurationSec: b, AvgFPS: float64(a % 240), FPSRatio: float64(b%100) / 100, Degraded: float64(a%100) / 100}},
			{Type: MsgSummaryReq, SummaryReq: &SummaryReq{Proto: int(a % 5)}},
			{Type: MsgSummary, Summary: &ClusterSummary{
				Proto: int(b % 5), Servers: int(a % 4096), LiveSessions: int(a),
				Pending: int(b), Placements: int(a / 3), Completed: int(b / 3),
				Headroom: float64(a%1000) / 1000, UtilPct: float64(b % 100),
				IdleServers: int(nframes % 64), Games: []string{s}, GameDemand: []float64{float64(a%1000) / 8},
			}},
		}
		for _, in := range envs {
			blob, err := in.AppendTo(nil)
			if err != nil {
				t.Fatalf("%s: %v", in.Type, err)
			}
			var out Envelope
			if err := out.DecodeFrom(blob[4:]); err != nil {
				t.Fatalf("%s: decode: %v", in.Type, err)
			}
			// []byte(s) for an empty string and an empty Codes slice compare
			// unequal under DeepEqual (nil vs empty); normalize.
			if in.Input != nil && len(in.Input.Codes) == 0 {
				in.Input.Codes, out.Input.Codes = nil, nil
			}
			if in.Frames != nil && len(in.Frames.Frames) == 0 {
				in.Frames.Frames, out.Frames.Frames = nil, nil
			}
			if !reflect.DeepEqual(in, &out) {
				t.Fatalf("%s: round trip changed the message:\n in: %+v\nout: %+v", in.Type, in, &out)
			}
		}
	})
}

// FuzzBinaryDecode throws arbitrary bytes at the binary decoder: it must
// either produce an envelope that validates or return an error — never
// panic, over-allocate, or hand back a half-decoded message.
func FuzzBinaryDecode(f *testing.F) {
	for _, e := range wireEnvelopes() {
		if blob, err := e.AppendTo(nil); err == nil {
			f.Add(blob[4:])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xEE, 1, 2, 3})
	f.Add([]byte{tagFrames, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80})
	// The handshake messages' retired tags, which decode as unknown.
	for tag := byte(1); tag <= 3; tag++ {
		f.Add([]byte{tag, 0})
	}
	// A summary of the retired version-2 length: the one input that is a
	// known error rather than "either outcome is fine".
	old := v2LengthSummary(f)
	f.Add(old)
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Envelope
		if err := e.DecodeFrom(data); err != nil {
			return
		}
		if bytes.Equal(data, old) {
			t.Fatalf("DecodeFrom mis-decoded a version-2-length summary: %+v", e.Summary)
		}
		if verr := e.validate(); verr != nil {
			t.Fatalf("DecodeFrom accepted an invalid envelope: %v", verr)
		}
		// What decoded must re-encode and decode to the same thing.
		blob, err := e.AppendTo(nil)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		var back Envelope
		if err := back.DecodeFrom(blob[4:]); err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
	})
}
