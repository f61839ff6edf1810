package streaming

import (
	"testing"
	"time"

	"cocg/internal/core"
	"cocg/internal/gamesim"
)

// benchFrameBatch is a realistic per-tick payload: one 60 FPS detection
// frame's worth of encoded video, as the server emits at steady state.
func benchFrameBatch() *Envelope {
	e := DefaultEncoder()
	return &Envelope{Type: MsgFrames, Frames: &FrameBatch{
		SessionID: 117, Seq: 4242, FPS: 60, BitrateKbps: 8000, Stage: 3,
		EchoSeq: 4201, EchoSentAtMS: 99171234,
		Frames: e.AppendFrames(nil, 60, 8000),
	}}
}

// BenchmarkWireFrameBatchEncode is the per-session encode hot path over the
// binary codec: serializing one frame batch into a reused buffer. Must stay
// at 0 allocs/op.
func BenchmarkWireFrameBatchEncode(b *testing.B) {
	env := benchFrameBatch()
	buf, err := env.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = env.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireFrameBatchDecode is the client-side mirror: decoding a frame
// batch into a reused envelope. Must stay at 0 allocs/op.
func BenchmarkWireFrameBatchDecode(b *testing.B) {
	blob, err := benchFrameBatch().AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	body := blob[4:]
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	var env Envelope
	if err := env.DecodeFrom(body); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.DecodeFrom(body); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSessions builds n wire-less live sessions on a served cluster and
// warms them past the loading screen, returning the server and its live
// slice. The simulation is then left untouched so every measured
// op sees the identical steady state.
func benchSessions(b testing.TB, n int) (*Server, []*liveSession) {
	b.Helper()
	s, err := Serve("127.0.0.1:0", ServerConfig{
		System:    testSystem(b),
		Policy:    core.PolicyCoCG,
		Servers:   16,
		TickEvery: time.Hour, // the benchmark owns the tick cadence
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	specs := []*gamesim.GameSpec{gamesim.Contra(), gamesim.GenshinImpact()}
	for i := 0; i < n; i++ {
		spec := specs[i%len(specs)]
		habit := int64(1000 + i%7)
		sess, err := gamesim.NewPlayerSession(spec, i%len(spec.Scripts), habit, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		ctl, err := s.cluster.Policy.NewController(spec, habit)
		if err != nil {
			b.Fatal(err)
		}
		srv := s.cluster.Servers[i%len(s.cluster.Servers)]
		hosted := srv.Add(spec, sess, ctl)
		s.live = append(s.live, &liveSession{id: int64(i + 1), idx: i, hosted: hosted, out: newOutQueue(8)})
	}
	// Warm every session past its loading screen, then drain the queues.
	// At 64 sessions a server (n = 1024) the last one leaves loading after
	// about 960 ticks.
	const warmLimit = 3000
	for t := 0; anyLoading(s.live); t++ {
		if t == warmLimit {
			b.Fatalf("%d sessions: some still loading after %d ticks", n, warmLimit)
		}
		s.tickOnce()
	}
	w := newDeliveryWalk()
	for _, ls := range s.live {
		for w.drain(b, ls) {
		}
	}
	return s, s.live
}

// anyLoading reports whether any unfinished session is on a loading screen.
func anyLoading(live []*liveSession) bool {
	for _, ls := range live {
		if sess := ls.hosted.Session; !sess.Done() && sess.Phase() == gamesim.PhaseLoading {
			return true
		}
	}
	return false
}

// deliveryWalk is a session writer minus the socket: one frame-batch
// envelope, one End and one wire buffer, reused across every session it
// drains.
type deliveryWalk struct {
	batch FrameBatch
	env   Envelope
	end   SessionStat
	buf   []byte
}

func newDeliveryWalk() *deliveryWalk {
	w := &deliveryWalk{}
	w.env = Envelope{Type: MsgFrames, Frames: &w.batch}
	return w
}

// drain pops, assembles and encodes one queued message of ls to wire bytes,
// as writeLoop does before its Send; it reports false once the queue is
// empty.
func (w *deliveryWalk) drain(tb testing.TB, ls *liveSession) bool {
	var rec frameRec
	isEnd, ok := ls.out.tryPop(&rec, &w.end)
	if !ok {
		return false
	}
	env := &w.env
	if isEnd {
		env = &Envelope{Type: MsgEnd, End: &w.end}
	} else {
		w.batch.SessionID = ls.id
		rec.assemble(&w.batch)
	}
	var err error
	if w.buf, err = env.AppendTo(w.buf[:0]); err != nil {
		tb.Fatal(err)
	}
	return true
}

// TestStreamTickAllocationFree gates what BenchmarkStreamTick* only
// reports: once warm, a session's delivery cycle — the tick walk's emit, the
// writer's pop, assemble and wire encode — allocates nothing.
func TestStreamTickAllocationFree(t *testing.T) {
	s, snap := benchSessions(t, 32)
	w := newDeliveryWalk()
	cycle := func() {
		for _, ls := range snap {
			s.emitSession(ls, true)
			for w.drain(t, ls) {
			}
		}
	}
	cycle() // sizes the batch's frames and the buffer
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("warm delivery cycle allocates %.1f times per walk of %d sessions", n, len(snap))
	}
}

// benchStreamTick measures one steady-state delivery walk over n live
// sessions: every session gets a frame record emitted by the tick walk,
// pushed to its bounded queue, popped, assembled and encoded to wire bytes —
// exactly what the per-session writer does, minus the socket. The simulation
// clock is frozen, so every op is identical.
func benchStreamTick(b *testing.B, n int) {
	s, snap := benchSessions(b, n)
	w := newDeliveryWalk()
	walk := func() {
		for _, ls := range snap {
			s.emitSession(ls, true)
			for w.drain(b, ls) {
			}
		}
	}
	walk() // sizes the batch's frames and the buffer before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk()
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(perOp*1e9/float64(n), "ns/session")
	b.ReportMetric(float64(n)/perOp, "frames/sec")
}

func BenchmarkStreamTick256(b *testing.B)  { benchStreamTick(b, 256) }
func BenchmarkStreamTick1024(b *testing.B) { benchStreamTick(b, 1024) }
