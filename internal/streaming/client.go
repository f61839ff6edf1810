package streaming

import (
	"errors"
	"fmt"
	"net"
	"time"

	"cocg/internal/netmodel"
)

// ErrRejected is returned when the server declines the session.
var ErrRejected = errors.New("streaming: session rejected")

// ClientStats summarizes what a client experienced.
type ClientStats struct {
	Game        string
	SessionID   int64
	Cluster     string  // region/zone that hosted the session (set when played through a coordinator)
	Frames      int     // frame batches received
	SeqGaps     int     // batches the server dropped or coalesced under backpressure
	LoadingSec  int     // seconds spent on loading screens
	MeanFPS     float64 // mean of received per-second frame rates
	MeanBitrate float64 // kbps
	MeanRTTMS   float64 // input-to-echo round trip
	// Net summarizes the simulated last-mile delivery when a Link was
	// configured.
	Net   netmodel.Stats
	Final SessionStat
}

// ClientConfig shapes a playing client.
type ClientConfig struct {
	Game   string
	Script int
	// Timeout bounds the whole session; <=0 means 2 minutes.
	Timeout time.Duration
	// Link, when set, simulates the player's last-mile network: every
	// frame batch is "transmitted" through it and delivery stats are
	// reported in ClientStats.Net (the operator-managed connection of
	// Fig. 1).
	Link *netmodel.Link
	// OnFrames, when set, observes every received frame batch before it is
	// folded into the statistics — the load generator's timing hook. The
	// batch is only valid for the duration of the call (its storage is
	// reused for the next receive).
	OnFrames func(f *FrameBatch)
}

// inputEvery is how many received frame batches a client answers with one
// input batch.
const inputEvery = 2

// Play connects to a streaming server, plays one full session, and returns
// the client-side statistics — the measurement point of the player
// experience in Fig. 1. The handshake runs over JSON; the session body is
// binary, received into one reused envelope so the per-batch client cost is
// allocation-free.
func Play(addr string, cfg ClientConfig) (*ClientStats, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := nc.SetDeadline(time.Now().Add(cfg.Timeout)); err != nil {
		_ = nc.Close()
		return nil, err
	}
	conn := NewConn(nc)
	defer func() { _ = conn.Close() }() // teardown; session errors surface first

	if err := conn.Send(&Envelope{Type: MsgHello, Hello: &Hello{
		Game: cfg.Game, Script: cfg.Script, Proto: ProtoBinary3,
	}}); err != nil {
		return nil, err
	}
	env, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	switch env.Type {
	case MsgAccept:
	case MsgReject:
		return nil, fmt.Errorf("%w: %s", ErrRejected, env.Reject.Reason)
	default:
		return nil, fmt.Errorf("streaming: unexpected reply %q", env.Type)
	}
	proto := NegotiateProto(ProtoBinary3, env.Accept.Proto)
	if proto == 0 {
		return nil, fmt.Errorf("streaming: server chose unsupported wire protocol version %d", env.Accept.Proto)
	}
	conn.SetProto(proto)

	stats := &ClientStats{Game: cfg.Game, SessionID: env.Accept.SessionID, Cluster: env.Accept.Cluster}
	var fpsSum, brSum, rttSum float64
	var rttN int
	var inputSeq, lastSeq int64
	var recv Envelope                               // reused across every receive
	input := InputBatch{Codes: make([]byte, 0, 32)} // reused input batch
	inputEnv := Envelope{Type: MsgInput, Input: &input}
	for {
		if err := conn.RecvInto(&recv); err != nil {
			return nil, err
		}
		switch recv.Type {
		case MsgFrames:
			f := recv.Frames
			if cfg.OnFrames != nil {
				cfg.OnFrames(f)
			}
			stats.Frames++
			if lastSeq > 0 && f.Seq > lastSeq+1 {
				stats.SeqGaps += int(f.Seq - lastSeq - 1)
			}
			lastSeq = f.Seq
			fpsSum += f.FPS
			brSum += f.BitrateKbps
			if cfg.Link != nil {
				stats.Net.Observe(cfg.Link.Send(f.BitrateKbps))
			}
			if f.Loading {
				stats.LoadingSec += 5
			}
			if f.EchoSeq == inputSeq && f.EchoSentAtMS > 0 {
				rttSum += float64(time.Now().UnixMilli() - f.EchoSentAtMS)
				rttN++
			}
			if stats.Frames%inputEvery == 0 {
				inputSeq++
				input.SessionID = stats.SessionID
				input.Seq = inputSeq
				input.Events = 30
				input.SentAtMS = time.Now().UnixMilli()
				input.Codes = appendInputCodes(input.Codes[:0], inputSeq, input.Events)
				if err := conn.Send(&inputEnv); err != nil {
					return nil, err
				}
			}
		case MsgEnd:
			stats.Final = *recv.End
			if stats.Frames > 0 {
				stats.MeanFPS = fpsSum / float64(stats.Frames)
				stats.MeanBitrate = brSum / float64(stats.Frames)
			}
			if rttN > 0 {
				stats.MeanRTTMS = rttSum / float64(rttN)
			}
			return stats, nil
		default:
			return nil, fmt.Errorf("streaming: unexpected mid-session message %q", recv.Type)
		}
	}
}

// appendInputCodes synthesizes the event codes for one input batch into the
// reused backing array: a deterministic walk of the key space standing in
// for real controller traffic.
func appendInputCodes(dst []byte, seq int64, events int) []byte {
	for i := 0; i < events; i++ {
		dst = append(dst, byte((seq+int64(i)*7)&0x7f))
	}
	return dst
}
