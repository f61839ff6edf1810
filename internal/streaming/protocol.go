// Package streaming is the GamingAnywhere-style delivery substrate of the
// paper's Fig. 1 workflow: the server runs game sessions, encodes their
// rendered frames, and streams them to clients over TCP; clients send input
// events back. The co-location scheduler decides what runs where; this
// package carries the player-facing loop around it.
//
// Two wire framings are spoken over the same connection: newline-delimited
// JSON for the one-request, one-reply handshake (small, debuggable, entirely
// stdlib — every connection starts here) and a length-prefixed binary codec
// for everything after it (see wire.go), which the high-throughput tick
// pipeline uses to stream frame batches without per-message allocation.
package streaming

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
)

// MsgType discriminates wire messages.
type MsgType string

// Wire message types.
const (
	// MsgHello is the client's opening request: which game to play.
	MsgHello MsgType = "hello"
	// MsgAccept is the server's admission answer.
	MsgAccept MsgType = "accept"
	// MsgReject tells the client no server can host it right now.
	MsgReject MsgType = "reject"
	// MsgInput carries one batch of player input events (client -> server).
	MsgInput MsgType = "input"
	// MsgFrames carries one interval's encoded frame batch (server -> client).
	MsgFrames MsgType = "frames"
	// MsgEnd closes a session with its final statistics.
	MsgEnd MsgType = "end"
	// MsgSummaryReq asks the server for a cluster load summary. It opens (and
	// then paces) a coordinator's health/load feed; a connection whose first
	// message is a MsgSummaryReq never hosts a game session.
	MsgSummaryReq MsgType = "summary_req"
	// MsgSummary answers a MsgSummaryReq with the cluster's load summary.
	MsgSummary MsgType = "summary"
)

// Envelope is the single wire frame; exactly one payload field is set,
// matching Type.
type Envelope struct {
	Type       MsgType         `json:"type"`
	Hello      *Hello          `json:"hello,omitempty"`
	Accept     *Accept         `json:"accept,omitempty"`
	Reject     *Reject         `json:"reject,omitempty"`
	Input      *InputBatch     `json:"input,omitempty"`
	Frames     *FrameBatch     `json:"frames,omitempty"`
	End        *SessionStat    `json:"end,omitempty"`
	SummaryReq *SummaryReq     `json:"summary_req,omitempty"`
	Summary    *ClusterSummary `json:"summary,omitempty"`
}

// Hello opens a session. It is always sent in the JSON framing.
type Hello struct {
	Game   string `json:"game"`
	Script int    `json:"script"`
	// Habit identifies a returning player; 0 lets the server assign one.
	Habit int64 `json:"habit,omitempty"`
	// Proto is the highest wire protocol version the client speaks. A Hello
	// that omits it, or offers less than ProtoBinary3, is rejected.
	Proto int `json:"proto,omitempty"`
}

// Accept confirms placement. It is always sent in the JSON framing; both
// sides switch to the binary framing for everything after it.
type Accept struct {
	SessionID int64  `json:"session_id"`
	Server    int    `json:"server"`
	Game      string `json:"game"`
	// Proto is the wire protocol version the server chose for the rest of
	// the session: ProtoBinary3.
	Proto int `json:"proto,omitempty"`
	// Cluster names the region/zone that hosts the session. A cocg-server
	// leaves it empty; the coordinator stamps it while relaying the Accept so
	// clients (and the load generator's routing report) can see where they
	// landed.
	Cluster string `json:"cluster,omitempty"`
}

// Reject declines a Hello, or a SummaryReq whose sender cannot speak
// ProtoBinary3.
type Reject struct {
	Reason string `json:"reason"`
}

// InputBatch is a second's worth of player inputs.
type InputBatch struct {
	SessionID int64 `json:"session_id"`
	Seq       int64 `json:"seq"`
	Events    int   `json:"events"`
	SentAtMS  int64 `json:"sent_at_ms"`
	// Codes carries one opaque code per event (key/button identifiers).
	// Clients reuse the backing array across batches.
	Codes []byte `json:"codes,omitempty"`
}

// FrameInfo describes one encoded video frame inside a batch.
type FrameInfo struct {
	// SizeBytes is the encoded size of this frame.
	SizeBytes uint32 `json:"size_bytes"`
	// Key marks an intra (key) frame.
	Key bool `json:"key,omitempty"`
}

// FrameBatch is one virtual second of encoded video.
type FrameBatch struct {
	SessionID int64 `json:"session_id"`
	Seq       int64 `json:"seq"`
	// FPS is the frame rate achieved this second.
	FPS float64 `json:"fps"`
	// BitrateKbps is the encoder's output rate this second.
	BitrateKbps float64 `json:"bitrate_kbps"`
	// Stage is the detected stage ID (telemetry for the client HUD).
	Stage int `json:"stage"`
	// Loading reports whether the game is in a loading screen.
	Loading bool `json:"loading"`
	// EchoSeq acknowledges the latest input batch, for RTT estimation.
	EchoSeq int64 `json:"echo_seq"`
	// EchoSentAtMS echoes that input's send timestamp.
	EchoSentAtMS int64 `json:"echo_sent_at_ms"`
	// Frames lists the per-frame encoder output for this second. A session's
	// writer reuses the backing array across its batches (see
	// Server.writeLoop), so receivers must not retain it.
	Frames []FrameInfo `json:"frames,omitempty"`
}

// SessionStat closes a session.
type SessionStat struct {
	SessionID   int64   `json:"session_id"`
	DurationSec int64   `json:"duration_sec"`
	AvgFPS      float64 `json:"avg_fps"`
	FPSRatio    float64 `json:"fps_ratio"`
	Degraded    float64 `json:"degraded"`
}

// SummaryReq opens or paces a cluster-summary feed (coordinator -> cluster).
// Like Hello, the first SummaryReq of a connection is always sent in the JSON
// framing and negotiates the protocol for the rest of the feed.
type SummaryReq struct {
	// Proto is the highest wire protocol version the requester speaks on
	// the feed's first request (see Hello.Proto); later requests leave it 0.
	Proto int `json:"proto,omitempty"`
}

// ClusterSummary is one cluster's load summary (cluster -> coordinator): the
// per-cluster rollup the coordinator tier routes on. Headroom is the
// scheduler's forecast-backed estimate when the policy implements
// platform.FleetSummarizer (CoCG sums its cached per-server demand timelines),
// else the instantaneous utilization fallback.
type ClusterSummary struct {
	// Proto is the wire protocol version the server chose for the feed; set
	// only on the first reply (the negotiation point), 0 afterwards.
	Proto int `json:"proto,omitempty"`
	// Servers is the backend server count.
	Servers int `json:"servers"`
	// LiveSessions counts connected streaming sessions; Pending counts
	// arrivals waiting for a server; Placements and Completed are monotonic.
	LiveSessions int `json:"live_sessions"`
	Pending      int `json:"pending"`
	Placements   int `json:"placements"`
	Completed    int `json:"completed"`
	// Headroom is the predicted free fraction of fleet capacity over the
	// scheduler's forecast horizon, in [0,1] (1 = idle).
	Headroom float64 `json:"headroom"`
	// UtilPct is the current mean of per-server worst-dimension utilization,
	// in percent — the reactive complement to the forecast-backed Headroom.
	UtilPct float64 `json:"util_pct"`
	// IdleServers counts servers hosting zero sessions — the pool an
	// autoscaler could retire without migrating anything.
	IdleServers int `json:"idle_servers,omitempty"`
	// Games and GameDemand break predicted demand out per game: GameDemand[i]
	// is the fleet's predicted demand for Games[i] over the forecast horizon,
	// in units of one server's capacity. Populated when the policy implements
	// platform.FleetSummarizer.
	Games      []string  `json:"games,omitempty"`
	GameDemand []float64 `json:"game_demand,omitempty"`
}

// Conn wraps a TCP connection with protocol framing. It is safe for one
// concurrent reader and one concurrent writer (the protocol is full-duplex);
// SetProto may only be called at the negotiation point, before the other
// side of the pipe is driven concurrently.
type Conn struct {
	c   net.Conn
	r   *bufio.Reader
	enc *json.Encoder
	// binary is false while the connection is still in its JSON handshake.
	binary bool

	rhdr [4]byte
	rbuf []byte // binary frame read buffer, reused across Recv calls
	wbuf []byte // binary frame write buffer, reused across Send calls
}

// NewConn frames an established connection; it starts in the JSON handshake
// framing.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReader(c), enc: json.NewEncoder(c)}
}

// SetProto ends the handshake: given ProtoBinary3 — the only value
// NegotiateProto returns for a pair that can talk — it switches the
// connection to the binary framing. Any other value leaves the connection in
// the handshake framing; no session can run on it. The caller must guarantee
// no Send or Recv is in flight — in the protocol this is the instant after
// the Accept is sent (server) or received (client).
func (c *Conn) SetProto(p int) {
	if p != ProtoBinary3 || c.binary {
		return
	}
	c.binary = true
	// The codec buffers are the connection's own, sized past any frame batch.
	c.wbuf = make([]byte, 0, 4096)
	c.rbuf = make([]byte, 0, 4096)
}

// Send writes one envelope in the connection's current framing.
func (c *Conn) Send(e *Envelope) error {
	if !c.binary {
		return c.enc.Encode(e)
	}
	buf, err := e.AppendTo(c.wbuf[:0])
	if err != nil {
		return err
	}
	c.wbuf = buf[:0]
	_, err = c.c.Write(buf)
	return err
}

// Recv reads the next envelope into fresh storage.
func (c *Conn) Recv() (*Envelope, error) {
	var e Envelope
	if err := c.RecvInto(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// RecvInto reads the next envelope into e, reusing any payload structs (and
// their slice backing arrays) already attached to it — the allocation-free
// receive path for clients and load generators that process one message at a
// time. Payloads of non-matching types are detached, and e is left untouched
// on error.
func (c *Conn) RecvInto(e *Envelope) error {
	if !c.binary {
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			return err
		}
		var fresh Envelope
		if err := json.Unmarshal(line, &fresh); err != nil {
			return fmt.Errorf("streaming: bad frame: %w", err)
		}
		if err := fresh.validate(); err != nil {
			return err
		}
		*e = fresh
		return nil
	}
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return err
	}
	n := int(uint32(c.rhdr[0]) | uint32(c.rhdr[1])<<8 | uint32(c.rhdr[2])<<16 | uint32(c.rhdr[3])<<24)
	if n <= 0 || n > maxWireFrame {
		return fmt.Errorf("streaming: bad binary frame length %d", n)
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	if _, err := io.ReadFull(c.r, body); err != nil {
		return err
	}
	return e.DecodeFrom(body)
}

// Close closes the underlying connection. It is safe to call while a reader
// or writer is blocked (the server uses this to force teardown).
func (c *Conn) Close() error { return c.c.Close() }

// RelayTo copies raw bytes from this connection to dst until EOF or error,
// starting with anything this side's reader has already buffered. After a
// handshake is relayed message-by-message, two RelayTo calls (one per
// direction) turn a proxy into a framing-agnostic byte pipe — the session's
// binary frames pass through untouched. It returns the bytes copied and the
// first error (io.EOF is reported as nil, as io.Copy does).
func (c *Conn) RelayTo(dst *Conn) (int64, error) {
	return io.Copy(dst.c, c.r)
}

// Release does nothing: a Conn's codec buffers are its own and are
// collected with it.
//
// Deprecated: there is nothing to release; drop the call.
func (c *Conn) Release() {}

// validate checks that the payload matches the declared type.
func (e *Envelope) validate() error {
	var ok bool
	switch e.Type {
	case MsgHello:
		ok = e.Hello != nil
	case MsgAccept:
		ok = e.Accept != nil
	case MsgReject:
		ok = e.Reject != nil
	case MsgInput:
		ok = e.Input != nil
	case MsgFrames:
		ok = e.Frames != nil
	case MsgEnd:
		ok = e.End != nil
	case MsgSummaryReq:
		ok = e.SummaryReq != nil
	case MsgSummary:
		ok = e.Summary != nil
	default:
		return fmt.Errorf("streaming: unknown message type %q", e.Type)
	}
	if !ok {
		return fmt.Errorf("streaming: message type %q without payload", e.Type)
	}
	return nil
}
