package coordinator

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cocg/internal/streaming"
)

// ClusterSpec configures one cluster (region/zone) the coordinator fronts.
type ClusterSpec struct {
	// Name labels the cluster in metrics and Accept.Cluster stamps; empty
	// defaults to the address.
	Name string
	// Addr is the cluster's cocg-server session/summary address.
	Addr string
	// LatencyMS is the simulated user→region round-trip time the routing
	// score charges for this cluster.
	LatencyMS float64
}

// member is one cluster's runtime state: the prober-owned summary feed, the
// health verdict routing reads, and per-cluster traffic counters.
type member struct {
	id   int
	name string
	addr string
	lat  float64

	// mu guards the health state and the last summary. The feed connection
	// is owned exclusively by the prober goroutine and is tracked separately
	// (connMu) only so Close can force a blocked Recv down.
	mu       sync.Mutex
	healthy  bool
	failures int
	summary  streaming.ClusterSummary
	probed   bool      // at least one summary ever landed
	lastSum  time.Time // when the last summary landed (staleness on /metrics)

	connMu sync.Mutex
	nc     net.Conn

	// Traffic counters (monotonic since start).
	routed     atomic.Uint64 // sessions for which this cluster was dialed
	admitted   atomic.Uint64 // sessions this cluster accepted
	rejected   atomic.Uint64 // sessions this cluster declined (admission full)
	transport  atomic.Uint64 // session attempts lost to dial/transport errors
	probeFails atomic.Uint64 // summary probes that errored (dial, send, recv)
}

// view snapshots the member into the immutable form routing reads.
func (m *member) view() ClusterView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ClusterView{
		ID:           m.id,
		Healthy:      m.healthy,
		LatencyMS:    m.lat,
		Headroom:     m.summary.Headroom,
		LiveSessions: m.summary.LiveSessions,
	}
}

// noteSummary records a successful probe: the member is healthy and its load
// view is fresh.
func (m *member) noteSummary(sum streaming.ClusterSummary) {
	m.mu.Lock()
	m.healthy = true
	m.failures = 0
	m.summary = sum
	m.probed = true
	m.lastSum = time.Now()
	m.mu.Unlock()
}

// summaryAge reports seconds since the last summary landed, or -1 when no
// probe has ever succeeded — the staleness signal /metrics and /status
// expose per cluster.
func (m *member) summaryAge() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.probed {
		return -1
	}
	return time.Since(m.lastSum).Seconds()
}

// noteFailure records one failed probe or session transport error and
// reports whether this failure crossed the unhealthy threshold.
func (m *member) noteFailure(downAfter int) (wentDown bool) {
	m.mu.Lock()
	m.failures++
	if m.failures >= downAfter && m.healthy {
		m.healthy = false
		wentDown = true
	}
	m.mu.Unlock()
	return wentDown
}

// closeFeed tears the summary feed down (from the prober after an error, or
// from Close to unblock a pending Recv).
func (m *member) closeFeed() {
	m.connMu.Lock()
	if m.nc != nil {
		_ = m.nc.Close() // best-effort teardown
		m.nc = nil
	}
	m.connMu.Unlock()
}

// probeLoop runs the member's health/load feed until the coordinator closes:
// (re)establish the feed, pull a summary every ProbeEvery, and flip the
// health verdict on consecutive failures. One prober per member — the feed
// connection never sees concurrent use.
func (co *Coordinator) probeLoop(m *member) {
	defer co.wg.Done()
	ticker := time.NewTicker(co.cfg.ProbeEvery)
	defer ticker.Stop()
	var feed *streaming.Conn
	for {
		feed = co.probeOnce(m, feed)
		select {
		case <-co.done:
			if feed != nil {
				m.closeFeed()
			}
			return
		case <-ticker.C:
		}
	}
}

// probeOnce pulls one summary over the feed, dialing it first when absent,
// and returns the feed for the next round (nil after an error, so the next
// round redials). The first request of a feed negotiates the wire protocol,
// exactly like a session Hello: request and reply travel as JSON, the rest
// of the feed is binary. A cluster that answers with a Reject (or a version
// this build does not speak) fails the probe like any transport error.
func (co *Coordinator) probeOnce(m *member, feed *streaming.Conn) *streaming.Conn {
	deadline := time.Now().Add(probeTimeout)
	var req streaming.SummaryReq
	opening := feed == nil
	if opening {
		nc, err := net.DialTimeout("tcp", m.addr, dialTimeout)
		if err != nil {
			co.probeFailed(m, err)
			return nil
		}
		m.connMu.Lock()
		m.nc = nc
		m.connMu.Unlock()
		feed = streaming.NewConn(nc)
		req.Proto = streaming.ProtoBinary3
	}
	_ = m.ncDeadline(deadline)
	sum, err := pullSummary(feed, &req)
	if err == nil && opening {
		if streaming.NegotiateProto(streaming.ProtoBinary3, sum.Proto) == 0 {
			err = fmt.Errorf("coordinator: feed chose unsupported wire protocol version %d", sum.Proto)
		} else {
			feed.SetProto(streaming.ProtoBinary3)
		}
	}
	if err != nil {
		m.closeFeed()
		co.probeFailed(m, err)
		return nil
	}
	m.noteSummary(*sum)
	return feed
}

// pullSummary sends one request over the feed and reads its reply, turning
// anything but a summary — a Reject above all — into the error the probe
// fails with.
func pullSummary(feed *streaming.Conn, req *streaming.SummaryReq) (*streaming.ClusterSummary, error) {
	if err := feed.Send(&streaming.Envelope{Type: streaming.MsgSummaryReq, SummaryReq: req}); err != nil {
		return nil, err
	}
	env, err := feed.Recv()
	if err != nil {
		return nil, err
	}
	switch env.Type {
	case streaming.MsgSummary:
		return env.Summary, nil
	case streaming.MsgReject:
		return nil, fmt.Errorf("coordinator: summary feed rejected: %s", env.Reject.Reason)
	default:
		return nil, fmt.Errorf("coordinator: unexpected feed reply %q", env.Type)
	}
}

// ncDeadline stamps the probe deadline on the feed's transport, tolerating a
// feed torn down concurrently by Close.
func (m *member) ncDeadline(t time.Time) error {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	if m.nc == nil {
		return net.ErrClosed
	}
	return m.nc.SetDeadline(t)
}

// probeFailed folds one probe failure into the member's health state.
func (co *Coordinator) probeFailed(m *member, err error) {
	m.probeFails.Add(1)
	if m.noteFailure(co.cfg.DownAfter) {
		co.markedDown.Add(1)
		co.logf("coordinator: cluster %s (%s) marked down: %v", m.name, m.addr, err)
	}
}
