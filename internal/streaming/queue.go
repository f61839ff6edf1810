package streaming

import "sync"

// frameRec is one queued frame batch: what the tick walk knows of a
// session's second. The session's writer turns it into the wire FrameBatch
// (see assemble), so the queue holds no pointers and no frame arrays.
type frameRec struct {
	seq          int64
	fps          float64
	kbps         float64
	stage        int
	loading      bool
	echoSeq      int64
	echoSentAtMS int64
}

// assemble fills f with the record's second of video, encoding its
// per-frame records into f's reused Frames array. SessionID is the caller's.
func (r *frameRec) assemble(f *FrameBatch) {
	f.Seq = r.seq
	f.FPS = r.fps
	f.BitrateKbps = r.kbps
	f.Stage = r.stage
	f.Loading = r.loading
	f.EchoSeq = r.echoSeq
	f.EchoSentAtMS = r.echoSentAtMS
	f.Frames = DefaultEncoder().AppendFrames(f.Frames[:0], r.fps, r.kbps)
}

// outQueue is one session's bounded outbound delivery queue: the tick walk
// pushes frame records and the session's End, the session's writer
// goroutine pops and sends them. The queue never blocks the producer and
// never grows — when a slow client falls a full queue behind, backpressure
// resolves against the stream, not the server:
//
//  1. coalesce: a batch meeting a full queue replaces the newest queued one
//     (the old snapshot is stale the moment a fresh one exists);
//  2. drop-oldest: the End meeting a full queue evicts the oldest batch.
//
// The End has a slot of its own behind every batch: it is never coalesced
// or dropped, and a batch pushed after it is refused. Clients observe the
// policy as gaps in FrameBatch.Seq.
type outQueue struct {
	// The fields every push and pop reads come first, so they share the
	// struct's first cache lines; the End, read once, comes last.
	mu     sync.Mutex
	closed bool
	hasEnd bool       // the End is queued behind the ring
	head   int        // index of the oldest batch
	n      int        // batches in the ring
	buf    []frameRec // ring buffer; head returns to 0 whenever it drains
	nempty sync.Cond  // signaled when a message or closure arrives

	end SessionStat
}

func newOutQueue(capacity int) *outQueue {
	q := &outQueue{buf: make([]frameRec, capacity)}
	q.nempty.L = &q.mu
	return q
}

// slot wraps a ring index in [0, 2·len(buf)) without a division.
func (q *outQueue) slot(i int) int {
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// push enqueues one batch under the backpressure policy above and reports
// how it resolved: pushOK, pushCoalesced, pushDropped (refused behind the
// End) or pushClosed.
func (q *outQueue) push(r frameRec) pushResult {
	q.mu.Lock()
	how := pushOK
	switch {
	case q.closed:
		how = pushClosed
	case q.hasEnd:
		how = pushDropped
	case q.n < len(q.buf):
		q.buf[q.slot(q.head+q.n)] = r
		q.n++
	default:
		q.buf[q.slot(q.head+q.n-1)] = r
		how = pushCoalesced
	}
	q.mu.Unlock()
	q.nempty.Signal()
	return how
}

// pushEnd enqueues the session's End behind every queued batch. An End that
// meets a full queue evicts the oldest batch and reports it as dropped. A
// second End, or one pushed to a closed queue, is ignored.
func (q *outQueue) pushEnd(st SessionStat) (dropped bool) {
	q.mu.Lock()
	if !q.closed && !q.hasEnd {
		if q.n == len(q.buf) {
			q.head = q.slot(q.head + 1)
			q.n--
			dropped = true
		}
		q.end, q.hasEnd = st, true
	}
	q.mu.Unlock()
	q.nempty.Signal()
	return dropped
}

// pop blocks until a message is available or the queue is closed and
// drained; ok is false only in the latter case. The oldest batch is copied
// to *r; once no batch is left, the End is copied to *end, isEnd is true and
// the queue closes: nothing follows the End.
func (q *outQueue) pop(r *frameRec, end *SessionStat) (isEnd, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.hasEnd && !q.closed {
		q.nempty.Wait()
	}
	return q.take(r, end)
}

// tryPop is pop without blocking; ok is false when the queue is empty.
func (q *outQueue) tryPop(r *frameRec, end *SessionStat) (isEnd, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(r, end)
}

// take removes the next message for pop and tryPop, which hold q.mu.
func (q *outQueue) take(r *frameRec, end *SessionStat) (isEnd, ok bool) {
	switch {
	case q.n > 0:
		*r = q.buf[q.head]
		q.head = q.slot(q.head + 1)
		if q.n--; q.n == 0 {
			q.head = 0
		}
		return false, true
	case q.hasEnd:
		*end = q.end
		q.hasEnd, q.closed = false, true
		return true, true
	}
	return false, false
}

// close marks the queue closed and wakes the consumer. Queued messages stay
// poppable so an End already enqueued is still delivered.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nempty.Broadcast()
}

// pushResult describes how a push resolved.
type pushResult uint8

const (
	pushOK pushResult = iota
	pushCoalesced
	pushDropped
	pushClosed
)
