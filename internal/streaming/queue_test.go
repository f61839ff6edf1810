package streaming

import (
	"sync"
	"testing"
)

// popSeq pops one message without blocking and returns its batch Seq, or -1
// for the End; ok is false when the queue is empty.
func popSeq(q *outQueue) (seq int64, ok bool) {
	var r frameRec
	var end SessionStat
	isEnd, ok := q.tryPop(&r, &end)
	if isEnd {
		return -1, ok
	}
	return r.seq, ok
}

func TestOutQueueFIFO(t *testing.T) {
	q := newOutQueue(4)
	for i := int64(1); i <= 3; i++ {
		if how := q.push(frameRec{seq: i}); how != pushOK {
			t.Fatalf("push %d: how=%d", i, how)
		}
	}
	for i := int64(1); i <= 3; i++ {
		if seq, ok := popSeq(q); !ok || seq != i {
			t.Fatalf("pop %d: seq %d ok=%v", i, seq, ok)
		}
	}
	if _, ok := popSeq(q); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	// A drained ring starts over at slot 0.
	if q.head != 0 {
		t.Fatalf("drained ring head = %d, want 0", q.head)
	}
}

// TestOutQueueCoalescesNewestFrames pins the first backpressure stage: a
// full queue swaps its newest batch for the incoming one, keeping queue
// depth and the oldest (least stale) entries intact.
func TestOutQueueCoalescesNewestFrames(t *testing.T) {
	q := newOutQueue(2)
	q.push(frameRec{seq: 1})
	q.push(frameRec{seq: 2})
	if how := q.push(frameRec{seq: 3}); how != pushCoalesced {
		t.Fatalf("coalesce: how=%d", how)
	}
	if seq, _ := popSeq(q); seq != 1 {
		t.Fatalf("oldest = %d", seq)
	}
	if seq, _ := popSeq(q); seq != 3 {
		t.Fatalf("newest = %d", seq)
	}
}

// TestOutQueueEndEvictsOldestFrame pins the second stage: an End always
// lands, evicting the oldest batch from a full queue, and is never itself
// displaced.
func TestOutQueueEndEvictsOldestFrame(t *testing.T) {
	q := newOutQueue(2)
	q.push(frameRec{seq: 1})
	q.push(frameRec{seq: 2})
	if dropped := q.pushEnd(SessionStat{SessionID: 5}); !dropped {
		t.Fatal("End into a full queue evicted nothing")
	}
	if seq, _ := popSeq(q); seq != 2 {
		t.Fatalf("surviving batch = %d", seq)
	}
	var r frameRec
	var end SessionStat
	if isEnd, ok := q.tryPop(&r, &end); !isEnd || !ok || end.SessionID != 5 {
		t.Fatalf("end lost: isEnd=%v ok=%v %+v", isEnd, ok, end)
	}
	// A batch arriving after the End is refused: the End stays last.
	q2 := newOutQueue(1)
	if dropped := q2.pushEnd(SessionStat{}); dropped {
		t.Fatal("End into an empty queue reported a drop")
	}
	if how := q2.push(frameRec{seq: 9}); how != pushDropped {
		t.Fatalf("frame after end: how=%d", how)
	}
	if seq, ok := popSeq(q2); !ok || seq != -1 {
		t.Fatalf("end displaced by late frame: seq %d ok=%v", seq, ok)
	}
	if _, ok := popSeq(q2); ok {
		t.Fatal("End popped twice")
	}
}

func TestOutQueueCloseUnblocksAndDrains(t *testing.T) {
	q := newOutQueue(4)
	q.push(frameRec{seq: 1})
	q.pushEnd(SessionStat{})
	q.close()
	var r frameRec
	var end SessionStat
	if isEnd, ok := q.pop(&r, &end); !ok || isEnd || r.seq != 1 {
		t.Fatalf("queued batch lost at close: seq %d isEnd=%v ok=%v", r.seq, isEnd, ok)
	}
	if isEnd, ok := q.pop(&r, &end); !ok || !isEnd {
		t.Fatalf("queued End lost at close: isEnd=%v ok=%v", isEnd, ok)
	}
	if _, ok := q.pop(&r, &end); ok {
		t.Fatal("closed empty queue still popping")
	}
	if how := q.push(frameRec{seq: 2}); how != pushClosed {
		t.Fatalf("push after close: how=%d", how)
	}
	// A consumer blocked in pop must wake on close.
	q2 := newOutQueue(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var r frameRec
		var end SessionStat
		if _, ok := q2.pop(&r, &end); ok {
			t.Error("blocked pop returned a message from an empty queue")
		}
	}()
	q2.close()
	wg.Wait()
}
