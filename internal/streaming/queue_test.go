package streaming

import (
	"sync"
	"testing"
)

func framesEnvSeq(seq int64) *Envelope {
	return &Envelope{Type: MsgFrames, Frames: &FrameBatch{Seq: seq}}
}

func TestOutQueueFIFO(t *testing.T) {
	q := newOutQueue(4)
	for i := int64(1); i <= 3; i++ {
		if displaced, how := q.push(framesEnvSeq(i)); displaced != nil || how != pushOK {
			t.Fatalf("push %d: displaced=%v how=%d", i, displaced, how)
		}
	}
	for i := int64(1); i <= 3; i++ {
		e, ok := q.tryPop()
		if !ok || e.Frames.Seq != i {
			t.Fatalf("pop %d: %+v ok=%v", i, e, ok)
		}
	}
	if _, ok := q.tryPop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestOutQueueCoalescesNewestFrames pins the first backpressure stage: a
// full queue whose newest entry is a frame batch swaps it for the incoming
// one, keeping queue depth and the oldest (least stale) entries intact.
func TestOutQueueCoalescesNewestFrames(t *testing.T) {
	q := newOutQueue(2)
	q.push(framesEnvSeq(1))
	q.push(framesEnvSeq(2))
	displaced, how := q.push(framesEnvSeq(3))
	if how != pushCoalesced || displaced == nil || displaced.Frames.Seq != 2 {
		t.Fatalf("coalesce: displaced=%+v how=%d", displaced, how)
	}
	if e, _ := q.tryPop(); e.Frames.Seq != 1 {
		t.Fatalf("oldest = %d", e.Frames.Seq)
	}
	if e, _ := q.tryPop(); e.Frames.Seq != 3 {
		t.Fatalf("newest = %d", e.Frames.Seq)
	}
}

// TestOutQueueEndEvictsOldestFrame pins the second stage: an End always
// lands, evicting the oldest frame batch, and is never itself displaced.
func TestOutQueueEndEvictsOldestFrame(t *testing.T) {
	q := newOutQueue(2)
	q.push(framesEnvSeq(1))
	q.push(framesEnvSeq(2))
	end := &Envelope{Type: MsgEnd, End: &SessionStat{SessionID: 5}}
	displaced, how := q.push(end)
	if how != pushDropped || displaced == nil || displaced.Frames.Seq != 1 {
		t.Fatalf("end push: displaced=%+v how=%d", displaced, how)
	}
	if e, _ := q.tryPop(); e.Frames.Seq != 2 {
		t.Fatalf("surviving frame = %+v", e)
	}
	if e, _ := q.tryPop(); e.Type != MsgEnd {
		t.Fatalf("end lost: %+v", e)
	}
	// A frame batch arriving after the End coalesces with nothing (newest
	// is the End) and evicts nothing (no frames queued): it is refused.
	q2 := newOutQueue(1)
	q2.push(&Envelope{Type: MsgEnd, End: &SessionStat{}})
	displaced, how = q2.push(framesEnvSeq(9))
	if how != pushDropped || displaced == nil || displaced.Type != MsgFrames {
		t.Fatalf("frame after end: displaced=%+v how=%d", displaced, how)
	}
	if e, _ := q2.tryPop(); e.Type != MsgEnd {
		t.Fatalf("end displaced by late frame: %+v", e)
	}
}

func TestOutQueueCloseUnblocksAndDrains(t *testing.T) {
	q := newOutQueue(4)
	q.push(framesEnvSeq(1))
	q.close()
	if e, ok := q.pop(); !ok || e.Frames.Seq != 1 {
		t.Fatalf("queued message lost at close: %+v ok=%v", e, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("closed empty queue still popping")
	}
	if displaced, how := q.push(framesEnvSeq(2)); how != pushClosed || displaced == nil {
		t.Fatalf("push after close: how=%d", how)
	}
	// A consumer blocked in pop must wake on close.
	q2 := newOutQueue(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := q2.pop(); ok {
			t.Error("blocked pop returned a message from an empty queue")
		}
	}()
	q2.close()
	wg.Wait()
}
