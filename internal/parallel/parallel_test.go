package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		hits := make([]atomic.Int64, n)
		For(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	ran := false
	For(4, 0, func(int) { ran = true })
	For(4, -3, func(int) { ran = true })
	if ran {
		t.Error("body ran for empty index space")
	}
}

func TestForBoundedConcurrency(t *testing.T) {
	const workers, n = 3, 64
	var cur, peak atomic.Int64
	For(workers, n, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent bodies, limit %d", p, workers)
	}
}

func TestForPanicPropagation(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic did not propagate")
		}
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", v)
		}
		if wp.Value != "boom" {
			t.Errorf("panic value = %v", wp.Value)
		}
		if wp.Stack == "" {
			t.Error("no worker stack captured")
		}
		if wp.Error() == "" {
			t.Error("empty Error rendering")
		}
	}()
	For(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestForSerialPanicPropagation(t *testing.T) {
	defer func() {
		if v := recover(); v == nil {
			t.Fatal("serial panic did not propagate")
		}
	}()
	For(1, 3, func(i int) { panic("serial boom") })
}

func TestChunkBoundsTile(t *testing.T) {
	// The fixed decomposition: ChunkSize-wide chunks from 0, the last one
	// short, tiling [0, n) exactly.
	const n = ChunkSize*3 + 17
	type span struct{ lo, hi int }
	ref := make([]span, NumChunks(n))
	for c := range ref {
		lo, hi := ChunkBounds(c, n)
		ref[c] = span{lo, hi}
	}
	// Chunks tile [0, n) exactly.
	covered := 0
	for c, s := range ref {
		if s.lo != c*ChunkSize {
			t.Errorf("chunk %d starts at %d", c, s.lo)
		}
		covered += s.hi - s.lo
	}
	if covered != n {
		t.Errorf("chunks cover %d of %d indices", covered, n)
	}
	if NumChunks(0) != 0 || NumChunks(-1) != 0 {
		t.Error("NumChunks of empty space should be 0")
	}
}

func TestGroupRunsAllTasks(t *testing.T) {
	g := NewGroup(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		g.Go(func() error { n.Add(1); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d of 100 tasks", n.Load())
	}
}

func TestGroupFirstErrorWins(t *testing.T) {
	g := NewGroup(2)
	sentinel := errors.New("sentinel")
	var mu sync.Mutex
	var order []int
	for i := 0; i < 8; i++ {
		g.Go(func() error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			if i%2 == 1 {
				return sentinel
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, sentinel) {
		t.Errorf("Wait = %v, want sentinel", err)
	}
}

func TestGroupBoundedConcurrency(t *testing.T) {
	const workers = 2
	g := NewGroup(workers)
	var cur, peak atomic.Int64
	for i := 0; i < 20; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, limit %d", p, workers)
	}
}

func TestGroupPanicPropagation(t *testing.T) {
	g := NewGroup(3)
	for i := 0; i < 10; i++ {
		g.Go(func() error {
			if i == 4 {
				panic("task boom")
			}
			return nil
		})
	}
	defer func() {
		v := recover()
		wp, ok := v.(*WorkerPanic)
		if !ok || wp.Value != "task boom" {
			t.Errorf("recovered %v, want WorkerPanic(task boom)", v)
		}
	}()
	g.Wait()
	t.Fatal("Wait returned instead of panicking")
}
