// Package parallel is the repo's shared worker-pool substrate: bounded
// fan-out over units that share nothing — games in the offline pass (Group),
// K values in the clustering sweep and experiment cells (For) — plus the
// fixed chunk decomposition the K-means steps walk serially. Nothing beneath
// those units fans out: a cluster's advance loop, the coordinator's routing
// scan and one game's training each run on their caller's goroutine, and
// import guards in the platform package's tests keep this package out of
// them.
//
// Two properties hold everywhere:
//
//   - Bounded concurrency: no call ever runs more than the requested number
//     of goroutines. Training fans out one level deep: a game handed to a
//     worker trains serially inside it.
//   - Determinism: work is decomposed the same way regardless of the worker
//     count. For-loops partition the index space identically at workers=1
//     and workers=64, and chunk boundaries (ChunkBounds) depend only on the
//     index space, so floating-point reductions that merge per-chunk
//     partials in chunk order give one result.
//
// Panics inside workers are captured and re-raised on the calling
// goroutine (wrapped in a *WorkerPanic carrying the original value and the
// worker's stack), so a bug in a worker fails the run loudly instead of
// crashing the process from an anonymous goroutine.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: n >= 1 is used as-is, and
// anything else (0, negative) resolves to runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerPanic wraps a panic that escaped a worker goroutine; For and Group
// re-raise it on the caller's goroutine.
type WorkerPanic struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at panic time.
	Stack string
}

// Error renders the panic; WorkerPanic is re-raised via panic, not returned,
// but implementing error keeps recovered values printable.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.Value, p.Stack)
}

// For runs body(i) for every i in [0, n), using at most workers goroutines
// (Workers-normalized). Indices are handed out via an atomic counter, so the
// set of executed indices is always exactly [0, n) regardless of the worker
// count; body must therefore be independent per index. A panic in any body
// call is re-raised on the caller once all workers have stopped.
func For(workers, n int, body func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[WorkerPanic]
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer capture(&panicked)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// ChunkSize is the fixed granularity of the default chunk decomposition. It
// is a constant, so a caller that sums floating-point partials per chunk and
// merges them in chunk order gets one result however the chunks are run.
const ChunkSize = 256

// NumChunks returns how many ChunkSize-wide chunks an index space of size n
// decomposes into; callers size per-chunk partial-result slices with it.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the half-open index range [lo, hi) of chunk c in an
// index space of size n, under the fixed-ChunkSize decomposition.
func ChunkBounds(c, n int) (lo, hi int) {
	lo = c * ChunkSize
	hi = lo + ChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Group runs error-returning tasks with bounded concurrency: an errgroup
// shaped for this repo (first error wins, worker panics re-raised on Wait).
type Group struct {
	sem      chan struct{}
	wg       sync.WaitGroup
	errOnce  sync.Once
	err      error
	panicked atomic.Pointer[WorkerPanic]
}

// NewGroup returns a Group that runs at most workers (Workers-normalized)
// tasks concurrently; further Go calls block until a slot frees.
func NewGroup(workers int) *Group {
	return &Group{sem: make(chan struct{}, Workers(workers))}
}

// Go schedules one task, blocking while the group is at its concurrency
// limit. Tasks scheduled after the limit is reached still all run; Go only
// applies backpressure, it never drops work.
func (g *Group) Go(task func() error) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() {
			<-g.sem
			g.wg.Done()
		}()
		defer capture(&g.panicked)
		if err := task(); err != nil {
			g.errOnce.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every scheduled task finished, then re-raises the first
// worker panic (if any) and returns the first task error (if any).
func (g *Group) Wait() error {
	g.wg.Wait()
	if p := g.panicked.Load(); p != nil {
		panic(p)
	}
	return g.err
}

// capture stores the first escaping panic so the spawner can re-raise it.
func capture(dst *atomic.Pointer[WorkerPanic]) {
	if v := recover(); v != nil {
		buf := make([]byte, 16<<10)
		buf = buf[:runtime.Stack(buf, false)]
		p := &WorkerPanic{Value: v, Stack: string(buf)}
		dst.CompareAndSwap(nil, p)
	}
}
