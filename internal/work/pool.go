// Package work provides the bounded worker pool the tick runs on: the
// replicator's per-peer jobs (each settles its peer's acks, asks its interest
// and builds, frames and checksums its message) shard across one Pool while
// the node itself stays single-threaded
// by contract — Run is synchronous, so by the time it returns every job has
// finished and the owner goroutine is again the only one touching node
// state. Callers do not branch on the pool's width: the same code runs
// inline at width 1 and sharded above it.
//
// What is established about width is that it cannot change a byte of output
// (TestPlanTickWidthInvariant, the cross-width goldens), not that it helps:
// on the 2-vCPU hosts every number in PERFORMANCE.md comes from, each
// PlanTick/workers=N row above 1 has measured as overhead only.
//
// Ownership rules for pooled scratch handed across goroutines (see
// PERFORMANCE.md "The tick pipeline"):
//
//   - A job may write only state owned by its own index (its peer's owed set
//     and interest set, the frame it acquires) plus the per-worker arena
//     keyed by the worker argument.
//   - Everything shared (the Store, the interest grid, policy tables) is
//     read-only for the duration of Run; lazily-built caches must be
//     materialized by the owner before Run starts.
//   - Metric counters are not atomic and must only move on the owner
//     goroutine, outside Run or after it returns.
package work

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool executing parallel-for loops. The zero-cost
// path matters as much as the parallel one: a nil Pool, a 1-worker Pool, and
// a single-element Run all execute inline on the caller's goroutine with no
// synchronization at all.
//
// A Pool is owned by one goroutine: Run and Close must not be called
// concurrently (the node runtime calls both from the simulation goroutine).
// Helper goroutines start lazily on the first parallel Run and exit on
// Close; a Run after Close restarts them, so a stopped-and-restarted node
// keeps its pool.
type Pool struct {
	workers int

	// Per-Run state: the job body, the job count, and the shared cursor
	// workers pull indices from. Published to helpers by the wake-channel
	// send; read back by the owner after wg.Wait.
	fn     func(worker, index int)
	n      int64
	cursor atomic.Int64
	wg     sync.WaitGroup

	wake    chan struct{}
	quit    chan struct{}
	started bool
}

// New creates a pool with the given parallelism. Zero or negative means
// GOMAXPROCS; 1 disables parallelism entirely (every Run executes inline).
// No goroutines are started until the first parallel Run.
func New(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: parallelism}
}

// Workers returns the pool's parallelism bound: the maximum number of
// goroutines a Run may use, and the size per-worker scratch arenas must
// have. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes fn(worker, i) for every i in [0, n), distributing indices
// across up to Workers goroutines, and returns when all calls have finished.
// worker identifies the executing slot in [0, Workers) so jobs can use
// per-worker scratch arenas; the caller's goroutine always participates as
// worker 0. Indices are handed out dynamically (an atomic cursor), so job
// order across workers is unspecified — results must be merged
// deterministically by the caller afterwards.
//
// fn should be built once and reused across Runs: the pool itself allocates
// nothing per call, keeping the tick allocation-flat at every width.
func (p *Pool) Run(n int, fn func(worker, index int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.ensureStarted()
	p.fn, p.n = fn, int64(n)
	p.cursor.Store(0)
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1 // never wake more helpers than there are extra jobs
	}
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.wake <- struct{}{}
	}
	p.loop(0)
	p.wg.Wait()
	p.fn = nil
}

// Close stops the pool's helper goroutines. Safe to call repeatedly and on a
// never-started pool; must not overlap a Run. A later Run restarts the
// helpers.
func (p *Pool) Close() {
	if p == nil || !p.started {
		return
	}
	close(p.quit)
	p.started = false
}

func (p *Pool) ensureStarted() {
	if p.started {
		return
	}
	p.wake = make(chan struct{}, p.workers-1)
	p.quit = make(chan struct{})
	for w := 1; w < p.workers; w++ {
		go p.helper(w, p.wake, p.quit)
	}
	p.started = true
}

// helper receives its channels as arguments rather than reading the pool
// fields: after a Close/restart cycle the fields point at the new
// generation's channels, and a still-exiting old helper must only ever touch
// its own. Wake tokens are all consumed before Close can run (Run is
// synchronous), so an orphaned helper can only see its quit close.
func (p *Pool) helper(w int, wake <-chan struct{}, quit <-chan struct{}) {
	for {
		select {
		case <-wake:
			p.loop(w)
			p.wg.Done()
		case <-quit:
			return
		}
	}
}

// loop pulls indices from the shared cursor until the job list is drained.
func (p *Pool) loop(w int) {
	n := p.n
	for {
		i := p.cursor.Add(1) - 1
		if i >= n {
			return
		}
		p.fn(w, int(i))
	}
}
