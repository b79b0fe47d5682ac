// Package work provides the bounded worker pool the tick runs on: the
// replicator's per-peer jobs (each settles its peer's acks, asks its interest
// and builds, frames and checksums its message) shard across one Pool while
// the node itself stays single-threaded
// by contract — Run is synchronous, so by the time it returns every job has
// finished and the owner goroutine is again the only one touching node
// state. Callers do not branch on the pool's width: the same code runs
// inline at width 1 and sharded above it.
//
// Run gives each worker one contiguous share of the jobs (helper w always
// owns share w), drained from the front, then steals from the back of the
// others. While the job count holds, index i thus runs on the same worker
// tick after tick, bar a few steals at a share's tail, and the per-peer state
// it walks (owed set, interest bits, send log) stays in that core's cache.
//
// Width cannot change a byte of output (TestPlanTickWidthInvariant, the
// cross-width goldens); what it is worth is measured in PERFORMANCE.md
// "Measured: one job per peer" and "Measured: each peer's build keeps its
// core".
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

	// Per-Run state: the job body and the shares in use (shares[:parts]).
	// Published to helpers by the wake-channel sends; read back by the owner
	// after wg.Wait.
	fn     func(worker, index int)
	parts  int
	shares []share
	wg     sync.WaitGroup

	wake    []chan struct{} // wake[w] wakes helper w; wake[0] is unused
	quit    chan struct{}
	started bool
}

// share is one worker's contiguous run of job indices [lo, hi), packed into
// one word (lo in the low half), so a take from either end is one CAS and no
// index is handed out twice. Within a Run lo only rises and hi only falls, so
// a CAS cannot mistake an old word for a new one. Padded to a cache line, so
// workers draining different shares write different lines.
type share struct {
	span atomic.Uint64
	_    [56]byte
}

// take removes the lowest index left (front) or the highest (!front).
func (s *share) take(front bool) (int, bool) {
	for {
		old := s.span.Load()
		lo, hi := uint32(old), uint32(old>>32)
		if lo >= hi {
			return 0, false
		}
		next, i := old+1, lo
		if !front {
			next, i = old-1<<32, hi-1
		}
		if s.span.CompareAndSwap(old, next) {
			return int(i), true
		}
	}
}

// New creates a pool with the given parallelism. Zero or negative means
// GOMAXPROCS; 1 disables parallelism entirely (every Run executes inline).
// No goroutines are started until the first parallel Run.
func New(parallelism int) *Pool {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: parallelism, shares: make([]share, parallelism)}
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
// worker 0. [0, n) is split into one contiguous share per worker taking
// part, in worker order; each worker runs its own share front to back, then
// steals from the back of the others. Which worker runs an index is a
// matter of timing at the shares' tails, so results must be merged
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
	if uint64(n) > 1<<32-1 {
		panic("work: Run of more than 2^32-1 jobs")
	}
	p.ensureStarted()
	helpers := min(p.workers-1, n-1) // never wake more helpers than there are extra jobs
	p.fn, p.parts = fn, helpers+1
	for w := 0; w < p.parts; w++ {
		lo, hi := w*n/p.parts, (w+1)*n/p.parts
		p.shares[w].span.Store(uint64(hi)<<32 | uint64(lo))
	}
	p.wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		p.wake[w] <- struct{}{}
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
	p.wake = make([]chan struct{}, p.workers)
	p.quit = make(chan struct{})
	for w := 1; w < p.workers; w++ {
		p.wake[w] = make(chan struct{}, 1)
		go p.helper(w, p.wake[w], p.quit)
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

// loop runs worker w's share from the front, then steals from the back of
// every other share, visiting them in worker order from w+1.
func (p *Pool) loop(w int) {
	for k := 0; k < p.parts; k++ {
		s := &p.shares[(w+k)%p.parts]
		for i, ok := s.take(k == 0); ok; i, ok = s.take(k == 0) {
			p.fn(w, i)
		}
	}
}
