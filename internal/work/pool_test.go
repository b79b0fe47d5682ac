package work

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunCoversAllIndices drives pools of several widths over job lists of
// awkward sizes and checks every index runs exactly once.
func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			p.Run(n, func(w, i int) {
				if w < 0 || w >= p.Workers() {
					t.Errorf("workers=%d n=%d: worker index %d out of range", workers, n, w)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestPerWorkerArenasDisjoint asserts the worker index is a safe key for
// scratch arenas: concurrent jobs bumping per-worker counters must account
// for every job without data races (run under -race in CI).
func TestPerWorkerArenasDisjoint(t *testing.T) {
	p := New(8)
	defer p.Close()
	const n = 4096
	arenas := make([][]int, p.Workers())
	for w := range arenas {
		arenas[w] = make([]int, 1)
	}
	p.Run(n, func(w, _ int) { arenas[w][0]++ })
	total := 0
	for _, a := range arenas {
		total += a[0]
	}
	if total != n {
		t.Fatalf("per-worker counters sum to %d, want %d", total, n)
	}
}

// TestNilAndSerialPoolsRunInline covers the inline paths: a nil pool and a
// 1-worker pool both execute on the caller goroutine in index order.
func TestNilAndSerialPoolsRunInline(t *testing.T) {
	for _, p := range []*Pool{nil, New(1)} {
		var order []int
		p.Run(5, func(w, i int) {
			if w != 0 {
				t.Fatalf("inline run used worker %d", w)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("inline run out of order: %v", order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("inline run did %d of 5 jobs", len(order))
		}
		if p.Workers() != 1 {
			t.Fatalf("serial pool Workers = %d", p.Workers())
		}
	}
}

// TestCloseAndRestart stops a pool's helpers and checks a later Run still
// completes (helpers are respawned lazily), matching the node runtime's
// Stop-then-Start lifecycle.
func TestCloseAndRestart(t *testing.T) {
	p := New(4)
	var n atomic.Int32
	p.Run(100, func(_, _ int) { n.Add(1) })
	p.Close()
	p.Close() // idempotent
	p.Run(100, func(_, _ int) { n.Add(1) })
	p.Close()
	if got := n.Load(); got != 200 {
		t.Fatalf("jobs run across restart = %d, want 200", got)
	}
}

// TestRunAllocationFlat pins the pool's own steady-state cost: a reused job
// closure must run with zero allocations per Run at every width.
func TestRunAllocationFlat(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		sink := make([]int64, 64)
		fn := func(w, i int) { sink[i]++ }
		p.Run(len(sink), fn) // warm helper goroutines
		allocs := testing.AllocsPerRun(100, func() { p.Run(len(sink), fn) })
		p.Close()
		if allocs > 0 {
			t.Errorf("workers=%d: %v allocs per Run, want 0", workers, allocs)
		}
	}
}

// TestRunHandsEachWorkerItsShare pins the hand-out: worker w owns the w-th
// contiguous share of the jobs. With one job per worker and every job held
// on a barrier until all n are in flight, no worker can finish early and
// steal, so index w must run on worker w, Run after Run. A second case, with
// three jobs a worker and no barrier, lets the workers steal and checks every
// index still runs exactly once (run under -race in CI).
func TestRunHandsEachWorkerItsShare(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		p := New(workers)
		ran := make([]int, workers)
		for round := 0; round < 20; round++ {
			var arrived atomic.Int32
			p.Run(workers, func(w, i int) {
				arrived.Add(1)
				for arrived.Load() < int32(workers) {
					runtime.Gosched()
				}
				ran[i] = w
			})
			for i, w := range ran {
				if w != i {
					t.Fatalf("workers=%d round %d: index %d ran on worker %d, want %d", workers, round, i, w, i)
				}
			}
		}

		n := 3 * workers
		hits := make([]atomic.Int32, n)
		for round := 0; round < 20; round++ {
			p.Run(n, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("workers=%d: worker index %d out of range", workers, w)
				}
				hits[i].Add(1)
			})
		}
		for i := range hits {
			if got := hits[i].Load(); got != 20 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times in 20 Runs", workers, n, i, got)
			}
		}
		p.Close()
	}
}
