// Package vclock implements the deterministic discrete-event simulation core
// that every experiment in this repository runs on.
//
// A Sim owns a virtual clock and a priority queue of timed events. Components
// schedule callbacks at absolute or relative virtual times; Run drains events
// in time order, advancing the clock instantaneously between them. Determinism
// is guaranteed by (a) virtual time, (b) a stable tie-break on insertion order
// for events at equal times, and (c) the seeded RNG accessor.
//
// The paper's latency-sensitive claims (§III-C: the 100 ms noticeability
// threshold, hundreds-of-ms poorly-peered RTTs) are only reproducible with a
// clock that is immune to host scheduling jitter, which is why the entire
// pipeline — sensors, edge, links, cloud, clients — is event-driven.
package vclock

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run when the simulation was stopped explicitly.
var ErrStopped = errors.New("vclock: simulation stopped")

// event is a scheduled callback. The callback runs with the clock set to the
// event's due time.
//
// Every event lives one way: it is drawn from the simulator's freelist when
// scheduled and goes back to it when it fires (one-shot) or is cancelled, and
// each return bumps its generation. A caller that must cancel holds a Timer,
// which names the event together with the generation it was scheduled under,
// so a stale Timer never reaches a recycled event. A periodic event (a
// ticker) is never recycled while it runs: Step puts it back on the queue one
// period later.
type event struct {
	due    time.Duration
	seq    uint64 // insertion order, tie-break for equal due times
	fn     func(any)
	arg    any
	period time.Duration // > 0 for a ticker
	index  int           // heap index, -1 when popped or cancelled
	gen    uint64        // incremented each recycle; guards stale Timers
}

// Timer is a handle on a scheduled event, returned by AfterCall and taken by
// Cancel. The zero Timer is valid and cancels nothing.
type Timer struct {
	e   *event
	gen uint64
}

// call is the callback of every At/After event: the caller's func() rides in
// arg (a func value boxes into any without allocating).
func call(fn any) { fn.(func())() }

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulator. The zero value is not usable; create one
// with New. Sim is not safe for concurrent use: the simulation model is
// single-threaded by design (determinism), and all callbacks run on the
// goroutine that calls Run or Step.
type Sim struct {
	now     time.Duration
	queue   eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64

	// free recycles events so a steady-state scheduler allocates no timer
	// state per event.
	free []*event
}

// New creates a simulator with virtual time zero and an RNG seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time as an offset from simulation start.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulation's seeded RNG. All model randomness must come
// from here so runs are reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events waiting in the queue.
func (s *Sim) Pending() int { return len(s.queue) }

// schedule is the single enqueue path: it draws an event from the freelist
// (or allocates one when the list is empty) and queues it.
func (s *Sim) schedule(due time.Duration, fn func(any), arg any) *event {
	if due < s.now {
		panic(fmt.Sprintf("vclock: scheduling at %v before now %v", due, s.now))
	}
	var e *event
	if k := len(s.free); k > 0 {
		e = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		e = &event{}
	}
	e.due, e.seq, e.fn, e.arg = due, s.seq, fn, arg
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// recycle returns a popped or cancelled event to the freelist, releasing its
// callback state and bumping the generation so no earlier Timer reaches it.
func (s *Sim) recycle(e *event) {
	e.fn, e.arg, e.period = nil, nil, 0
	e.gen++
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute virtual time due. Scheduling in the past
// (before Now) is an error in the model and panics: it always indicates a bug
// in a component rather than a recoverable condition.
func (s *Sim) At(due time.Duration, fn func()) {
	s.schedule(due, call, fn)
}

// After schedules fn to run delay after the current virtual time.
func (s *Sim) After(delay time.Duration, fn func()) {
	s.At(s.now+max(delay, 0), fn)
}

// AfterCall schedules fn(arg) delay after the current virtual time and
// returns a Timer that cancels it. Passing state through arg (a pointer boxes
// allocation-free) instead of capturing it keeps the callback closure-free.
func (s *Sim) AfterCall(delay time.Duration, fn func(any), arg any) Timer {
	e := s.schedule(s.now+max(delay, 0), fn, arg)
	return Timer{e, e.gen}
}

// Cancel removes the timer's event from the queue and recycles it. It is a
// no-op for the zero Timer and for a stale one: an event that fired or was
// cancelled has been recycled, so its generation no longer matches.
func (s *Sim) Cancel(t Timer) {
	if t.e == nil || t.e.gen != t.gen {
		return
	}
	heap.Remove(&s.queue, t.e.index)
	s.recycle(t.e)
}

// Stop makes Run return ErrStopped after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Step executes the single earliest event, advancing the clock to its due
// time. It reports false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.due
	s.fired++
	fn, arg := e.fn, e.arg
	// Requeue or recycle before running the callback: a ticker's next tick is
	// queued before fn runs, so fn may stop it, and a callback that schedules
	// at once reuses a one-shot's event.
	if e.period > 0 {
		e.due += e.period
		e.seq = s.seq
		s.seq++
		heap.Push(&s.queue, e)
	} else {
		s.recycle(e)
	}
	fn(arg)
	return true
}

// Run executes events until the queue is empty, until virtual time would
// exceed until (events due later stay queued), or until Stop is called.
// It returns nil on normal completion and ErrStopped if stopped.
func (s *Sim) Run(until time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		if s.queue[0].due > until {
			// Leave future events queued; advance the clock to the horizon so
			// repeated Run calls observe contiguous time.
			s.now = until
			return nil
		}
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Sim) RunAll() error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		s.Step()
	}
	return nil
}

// Period returns the tick period of a rate in hertz, and false when it is no
// positive Duration: a NaN or infinite rate, one above 1e9 Hz, or one too low.
func Period(hz float64) (time.Duration, bool) {
	if p := float64(time.Second) / hz; p >= 1 && p < math.MaxInt64 {
		return time.Duration(p), true
	}
	return 0, false
}

// Ticker invokes fn every interval of virtual time, starting one interval
// from now, until cancelled. It returns a cancel function. The ticker is one
// periodic event that Step requeues before fn runs, so fn may safely stop the
// ticker, and a steady-state ticker allocates nothing per tick.
func (s *Sim) Ticker(interval time.Duration, fn func()) (cancel func()) {
	if interval <= 0 {
		panic("vclock: non-positive ticker interval")
	}
	e := s.schedule(s.now+interval, call, fn)
	e.period = interval
	t := Timer{e, e.gen}
	return func() { s.Cancel(t) }
}
