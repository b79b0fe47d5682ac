package vclock

import (
	"errors"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie-break violated: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.At(100*time.Millisecond, func() {
		s.After(50*time.Millisecond, func() { at = s.Now() })
	})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 150*time.Millisecond {
		t.Errorf("nested After fired at %v, want 150ms", at)
	}
}

func TestRunHorizon(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(10*time.Millisecond, func() { fired++ })
	s.At(500*time.Millisecond, func() { fired++ })
	if err := s.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if s.Now() != 100*time.Millisecond {
		t.Errorf("Now = %v, want horizon 100ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	// Continuing past the horizon fires the remaining event.
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d after second Run, want 2", fired)
	}
}

func TestRunIdlesToHorizon(t *testing.T) {
	s := New(1)
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Second {
		t.Errorf("Now = %v, want 1s", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.AfterCall(10*time.Millisecond, func(any) { fired = true }, nil)
	s.Cancel(tm)
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after cancel, want 0", s.Pending())
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	// Double cancel and zero-Timer cancel are no-ops.
	s.Cancel(tm)
	s.Cancel(Timer{})
}

func TestStop(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(time.Millisecond, func() { fired++; s.Stop() })
	s.At(2*time.Millisecond, func() { fired++ })
	err := s.RunAll()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var times []time.Duration
	var cancel func()
	cancel = s.Ticker(10*time.Millisecond, func() {
		times = append(times, s.Now())
		if len(times) == 3 {
			cancel()
		}
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("ticks = %d, want 3", len(times))
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if times[i] != want*time.Millisecond {
			t.Errorf("tick %d at %v, want %vms", i, times[i], want)
		}
	}
}

func TestTickerBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero interval did not panic")
		}
	}()
	New(1).Ticker(0, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := New(99)
		var out []float64
		s.Ticker(time.Millisecond, func() {
			out = append(out, s.Rand().Float64())
			if len(out) >= 100 {
				s.Stop()
			}
		})
		_ = s.Run(time.Second)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFiredCounter(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if s.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", s.Fired())
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

func TestAfterCallEventCancel(t *testing.T) {
	s := New(1)
	fired := 0
	tm := s.AfterCall(10*time.Millisecond, func(any) { fired++ }, nil)
	s.Cancel(tm)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("cancelled event fired %d times", fired)
	}
	// Cancelling again with the stale handle must be a no-op even after the
	// event has been recycled into a new timer.
	tm2 := s.AfterCall(10*time.Millisecond, func(any) { fired++ }, nil)
	if tm2.e != tm.e {
		t.Fatalf("expected the cancelled event to be recycled")
	}
	s.Cancel(tm) // stale generation: must not cancel tm2
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("recycled timer fired %d times, want 1", fired)
	}
	s.Cancel(tm2) // already fired: no-op

	// A Timer whose event fired and was reused by At cancels nothing.
	s.At(s.Now()+time.Millisecond, func() { fired++ })
	if s.queue[0] != tm2.e {
		t.Fatalf("expected At to reuse the fired event")
	}
	s.Cancel(tm2)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("At on a reused event fired %d times in total, want 2", fired)
	}

	// A ticker cancelled from outside its fn stops at once.
	ticks := 0
	cancel := s.Ticker(10*time.Millisecond, func() { ticks++ })
	if err := s.Run(s.Now() + 25*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cancel()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling the ticker, want 0", s.Pending())
	}
	if err := s.Run(s.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
	cancel() // a second cancel is a no-op
}

func TestAfterCallEventFiresWithArg(t *testing.T) {
	s := New(1)
	var got any
	arg := new(int)
	s.AfterCall(5*time.Millisecond, func(a any) { got = a }, arg)
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != arg {
		t.Fatalf("callback arg = %v, want %v", got, arg)
	}
}

// TestScheduleAllocationFree pins the one event lifetime: a one-shot At and a
// running ticker's tick reuse recycled events, so neither allocates.
func TestScheduleAllocationFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	if n := testing.AllocsPerRun(100, func() {
		s.At(s.Now()+1, fn)
		s.Step()
	}); n != 0 {
		t.Errorf("At+Step allocs = %v, want 0", n)
	}
	cancel := s.Ticker(time.Millisecond, fn)
	defer cancel()
	if n := testing.AllocsPerRun(100, func() { s.Step() }); n != 0 {
		t.Errorf("ticker Step allocs = %v, want 0", n)
	}
}
