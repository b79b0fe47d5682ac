package pose

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"metaclass/internal/mathx"
)

// sliceOracle is the trivially correct playout buffer the ring is checked
// against: a time-sorted slice that inserts by shifting and trims from the
// front. It states the rules (sorted, duplicate stamp replaces, oldest
// evicted when full — the new sample itself when it is the oldest).
type sliceOracle struct {
	samples []Pose
	cap     int
	delay   time.Duration

	interpolated, extrapolated uint64
}

func (o *sliceOracle) push(p Pose) bool {
	n := len(o.samples)
	fresh := n == 0 || p.Time > o.samples[n-1].Time
	i := n
	for i > 0 && o.samples[i-1].Time > p.Time {
		i--
	}
	if i > 0 && o.samples[i-1].Time == p.Time {
		o.samples[i-1] = p
		return false
	}
	o.samples = append(o.samples, Pose{})
	copy(o.samples[i+1:], o.samples[i:])
	o.samples[i] = p
	if len(o.samples) > o.cap {
		o.samples = append(o.samples[:0], o.samples[1:]...)
	}
	return fresh
}

func (o *sliceOracle) newest() (Pose, bool) {
	if len(o.samples) == 0 {
		return Pose{}, false
	}
	return o.samples[len(o.samples)-1], true
}

func (o *sliceOracle) sample(now time.Duration) (Pose, bool) {
	n := len(o.samples)
	if n == 0 {
		return Pose{}, false
	}
	target := now - o.delay
	if target >= o.samples[n-1].Time {
		o.extrapolated++
		return Linear{}.Predict(o.samples[n-1], target).At(now), true
	}
	if target <= o.samples[0].Time {
		return o.samples[0].At(now), true
	}
	hi := 1
	for o.samples[hi].Time <= target {
		hi++
	}
	a, c := o.samples[hi-1], o.samples[hi]
	o.interpolated++
	return LerpPose(a, c, float64(target-a.Time)/float64(c.Time-a.Time)).At(now), true
}

// TestInterpBufferMatchesSliceModel drives random operation sequences through
// the ring and the oracle and requires every observable to agree after every
// step. Stamps advance by a millisecond per step on average, so head wraps
// hundreds of times at capacity 64 and thousands at 2 and 4.
func TestInterpBufferMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{2, 4, 64} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			const delay = 20 * time.Millisecond
			rng := rand.New(rand.NewSource(int64(capacity)))
			b := NewInterpBuffer(delay, capacity, nil)
			o := &sliceOracle{cap: capacity, delay: delay}
			span := time.Duration(capacity+2) * time.Millisecond
			clock := time.Duration(0)
			for step := 0; step < 40000; step++ {
				var stamp time.Duration
				op := "push"
				switch r := rng.Intn(100); {
				case r < 55: // in order
					clock += time.Duration(1+rng.Intn(3)) * time.Millisecond
					stamp = clock
				case r < 70: // late arrival or duplicate, inside the buffered span
					stamp = clock - time.Duration(rng.Int63n(int64(span)))/time.Millisecond*time.Millisecond
				case r < 75: // duplicate of the newest stamp
					stamp = clock
				case r < 82: // older than anything buffered
					stamp = clock - 2*span - time.Duration(rng.Intn(5))*time.Millisecond
				default:
					op = "sample"
				}
				if op == "push" {
					p := sampleAt(stamp, rng.Float64())
					if got, want := b.Push(p), o.push(p); got != want {
						t.Fatalf("step %d: Push(%v) fresh = %v, oracle %v", step, stamp, got, want)
					}
				}
				if b.Len() != len(o.samples) {
					t.Fatalf("step %d (%s): Len = %d, oracle %d", step, op, b.Len(), len(o.samples))
				}
				gotNew, gotOK := b.Newest()
				wantNew, wantOK := o.newest()
				if gotNew != wantNew || gotOK != wantOK {
					t.Fatalf("step %d (%s): Newest = %v,%v, oracle %v,%v", step, op, gotNew, gotOK, wantNew, wantOK)
				}
				if wantOK && b.newest != wantNew.Time {
					t.Fatalf("step %d (%s): newest stamp = %v, oracle %v", step, op, b.newest, wantNew.Time)
				}
				for i, want := range o.samples {
					if got := b.ring[b.slot(i)]; got != want {
						t.Fatalf("step %d (%s): sample %d = %v, oracle %v", step, op, i, got, want)
					}
				}
				// Sample around the whole buffered span: before it, inside it
				// (on and between stamps), and past the newest stamp.
				now := clock + delay - time.Duration(rng.Int63n(int64(2*span))) + span/2
				if rng.Intn(2) == 0 {
					now = now.Truncate(time.Millisecond)
				}
				got, gotOK := b.Sample(now)
				want, wantOK := o.sample(now)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d (%s): Sample(%v) = %v,%v, oracle %v,%v", step, op, now, got, gotOK, want, wantOK)
				}
				gi, ge := b.Stats()
				if gi != o.interpolated || ge != o.extrapolated {
					t.Fatalf("step %d (%s): Stats = %d/%d, oracle %d/%d", step, op, gi, ge, o.interpolated, o.extrapolated)
				}
			}
			if clock < 300*time.Duration(capacity)*time.Millisecond {
				t.Fatalf("clock only reached %v: head did not wrap enough", clock)
			}
		})
	}
}

// TestPlaceWritesWherePushWould feeds one seeded schedule of in-order, late,
// duplicate-stamp and full-ring-evictee samples to two buffers: one through
// Push, one through Place and a field-by-field write. After every step the
// freshness, Len, Newest and three display-time reads of both must agree with
// each other and with the slice oracle (Push is Place plus a copy, so only
// the oracle catches an ordering fault both share); Place must hand out nil
// exactly for an evictee, and then change nothing.
func TestPlaceWritesWherePushWould(t *testing.T) {
	for _, capacity := range []int{2, 8, 64} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			const delay = 20 * time.Millisecond
			rng := rand.New(rand.NewSource(int64(capacity) + 1))
			pushed := NewInterpBuffer(delay, capacity, nil)
			placed := NewInterpBuffer(delay, capacity, nil)
			o := &sliceOracle{cap: capacity, delay: delay}
			span := time.Duration(capacity+2) * time.Millisecond
			clock := time.Duration(0)
			for step := 0; step < 20000; step++ {
				var stamp time.Duration
				switch r := rng.Intn(100); {
				case r < 60: // in order
					clock += time.Duration(1+rng.Intn(3)) * time.Millisecond
					stamp = clock
				case r < 78: // late arrival or duplicate, inside the buffered span
					stamp = clock - time.Duration(rng.Int63n(int64(span)))/time.Millisecond*time.Millisecond
				case r < 86: // duplicate of the newest stamp
					stamp = clock
				default: // older than anything buffered
					stamp = clock - 2*span - time.Duration(rng.Intn(5))*time.Millisecond
				}
				p := Pose{
					Time:     stamp,
					Position: mathx.V3(rng.Float64(), rng.Float64(), rng.Float64()),
					Rotation: mathx.QuatAxisAngle(mathx.V3(0, 1, 0), rng.Float64()),
					Velocity: mathx.V3(rng.Float64(), 0, rng.Float64()),
					AngVelY:  rng.Float64(),
				}
				evictee := len(o.samples) == capacity && stamp < o.samples[0].Time
				head, n, newest, image := placed.head, placed.n, placed.newest, ringImage(placed)

				want := o.push(p)
				at, got := placed.Place(stamp)
				if (at == nil) != evictee {
					t.Fatalf("step %d: Place(%v) = %p, evictee %v", step, stamp, at, evictee)
				}
				if at != nil {
					at.Time = p.Time
					at.Position = p.Position
					at.Rotation = p.Rotation
					at.Velocity = p.Velocity
					at.AngVelY = p.AngVelY
				} else if placed.head != head || placed.n != n || placed.newest != newest || !slices.Equal(ringImage(placed), image) {
					t.Fatalf("step %d: Place(%v) handed out nil but changed the buffer", step, stamp)
				}
				if pushedFresh := pushed.Push(p); got != want || pushedFresh != want {
					t.Fatalf("step %d: fresh = %v (Place), %v (Push), oracle %v", step, got, pushedFresh, want)
				}
				for _, b := range []*InterpBuffer{placed, pushed} {
					if b.Len() != len(o.samples) {
						t.Fatalf("step %d: Len = %d, oracle %d", step, b.Len(), len(o.samples))
					}
					gotNew, gotOK := b.Newest()
					wantNew, wantOK := o.newest()
					if gotNew != wantNew || gotOK != wantOK {
						t.Fatalf("step %d: Newest = %v,%v, oracle %v,%v", step, gotNew, gotOK, wantNew, wantOK)
					}
				}
				// Read before the buffered span, inside it and past its newest.
				for _, now := range []time.Duration{clock + delay - 2*span, clock + delay - span/3, clock + delay + span} {
					want, wantOK := o.sample(now)
					for _, b := range []*InterpBuffer{placed, pushed} {
						if got, gotOK := b.Sample(now); got != want || gotOK != wantOK {
							t.Fatalf("step %d: Sample(%v) = %v,%v, oracle %v,%v", step, now, got, gotOK, want, wantOK)
						}
					}
				}
			}
		})
	}
}

// ringImage copies b's whole backing ring, not just its logical window.
func ringImage(b *InterpBuffer) []Pose { return append([]Pose(nil), b.ring...) }

func TestInterpPoolNeighboursNeverAlias(t *testing.T) {
	const capacity, slab = 4, 8
	p := NewInterpPool(0, capacity, nil, slab)
	bufs := make([]InterpBuffer, slab)
	for i := range bufs {
		p.Acquire(&bufs[i])
		if len(bufs[i].ring) != capacity || cap(bufs[i].ring) != capacity {
			t.Fatalf("buffer %d: ring len/cap = %d/%d, want %d/%d",
				i, len(bufs[i].ring), cap(bufs[i].ring), capacity, capacity)
		}
	}
	for i := range bufs {
		b := &bufs[i]
		before := make([][]Pose, slab)
		for j := range bufs {
			before[j] = ringImage(&bufs[j])
		}
		// Past wrap, plus late arrivals that shift across the wrap point.
		for k := 0; k < 3*capacity; k++ {
			b.Push(sampleAt(time.Duration(10*k)*time.Millisecond, float64(i+1)))
			b.Push(sampleAt(time.Duration(10*k-5)*time.Millisecond, float64(i+1)))
		}
		if b.Len() != capacity {
			t.Fatalf("buffer %d: Len = %d, want %d", i, b.Len(), capacity)
		}
		for j := range bufs {
			if j == i {
				continue
			}
			for k, got := range bufs[j].ring {
				if got != before[j][k] {
					t.Fatalf("filling buffer %d changed buffer %d slot %d", i, j, k)
				}
			}
		}
	}
}

func TestInterpPoolGetAfterPutIsClean(t *testing.T) {
	p := NewInterpPool(10*time.Millisecond, 4, nil, 8)
	var b InterpBuffer
	p.Acquire(&b)
	for k := 0; k < 7; k++ { // leaves head mid-ring
		b.Push(sampleAt(time.Duration(k)*time.Millisecond, float64(k)))
	}
	b.Sample(5 * time.Millisecond) // target -5 ms, before the oldest held (3 ms): clamped
	b.Sample(time.Second)          // past the newest: extrapolated
	ring := b.ring
	p.Release(&b)
	if b.ring != nil || b.head != 0 || b.n != 0 || b.newest != 0 || b.playout != nil {
		t.Fatalf("released header not zeroed: %+v", b)
	}
	var got InterpBuffer
	p.Acquire(&got)
	if &got.ring[0] != &ring[0] {
		t.Fatal("Acquire after Release did not recycle the ring")
	}
	if got.Len() != 0 {
		t.Errorf("recycled Len = %d, want 0", got.Len())
	}
	if _, ok := got.Newest(); ok {
		t.Error("recycled buffer has a newest sample")
	}
	if _, ok := got.Sample(time.Second); ok {
		t.Error("recycled buffer answered Sample")
	}
	// The counters are the pool's: the released buffer's reads stay counted.
	if i, e := got.Stats(); i != 0 || e != 1 || got.Clamped() != 1 {
		t.Errorf("pool stats after recycling = %d/%d/%d, want 0/1/1", i, e, got.Clamped())
	}
	if !got.Push(sampleAt(0, 1)) {
		t.Error("first push into a recycled buffer not fresh")
	}
	got.Push(sampleAt(20*time.Millisecond, 3))
	// The pool's 10 ms delay: display time 20 ms renders 10 ms, halfway.
	if s, ok := got.Sample(20 * time.Millisecond); !ok || s.Position.X != 2 {
		t.Errorf("recycled Sample(20ms) = %v,%v, want x=2 (10 ms behind)", s.Position, ok)
	}
}

// TestInterpPoolSlabSizeHonoured: a mass Release grows the free list's
// capacity by append; the next slab must still be the constructor's size.
func TestInterpPoolSlabSizeHonoured(t *testing.T) {
	const slab = 8
	p := NewInterpPool(0, 4, nil, slab)
	out := make([]InterpBuffer, 5*slab)
	for i := range out {
		p.Acquire(&out[i])
	}
	for i := range out {
		p.Release(&out[i])
	}
	if len(p.free) != 5*slab {
		t.Fatalf("free = %d after mass Release, want %d", len(p.free), 5*slab)
	}
	for i := range out {
		p.Acquire(&out[i])
	}
	if len(p.free) != 0 {
		t.Fatalf("free = %d after draining, want 0", len(p.free))
	}
	var extra InterpBuffer
	p.Acquire(&extra)
	if got := len(p.free) + 1; got != slab {
		t.Fatalf("slab after a mass Release/Acquire cycle carved %d rings, want %d", got, slab)
	}
}
