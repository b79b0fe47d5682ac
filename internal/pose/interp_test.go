package pose

import (
	"testing"
	"testing/quick"
	"time"

	"metaclass/internal/mathx"
)

func sampleAt(t time.Duration, x float64) Pose {
	return Pose{Time: t, Position: mathx.V3(x, 0, 0), Rotation: mathx.QuatIdentity(),
		Velocity: mathx.V3(1, 0, 0)}
}

func TestInterpBufferEmpty(t *testing.T) {
	b := NewInterpBuffer(50*time.Millisecond, 16, nil)
	if _, ok := b.Sample(time.Second); ok {
		t.Error("empty buffer returned a sample")
	}
	if _, ok := b.Newest(); ok {
		t.Error("empty buffer has newest")
	}
}

func TestInterpBufferInterpolates(t *testing.T) {
	b := NewInterpBuffer(100*time.Millisecond, 16, nil)
	b.Push(sampleAt(0, 0))
	b.Push(sampleAt(100*time.Millisecond, 1))
	b.Push(sampleAt(200*time.Millisecond, 2))
	// Display at t=250ms renders target t=150ms: between samples 1 and 2.
	got, ok := b.Sample(250 * time.Millisecond)
	if !ok {
		t.Fatal("no sample")
	}
	if !got.Position.NearEq(mathx.V3(1.5, 0, 0), 1e-9) {
		t.Errorf("interpolated = %v, want x=1.5", got.Position)
	}
	interp, extrap := b.Stats()
	if interp != 1 || extrap != 0 {
		t.Errorf("stats = %d/%d, want 1/0", interp, extrap)
	}
}

func TestInterpBufferExtrapolatesWhenDry(t *testing.T) {
	b := NewInterpBuffer(50*time.Millisecond, 16, Linear{})
	b.Push(sampleAt(0, 0)) // velocity 1 m/s
	// Display at 250ms renders target 200ms, beyond the only sample.
	got, ok := b.Sample(250 * time.Millisecond)
	if !ok {
		t.Fatal("no sample")
	}
	if !got.Position.NearEq(mathx.V3(0.2, 0, 0), 1e-9) {
		t.Errorf("extrapolated = %v, want x=0.2", got.Position)
	}
	_, extrap := b.Stats()
	if extrap != 1 {
		t.Errorf("extrapolations = %d, want 1", extrap)
	}
}

func TestInterpBufferBeforeOldest(t *testing.T) {
	b := NewInterpBuffer(0, 16, nil)
	b.Push(sampleAt(time.Second, 5))
	got, ok := b.Sample(500 * time.Millisecond)
	if !ok || !got.Position.NearEq(mathx.V3(5, 0, 0), 1e-9) {
		t.Errorf("pre-history sample = %v ok=%v", got.Position, ok)
	}
}

func TestInterpBufferOutOfOrderInsert(t *testing.T) {
	b := NewInterpBuffer(100*time.Millisecond, 16, nil)
	b.Push(sampleAt(0, 0))
	b.Push(sampleAt(200*time.Millisecond, 2))
	b.Push(sampleAt(100*time.Millisecond, 1))  // late arrival
	got, _ := b.Sample(250 * time.Millisecond) // target 150ms
	if !got.Position.NearEq(mathx.V3(1.5, 0, 0), 1e-9) {
		t.Errorf("with reordered insert = %v, want x=1.5", got.Position)
	}
}

func TestInterpBufferDuplicateTimestampReplaces(t *testing.T) {
	b := NewInterpBuffer(0, 16, nil)
	b.Push(sampleAt(time.Second, 1))
	b.Push(sampleAt(time.Second, 9))
	if b.Len() != 1 {
		t.Fatalf("len = %d, want 1", b.Len())
	}
	got, _ := b.Newest()
	if got.Position.X != 9 {
		t.Errorf("duplicate did not replace: x=%v", got.Position.X)
	}
}

func TestInterpBufferCapacityEviction(t *testing.T) {
	b := NewInterpBuffer(0, 4, nil)
	for i := 0; i < 10; i++ {
		b.Push(sampleAt(time.Duration(i)*time.Millisecond, float64(i)))
	}
	if b.Len() != 4 {
		t.Fatalf("len = %d, want 4", b.Len())
	}
	// Oldest retained sample is i=6.
	got, _ := b.Sample(6 * time.Millisecond) // delay 0, exact timestamp
	if got.Position.X != 6 {
		t.Errorf("oldest retained x = %v, want 6", got.Position.X)
	}
}

func TestInterpBufferOrderInvariant(t *testing.T) {
	// Property: no matter the push order, samples end up time-sorted.
	f := func(offsets []uint16) bool {
		b := NewInterpBuffer(0, 256, nil)
		for _, o := range offsets {
			b.Push(sampleAt(time.Duration(o)*time.Millisecond, float64(o)))
		}
		for i := 1; i < b.Len(); i++ {
			if b.ring[b.slot(i-1)].Time >= b.ring[b.slot(i)].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterpBufferDefaults(t *testing.T) {
	b := NewInterpBuffer(0, 0, nil)
	if len(b.ring) != 64 {
		t.Error("capacity default not applied")
	}
	b.Push(sampleAt(0, 0))
	if _, ok := b.Sample(time.Second); !ok {
		t.Error("default extrapolator missing")
	}
}

// BenchmarkInterpBufferPushFull is the steady-state receive path: an in-order
// push into a buffer that is already full, so every push evicts the oldest
// sample. hot reuses one buffer (ring in L1); cold cycles 4,096 buffers from
// one pool (~25 MB of rings) whose headers sit inline in one table, as a
// replica's do, so each push finds its ring in memory — a client replaying a
// large class.
func BenchmarkInterpBufferPushFull(b *testing.B) {
	for _, bc := range []struct {
		name string
		bufs int
	}{{"hot", 1}, {"cold", 4096}} {
		b.Run(bc.name, func(b *testing.B) {
			pool := NewInterpPool(100*time.Millisecond, 64, nil, 64)
			bufs := make([]InterpBuffer, bc.bufs)
			for i := range bufs {
				pool.Acquire(&bufs[i])
				for k := 0; k < 64; k++ {
					bufs[i].Push(sampleAt(time.Duration(k)*time.Millisecond, float64(k)))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm := time.Duration(64+i/len(bufs)) * time.Millisecond
				if !bufs[i%len(bufs)].Push(sampleAt(tm, float64(i))) {
					b.Fatal("in-order push not fresh")
				}
			}
		})
	}
}

func BenchmarkInterpBufferPushSample(b *testing.B) {
	buf := NewInterpBuffer(100*time.Millisecond, 64, nil)
	for i := 0; i < b.N; i++ {
		tm := time.Duration(i) * 10 * time.Millisecond
		buf.Push(sampleAt(tm, float64(i)))
		if _, ok := buf.Sample(tm); !ok {
			b.Fatal("no sample")
		}
	}
}
