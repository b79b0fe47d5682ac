package trace

import (
	"math"
	"testing"
	"time"

	"metaclass/internal/mathx"
)

func TestScriptsAreDeterministic(t *testing.T) {
	scripts := []MotionScript{
		Seated{Anchor: mathx.V3(1, 0, 2), Phase: 0.7},
		Lecturer{Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)},
		Walker{Waypoints: []mathx.Vec3{{X: 0}, {X: 5}, {X: 5, Z: 5}}, Speed: 1.2},
		Still{Anchor: mathx.V3(0, 1, 0)},
	}
	for _, s := range scripts {
		t.Run(s.Name(), func(t *testing.T) {
			for _, tm := range []time.Duration{0, time.Second, 17 * time.Second} {
				a := s.PoseAt(tm)
				b := s.PoseAt(tm)
				if a.Position != b.Position || a.Rotation != b.Rotation {
					t.Fatalf("script nondeterministic at %v", tm)
				}
				if !a.IsFinite() {
					t.Fatalf("non-finite pose at %v: %v", tm, a)
				}
				if a.Time != tm {
					t.Fatalf("pose timestamp %v, want %v", a.Time, tm)
				}
			}
		})
	}
}

func TestSeatedStaysNearAnchor(t *testing.T) {
	s := Seated{Anchor: mathx.V3(2, 0, 3), Phase: 1.1}
	for tm := time.Duration(0); tm < time.Minute; tm += 100 * time.Millisecond {
		p := s.PoseAt(tm)
		head := s.Anchor.Add(mathx.V3(0, 1.2, 0))
		if p.Position.Dist(head) > 0.2 {
			t.Fatalf("seated drifted %v m at %v", p.Position.Dist(head), tm)
		}
	}
}

func TestSeatedVelocityMatchesDerivative(t *testing.T) {
	s := Seated{Anchor: mathx.V3(0, 0, 0), Phase: 0.3}
	for _, tm := range []time.Duration{time.Second, 5 * time.Second, 9 * time.Second} {
		const h = time.Millisecond
		a, b := s.PoseAt(tm-h), s.PoseAt(tm+h)
		numeric := b.Position.Sub(a.Position).Scale(1 / (2 * h.Seconds()))
		analytic := s.PoseAt(tm).Velocity
		if numeric.Dist(analytic) > 0.01 {
			t.Errorf("velocity mismatch at %v: numeric %v vs analytic %v", tm, numeric, analytic)
		}
	}
}

func TestLecturerPacesBetweenEndpoints(t *testing.T) {
	l := Lecturer{Left: mathx.V3(-4, 0, 1), Right: mathx.V3(4, 0, 1), PeriodS: 10}
	var minX, maxX = math.Inf(1), math.Inf(-1)
	for tm := time.Duration(0); tm <= 10*time.Second; tm += 50 * time.Millisecond {
		p := l.PoseAt(tm)
		minX = math.Min(minX, p.Position.X)
		maxX = math.Max(maxX, p.Position.X)
		if p.Position.X < -4.1 || p.Position.X > 4.1 {
			t.Fatalf("lecturer out of bounds: %v", p.Position)
		}
	}
	if minX > -3.5 || maxX < 3.5 {
		t.Errorf("lecturer did not cover the front: [%v, %v]", minX, maxX)
	}
}

func TestWalkerLoopsWaypoints(t *testing.T) {
	w := Walker{Waypoints: []mathx.Vec3{{}, {X: 10}}, Speed: 2}
	// Loop is 20 m, so period is 10 s.
	p0 := w.PoseAt(0)
	p5 := w.PoseAt(5 * time.Second)
	p10 := w.PoseAt(10 * time.Second)
	if p0.Position.Dist(mathx.V3(0, 1.7, 0)) > 1e-9 {
		t.Errorf("start = %v", p0.Position)
	}
	if p5.Position.Dist(mathx.V3(10, 1.7, 0)) > 1e-9 {
		t.Errorf("half-loop = %v", p5.Position)
	}
	if p10.Position.Dist(p0.Position) > 1e-9 {
		t.Errorf("full loop = %v, want %v", p10.Position, p0.Position)
	}
	if speed := w.PoseAt(time.Second).Velocity.Len(); math.Abs(speed-2) > 1e-9 {
		t.Errorf("speed = %v, want 2", speed)
	}
}

func TestWalkerDegenerateInputs(t *testing.T) {
	if p := (Walker{}).PoseAt(time.Second); !p.IsFinite() {
		t.Error("empty walker non-finite")
	}
	one := Walker{Waypoints: []mathx.Vec3{{X: 3}}}
	if p := one.PoseAt(time.Second); p.Position.X != 3 {
		t.Errorf("single waypoint position = %v", p.Position)
	}
	same := Walker{Waypoints: []mathx.Vec3{{X: 1}, {X: 1}}}
	if p := same.PoseAt(time.Second); !p.IsFinite() {
		t.Error("zero-length loop non-finite")
	}
}
