package pose

import (
	"math"
	"testing"
	"time"

	"metaclass/internal/mathx"
)

func TestIdentityIsFinite(t *testing.T) {
	p := Identity()
	if !p.IsFinite() {
		t.Error("identity pose not finite")
	}
	if p.Rotation != mathx.QuatIdentity() {
		t.Error("identity rotation wrong")
	}
}

func TestPoseErrors(t *testing.T) {
	a := Identity()
	b := Identity()
	b.Position = mathx.V3(3, 4, 0)
	if got := a.PositionError(b); got != 5 {
		t.Errorf("PositionError = %v, want 5", got)
	}
}

func TestIsFiniteDetectsNaN(t *testing.T) {
	p := Identity()
	p.Velocity = mathx.V3(math.NaN(), 0, 0)
	if p.IsFinite() {
		t.Error("NaN velocity reported finite")
	}
	q := Identity()
	q.AngVelY = math.Inf(1)
	// Inf is not NaN; AngVelY check only covers NaN. Position/rotation cover Inf.
	q.Position = mathx.V3(math.Inf(1), 0, 0)
	if q.IsFinite() {
		t.Error("Inf position reported finite")
	}
}

func TestLerpPose(t *testing.T) {
	a := Pose{Time: 0, Position: mathx.V3(0, 0, 0), Rotation: mathx.QuatIdentity()}
	b := Pose{Time: 100 * time.Millisecond, Position: mathx.V3(2, 0, 0),
		Rotation: mathx.QuatAxisAngle(mathx.V3(0, 1, 0), 1.0)}
	mid := LerpPose(a, b, 0.5)
	if !mid.Position.NearEq(mathx.V3(1, 0, 0), 1e-9) {
		t.Errorf("mid position = %v", mid.Position)
	}
	want := mathx.QuatAxisAngle(mathx.V3(0, 1, 0), 0.5)
	if mid.Rotation.AngleTo(want) > 1e-9 {
		t.Errorf("mid rotation off by %v", mid.Rotation.AngleTo(want))
	}
	if mid.Time != 50*time.Millisecond {
		t.Errorf("mid time = %v", mid.Time)
	}
}
