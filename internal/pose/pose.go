// Package pose defines the kinematic state replicated for every class
// participant and the estimation machinery around it: timestamped rigid-body
// poses, smoothing filters, dead-reckoning extrapolators and interpolation
// buffers.
//
// This is the data the paper's Fig. 3 pipeline moves: headsets and room
// sensors produce noisy pose observations; the edge server fuses them into
// an authoritative pose; receivers reconstruct smooth motion between sparse
// network updates via interpolation and extrapolation.
package pose

import (
	"fmt"
	"time"

	"metaclass/internal/mathx"
)

// Pose is a rigid-body state at an instant of (virtual) time.
type Pose struct {
	Time     time.Duration
	Position mathx.Vec3
	Rotation mathx.Quat
	Velocity mathx.Vec3 // m/s
	AngVelY  float64    // yaw rate, rad/s (dominant axis for seated/walking users)
}

// At returns a copy of p re-stamped at t (state unchanged).
func (p Pose) At(t time.Duration) Pose {
	p.Time = t
	return p
}

// Identity returns a stationary pose at the origin.
func Identity() Pose {
	return Pose{Rotation: mathx.QuatIdentity()}
}

// PositionError returns the Euclidean distance between the positions of p
// and q in meters.
func (p Pose) PositionError(q Pose) float64 { return p.Position.Dist(q.Position) }

// IsFinite reports whether every component is finite.
func (p Pose) IsFinite() bool {
	return p.Position.IsFinite() && p.Rotation.IsFinite() && p.Velocity.IsFinite() &&
		!isNaN(p.AngVelY)
}

func isNaN(f float64) bool { return f != f }

// String implements fmt.Stringer.
func (p Pose) String() string {
	return fmt.Sprintf("pose{t=%v pos=%v yaw=%.2f}", p.Time, p.Position, p.Rotation.Yaw())
}

// LerpPose interpolates positions linearly and rotations spherically, with
// time and velocity interpolated linearly.
func LerpPose(a, b Pose, t float64) Pose {
	return Pose{
		Time:     a.Time + time.Duration(float64(b.Time-a.Time)*t),
		Position: a.Position.Lerp(b.Position, t),
		Rotation: a.Rotation.Slerp(b.Rotation, t),
		Velocity: a.Velocity.Lerp(b.Velocity, t),
		AngVelY:  a.AngVelY + (b.AngVelY-a.AngVelY)*t,
	}
}
