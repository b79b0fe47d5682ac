// Package pose defines the kinematic state replicated for every class
// participant and the estimation machinery around it: timestamped poses,
// body skeletons, smoothing filters, dead-reckoning extrapolators and
// interpolation buffers.
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

// Joint enumerates the tracked body joints of an avatar skeleton. The set
// matches what classroom-grade non-intrusive sensing can recover (upper body
// dominant, per the paper's seated-classroom setting).
type Joint uint8

// Skeleton joints.
const (
	JointHead Joint = iota
	JointNeck
	JointChest
	JointLeftShoulder
	JointLeftElbow
	JointLeftWrist
	JointRightShoulder
	JointRightElbow
	JointRightWrist
	JointHip
	JointLeftKnee
	JointRightKnee
	JointCount // sentinel
)

var jointNames = [JointCount]string{
	"head", "neck", "chest",
	"l_shoulder", "l_elbow", "l_wrist",
	"r_shoulder", "r_elbow", "r_wrist",
	"hip", "l_knee", "r_knee",
}

// String implements fmt.Stringer.
func (j Joint) String() string {
	if j < JointCount {
		return jointNames[j]
	}
	return fmt.Sprintf("Joint(%d)", uint8(j))
}

// BodyPose is a full-body configuration: the root rigid pose plus local
// joint rotations relative to the skeleton bind pose.
type BodyPose struct {
	Root   Pose
	Joints [JointCount]mathx.Quat
}

// NewBodyPose returns a body pose with all joints at identity.
func NewBodyPose() BodyPose {
	var b BodyPose
	b.Root = Identity()
	for i := range b.Joints {
		b.Joints[i] = mathx.QuatIdentity()
	}
	return b
}

// JointError returns the mean angular error across joints in radians.
func (b BodyPose) JointError(o BodyPose) float64 {
	var sum float64
	for i := range b.Joints {
		sum += b.Joints[i].AngleTo(o.Joints[i])
	}
	return sum / float64(JointCount)
}

// Lerp interpolates between two body poses (root lerp/slerp + joint slerp).
func (b BodyPose) Lerp(o BodyPose, t float64) BodyPose {
	var out BodyPose
	out.Root = LerpPose(b.Root, o.Root, t)
	for i := range b.Joints {
		out.Joints[i] = b.Joints[i].Slerp(o.Joints[i], t)
	}
	return out
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
