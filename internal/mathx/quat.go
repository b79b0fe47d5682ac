package mathx

import (
	"fmt"
	"math"
)

// Quat is a rotation quaternion (W + Xi + Yj + Zk). Use QuatIdentity for the
// no-rotation value; the zero value is not a valid rotation.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatAxisAngle builds a quaternion rotating by angle radians about axis.
// The axis need not be normalized; a zero axis yields the identity.
func QuatAxisAngle(axis Vec3, angle float64) Quat {
	n := axis.Normalize()
	if n.LenSq() == 0 {
		return QuatIdentity()
	}
	half := angle / 2
	s := math.Sin(half)
	return Quat{W: math.Cos(half), X: n.X * s, Y: n.Y * s, Z: n.Z * s}
}

// Mul returns the Hamilton product q * r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse rotation for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns q scaled to unit norm; a zero quaternion becomes identity.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return QuatIdentity()
	}
	return Quat{W: q.W / n, X: q.X / n, Y: q.Y / n, Z: q.Z / n}
}

// Rotate applies the rotation q to vector v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q * (0,v) * q^-1, expanded to avoid allocations.
	u := V3(q.X, q.Y, q.Z)
	s := q.W
	return u.Scale(2 * u.Dot(v)).
		Add(v.Scale(s*s - u.Dot(u))).
		Add(u.Cross(v).Scale(2 * s))
}

// Dot returns the 4D dot product of q and r.
func (q Quat) Dot(r Quat) float64 {
	return q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z
}

// Slerp spherically interpolates from q to r by t in [0,1]. It takes the
// short arc and degrades gracefully to nlerp for nearly-parallel inputs.
func (q Quat) Slerp(r Quat, t float64) Quat {
	d := q.Dot(r)
	if d < 0 {
		// Take the short way around.
		r = Quat{W: -r.W, X: -r.X, Y: -r.Y, Z: -r.Z}
		d = -d
	}
	if d > 0.9995 {
		// Nearly parallel: linear interpolation avoids division by ~0.
		return Quat{
			W: q.W + (r.W-q.W)*t,
			X: q.X + (r.X-q.X)*t,
			Y: q.Y + (r.Y-q.Y)*t,
			Z: q.Z + (r.Z-q.Z)*t,
		}.Normalize()
	}
	theta := math.Acos(d)
	sin := math.Sin(theta)
	wq := math.Sin((1-t)*theta) / sin
	wr := math.Sin(t*theta) / sin
	return Quat{
		W: q.W*wq + r.W*wr,
		X: q.X*wq + r.X*wr,
		Y: q.Y*wq + r.Y*wr,
		Z: q.Z*wq + r.Z*wr,
	}.Normalize()
}

// AngleTo returns the absolute rotation angle in radians between q and r.
func (q Quat) AngleTo(r Quat) float64 {
	d := math.Abs(q.Dot(r))
	if d > 1 {
		d = 1
	}
	return 2 * math.Acos(d)
}

// Yaw extracts the rotation about the Y axis in radians.
func (q Quat) Yaw() float64 {
	// Forward vector projected onto the XZ plane.
	f := q.Rotate(V3(0, 0, 1))
	return math.Atan2(f.X, f.Z)
}

// NearEq reports whether q and r represent rotations within eps radians.
func (q Quat) NearEq(r Quat, eps float64) bool { return q.AngleTo(r) < eps }

// IsFinite reports whether all components are finite.
func (q Quat) IsFinite() bool {
	return isFinite(q.W) && isFinite(q.X) && isFinite(q.Y) && isFinite(q.Z)
}

// String implements fmt.Stringer.
func (q Quat) String() string {
	return fmt.Sprintf("quat(w=%.3f, %.3f, %.3f, %.3f)", q.W, q.X, q.Y, q.Z)
}

// Transform is a rigid transform: rotate then translate.
type Transform struct {
	Rot   Quat
	Trans Vec3
}

// TransformIdentity returns the identity transform.
func TransformIdentity() Transform { return Transform{Rot: QuatIdentity()} }

// Apply maps point p from the transform's source frame to its target frame.
func (t Transform) Apply(p Vec3) Vec3 { return t.Rot.Rotate(p).Add(t.Trans) }

// ApplyRot maps an orientation through the transform.
func (t Transform) ApplyRot(q Quat) Quat { return t.Rot.Mul(q).Normalize() }

// Compose returns the transform equivalent to applying u first, then t.
func (t Transform) Compose(u Transform) Transform {
	return Transform{
		Rot:   t.Rot.Mul(u.Rot).Normalize(),
		Trans: t.Rot.Rotate(u.Trans).Add(t.Trans),
	}
}

// Inverse returns the transform mapping back from target to source frame.
func (t Transform) Inverse() Transform {
	inv := t.Rot.Conj()
	return Transform{Rot: inv, Trans: inv.Rotate(t.Trans).Scale(-1)}
}
