package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuatIdentityRotate(t *testing.T) {
	v := V3(1, 2, 3)
	if got := QuatIdentity().Rotate(v); !got.NearEq(v, 1e-12) {
		t.Errorf("identity rotate = %v, want %v", got, v)
	}
}

func TestQuatAxisAngle90(t *testing.T) {
	// 90 degrees about Y sends +Z to +X.
	q := QuatAxisAngle(V3(0, 1, 0), math.Pi/2)
	got := q.Rotate(V3(0, 0, 1))
	if !got.NearEq(V3(1, 0, 0), 1e-9) {
		t.Errorf("rotate = %v, want (1,0,0)", got)
	}
}

func TestQuatZeroAxis(t *testing.T) {
	q := QuatAxisAngle(Vec3{}, 1.5)
	if !q.NearEq(QuatIdentity(), 1e-12) {
		t.Errorf("zero axis = %v, want identity", q)
	}
}

func TestQuatMulComposes(t *testing.T) {
	q1 := QuatAxisAngle(V3(0, 1, 0), math.Pi/2)
	q2 := QuatAxisAngle(V3(0, 1, 0), math.Pi/2)
	got := q1.Mul(q2).Rotate(V3(0, 0, 1))
	// Two successive 90-degree yaws = 180 degrees: +Z -> -Z.
	if !got.NearEq(V3(0, 0, -1), 1e-9) {
		t.Errorf("composed rotate = %v, want (0,0,-1)", got)
	}
}

func TestQuatConjInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		q := randomQuat(rng)
		v := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		back := q.Conj().Rotate(q.Rotate(v))
		if !back.NearEq(v, 1e-9) {
			t.Fatalf("conj did not invert: %v -> %v", v, back)
		}
	}
}

func TestQuatRotatePreservesLength(t *testing.T) {
	f := func(w, x, y, z, vx, vy, vz float64) bool {
		q := Quat{w, x, y, z}
		if !q.IsFinite() || q.Norm() == 0 || q.Norm() > 1e100 {
			return true
		}
		q = q.Normalize()
		v := V3(vx, vy, vz)
		if !v.IsFinite() || v.Len() > 1e100 {
			return true
		}
		r := q.Rotate(v)
		return math.Abs(r.Len()-v.Len()) <= 1e-9*(1+v.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlerpEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a, b := randomQuat(rng), randomQuat(rng)
		if got := a.Slerp(b, 0); got.AngleTo(a) > 1e-6 {
			t.Fatalf("slerp(0) angle to a = %v", got.AngleTo(a))
		}
		if got := a.Slerp(b, 1); got.AngleTo(b) > 1e-6 {
			t.Fatalf("slerp(1) angle to b = %v", got.AngleTo(b))
		}
	}
}

func TestSlerpHalfAngle(t *testing.T) {
	a := QuatIdentity()
	b := QuatAxisAngle(V3(0, 1, 0), math.Pi/2)
	mid := a.Slerp(b, 0.5)
	want := QuatAxisAngle(V3(0, 1, 0), math.Pi/4)
	if mid.AngleTo(want) > 1e-9 {
		t.Errorf("slerp midpoint off by %v rad", mid.AngleTo(want))
	}
}

func TestSlerpNearlyParallel(t *testing.T) {
	a := QuatAxisAngle(V3(0, 1, 0), 0.0001)
	b := QuatAxisAngle(V3(0, 1, 0), 0.0002)
	mid := a.Slerp(b, 0.5)
	if !mid.IsFinite() {
		t.Fatal("slerp of nearly parallel quats produced non-finite result")
	}
	if math.Abs(mid.Norm()-1) > 1e-9 {
		t.Errorf("slerp result norm = %v, want 1", mid.Norm())
	}
}

func TestQuatYaw(t *testing.T) {
	for _, yaw := range []float64{0, 0.5, -1.2, math.Pi / 2, 3} {
		q := QuatAxisAngle(V3(0, 1, 0), yaw)
		if got := q.Yaw(); math.Abs(WrapAngle(got-yaw)) > 1e-9 {
			t.Errorf("Yaw() = %v, want %v", got, yaw)
		}
	}
}

func TestTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		tr := Transform{
			Rot:   randomQuat(rng),
			Trans: V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()),
		}
		p := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		back := tr.Inverse().Apply(tr.Apply(p))
		if !back.NearEq(p, 1e-9) {
			t.Fatalf("inverse round trip: %v -> %v", p, back)
		}
	}
}

func TestTransformCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		a := Transform{Rot: randomQuat(rng), Trans: V3(rng.NormFloat64(), 0, 1)}
		b := Transform{Rot: randomQuat(rng), Trans: V3(0, rng.NormFloat64(), 2)}
		p := V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		sequential := a.Apply(b.Apply(p))
		composed := a.Compose(b).Apply(p)
		if !sequential.NearEq(composed, 1e-9) {
			t.Fatalf("compose mismatch: %v vs %v", sequential, composed)
		}
	}
}

func randomQuat(rng *rand.Rand) Quat {
	return Quat{
		W: rng.NormFloat64(), X: rng.NormFloat64(),
		Y: rng.NormFloat64(), Z: rng.NormFloat64(),
	}.Normalize()
}

func BenchmarkQuatRotate(b *testing.B) {
	q := QuatAxisAngle(V3(0, 1, 0), 0.3)
	v := V3(1, 2, 3)
	for i := 0; i < b.N; i++ {
		v = q.Rotate(v)
	}
	_ = v
}

func BenchmarkSlerp(b *testing.B) {
	q1 := QuatAxisAngle(V3(0, 1, 0), 0.3)
	q2 := QuatAxisAngle(V3(1, 0, 0), 1.1)
	for i := 0; i < b.N; i++ {
		_ = q1.Slerp(q2, 0.37)
	}
}
