package protocol

import (
	"math"
	"math/rand"
	"testing"

	"metaclass/internal/mathx"
	"metaclass/internal/pose"
)

// inlineSample and inlineVelocity are the conversions every sender and
// receiver wrote out by hand before Sample and VelocityOf; they are the
// reference the wire form must keep bit for bit.
func inlineSample(p pose.Pose) (WirePose, [3]int64) {
	return QuantizePose(p.Position, p.Rotation), [3]int64{
		int64(p.Velocity.X * 1000), int64(p.Velocity.Y * 1000), int64(p.Velocity.Z * 1000),
	}
}

func inlineVelocity(v [3]int64) mathx.Vec3 {
	return mathx.V3(float64(v[0])/1000, float64(v[1])/1000, float64(v[2])/1000)
}

func sameBits(a, b mathx.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// velocityComponent draws from the regimes a wire velocity meets: ordinary
// walking speeds, sub-millimetre drift that truncates to zero, and speeds up
// to ±1e9 m/s; each is negative half the time.
func velocityComponent(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(4) {
	case 0:
		v = rng.NormFloat64() * 2
	case 1:
		v = rng.Float64() * 1e-3
	case 2:
		v = rng.Float64() * 1e9
	default:
		v = math.Pow(10, rng.Float64()*12-3) // 1e-3 .. 1e9, log-uniform
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func TestPoseSampleMatchesInlineConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		p := pose.Pose{
			Position: mathx.V3(rng.NormFloat64()*10, rng.Float64()*2, rng.NormFloat64()*10),
			Rotation: mathx.QuatAxisAngle(
				mathx.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize(),
				rng.Float64()*2*math.Pi),
			Velocity: mathx.V3(velocityComponent(rng), velocityComponent(rng), velocityComponent(rng)),
		}
		gotPose, gotVel := Sample(p)
		wantPose, wantVel := inlineSample(p)
		if gotPose != wantPose || gotVel != wantVel {
			t.Fatalf("pose %d %+v: Sample = %+v %v, inline = %+v %v", i, p, gotPose, gotVel, wantPose, wantVel)
		}
		if got, want := VelocityOf(gotVel), inlineVelocity(wantVel); !sameBits(got, want) {
			t.Fatalf("pose %d: VelocityOf(%v) = %v, inline = %v", i, gotVel, got, want)
		}
		// Wire velocities no sender produced: any value a decoder accepts.
		raw := [3]int64{rng.Int63() - rng.Int63(), rng.Int63n(2001) - 1000, -rng.Int63n(1 << 40)}
		if got, want := VelocityOf(raw), inlineVelocity(raw); !sameBits(got, want) {
			t.Fatalf("VelocityOf(%v) = %v, inline = %v", raw, got, want)
		}
	}
}
