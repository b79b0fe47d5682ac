package pose

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"metaclass/internal/mathx"
)

func TestKalman1DConvergesToTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	k := NewKalman1D(1)
	const noise = 0.1
	var errSum float64
	n := 0
	for i := 0; i < 1000; i++ {
		tm := time.Duration(i) * 20 * time.Millisecond
		truth := 0.5 * tm.Seconds() // 0.5 m/s
		est := k.Update(tm, truth+rng.NormFloat64()*noise, noise*noise)
		if i > 100 {
			errSum += math.Abs(est - truth)
			n++
		}
	}
	mean := errSum / float64(n)
	if mean > noise/2 {
		t.Errorf("mean error %v, want < %v (filter should beat raw noise)", mean, noise/2)
	}
	if math.Abs(k.Velocity()-0.5) > 0.1 {
		t.Errorf("velocity = %v, want ~0.5", k.Velocity())
	}
}

func TestKalman1DPredictDoesNotMutate(t *testing.T) {
	k := NewKalman1D(1)
	k.Update(0, 0, 0.01)
	k.Update(time.Second, 1, 0.01) // ~1 m/s
	before := k.Predict(time.Second)
	_ = k.Predict(5 * time.Second)
	after := k.Predict(time.Second)
	if before != after {
		t.Error("Predict mutated filter state")
	}
	// Prediction extrapolates forward.
	if k.Predict(2*time.Second) <= k.Predict(time.Second) {
		t.Error("prediction not advancing with velocity")
	}
}

func TestKalman1DDefensiveInputs(t *testing.T) {
	k := NewKalman1D(-5) // negative process noise defaults
	got := k.Update(0, 3, -1)
	if got != 3 {
		t.Errorf("first update = %v, want 3", got)
	}
	// Same-timestamp update must not divide by zero.
	got = k.Update(0, 3.1, 0.01)
	if math.IsNaN(got) {
		t.Error("same-timestamp update produced NaN")
	}
}

func TestKalman3DTracksDiagonalMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	k := NewKalman3D(1)
	const noise = 0.05
	var last, velSum mathx.Vec3
	velN := 0
	for i := 0; i < 500; i++ {
		tm := time.Duration(i) * 20 * time.Millisecond
		truth := mathx.V3(1, 0.2, -0.5).Scale(tm.Seconds())
		obs := truth.Add(mathx.V3(rng.NormFloat64()*noise, rng.NormFloat64()*noise, rng.NormFloat64()*noise))
		last = k.Update(tm, obs, noise*noise)
		if i >= 300 {
			velSum = velSum.Add(k.Velocity())
			velN++
		}
	}
	truthEnd := mathx.V3(1, 0.2, -0.5).Scale(499 * 0.02)
	if last.Dist(truthEnd) > 0.1 {
		t.Errorf("final estimate %v vs truth %v", last, truthEnd)
	}
	// Instantaneous velocity is noisy with a hot process model; the running
	// mean must land near the true velocity.
	velMean := velSum.Scale(1 / float64(velN))
	if velMean.Dist(mathx.V3(1, 0.2, -0.5)) > 0.25 {
		t.Errorf("mean velocity = %v, want ~(1, 0.2, -0.5)", velMean)
	}
	if !k.Primed() {
		t.Error("not primed")
	}
	if k.Variance() <= 0 {
		t.Error("variance should be positive")
	}
}
