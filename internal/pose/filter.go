package pose

import (
	"time"

	"metaclass/internal/mathx"
)

// Kalman1D is a constant-velocity Kalman filter on a single axis, used three
// per participant by the fusion stage. Its gain adapts to per-observation
// noise, which is what lets fusion weight the (precise but occluding) room
// sensors against the (always-on but drifting) headset.
type Kalman1D struct {
	// State: position x, velocity v; covariance P (2x2 symmetric).
	x, v          float64
	p00, p01, p11 float64
	processNoise  float64 // acceleration spectral density (m^2/s^3)
	last          time.Duration
	primed        bool
}

// NewKalman1D creates a filter with the given process noise intensity.
// Typical classroom motion fits 0.5-5.0 (m^2/s^3).
func NewKalman1D(processNoise float64) *Kalman1D {
	if processNoise <= 0 {
		processNoise = 1
	}
	return &Kalman1D{processNoise: processNoise}
}

// Update feeds an observation z at time t with variance r (sensor noise
// squared) and returns the filtered position estimate.
func (k *Kalman1D) Update(t time.Duration, z, r float64) float64 {
	if r <= 0 {
		r = 1e-6
	}
	if !k.primed {
		k.x, k.v = z, 0
		k.p00, k.p01, k.p11 = r, 0, 1
		k.last, k.primed = t, true
		return k.x
	}
	dt := (t - k.last).Seconds()
	if dt <= 0 {
		dt = 1e-3
	}
	k.last = t

	// Predict.
	k.x += k.v * dt
	q := k.processNoise
	dt2, dt3 := dt*dt, dt*dt*dt
	p00 := k.p00 + 2*dt*k.p01 + dt2*k.p11 + q*dt3/3
	p01 := k.p01 + dt*k.p11 + q*dt2/2
	p11 := k.p11 + q*dt
	// Update.
	innovation := z - k.x
	s := p00 + r
	g0 := p00 / s
	g1 := p01 / s
	k.x += g0 * innovation
	k.v += g1 * innovation
	k.p00 = (1 - g0) * p00
	k.p01 = (1 - g0) * p01
	k.p11 = p11 - g1*p01
	return k.x
}

// Predict returns the state extrapolated to time t without mutating the
// filter.
func (k *Kalman1D) Predict(t time.Duration) float64 {
	if !k.primed {
		return k.x
	}
	dt := (t - k.last).Seconds()
	if dt < 0 {
		dt = 0
	}
	return k.x + k.v*dt
}

// Velocity returns the current velocity estimate.
func (k *Kalman1D) Velocity() float64 { return k.v }

// Variance returns the current position variance estimate.
func (k *Kalman1D) Variance() float64 { return k.p00 }

// Primed reports whether the filter has been initialized.
func (k *Kalman1D) Primed() bool { return k.primed }

// Kalman3D tracks a 3D position with three independent per-axis filters.
type Kalman3D struct {
	axes [3]*Kalman1D
}

// NewKalman3D creates a 3D constant-velocity filter.
func NewKalman3D(processNoise float64) *Kalman3D {
	return &Kalman3D{axes: [3]*Kalman1D{
		NewKalman1D(processNoise), NewKalman1D(processNoise), NewKalman1D(processNoise),
	}}
}

// Update feeds an observation with per-axis variance r.
func (k *Kalman3D) Update(t time.Duration, z mathx.Vec3, r float64) mathx.Vec3 {
	return mathx.V3(
		k.axes[0].Update(t, z.X, r),
		k.axes[1].Update(t, z.Y, r),
		k.axes[2].Update(t, z.Z, r),
	)
}

// Predict extrapolates the estimate to time t.
func (k *Kalman3D) Predict(t time.Duration) mathx.Vec3 {
	return mathx.V3(k.axes[0].Predict(t), k.axes[1].Predict(t), k.axes[2].Predict(t))
}

// Velocity returns the velocity estimate.
func (k *Kalman3D) Velocity() mathx.Vec3 {
	return mathx.V3(k.axes[0].Velocity(), k.axes[1].Velocity(), k.axes[2].Velocity())
}

// Variance returns the mean per-axis position variance.
func (k *Kalman3D) Variance() float64 {
	return (k.axes[0].Variance() + k.axes[1].Variance() + k.axes[2].Variance()) / 3
}

// Primed reports whether the filter has been initialized.
func (k *Kalman3D) Primed() bool { return k.axes[0].Primed() }
