// Package fusion implements the edge server's estimation stage from the
// paper's Fig. 3: "the edge server ... aggregates the data to estimate the
// pose and facial expression of the participants". It merges asynchronous,
// differently-noisy observations (headset + room sensor array) into one
// authoritative pose per participant.
//
// Design: per participant, a 3-axis constant-velocity Kalman filter weights
// each observation by its reported variance, an innovation gate rejects
// outliers (e.g. identity switches in the vision pipeline), and a
// complementary yaw estimator trusts headsets over room sensors.
package fusion

import (
	"math"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/pose"
	"metaclass/internal/sensors"
)

// processNoise is the Kalman acceleration intensity: classroom-scale motion.
// gateThreshold is the normalized-innovation-squared rejection bound (25, i.e.
// 5 sigma): observations above it are discarded, except that gating is
// suspended for the first coldSamples accepted samples, while the filter is
// cold.
const (
	processNoise  = 2.0
	gateThreshold = 25
	coldSamples   = 10
)

// Fuser fuses observations for one participant.
type Fuser struct {
	kf *pose.Kalman3D

	yaw       float64
	yawPrimed bool

	accepted uint64
	rejected uint64
	lastTime time.Duration
}

// New creates a fuser.
func New() *Fuser {
	return &Fuser{kf: pose.NewKalman3D(processNoise)}
}

// Observe feeds one sensor observation. It returns true if the observation
// was accepted, false if the outlier gate rejected it.
func (f *Fuser) Observe(o sensors.Observation) bool {
	variance := o.PosStdDev * o.PosStdDev
	if variance <= 0 {
		variance = 1e-6
	}
	if f.kf.Primed() && f.accepted >= coldSamples {
		// Gate on predicted innovation before committing the update.
		pred := f.kf.Predict(o.Time)
		nis := pred.Sub(o.Position).LenSq() / (f.kf.Variance() + variance)
		if nis > gateThreshold {
			f.rejected++
			return false
		}
	}
	f.kf.Update(o.Time, o.Position, variance)
	f.fuseYaw(o)
	f.accepted++
	if o.Time > f.lastTime {
		f.lastTime = o.Time
	}
	return true
}

func (f *Fuser) fuseYaw(o sensors.Observation) {
	// Complementary filter: headsets carry precise yaw, room sensors coarse.
	gain := 0.5
	if o.Kind == sensors.KindRoomSensor {
		gain = 0.1
	}
	if !f.yawPrimed {
		f.yaw, f.yawPrimed = o.Yaw, true
		return
	}
	f.yaw += gain * mathx.WrapAngle(o.Yaw-f.yaw)
	f.yaw = mathx.WrapAngle(f.yaw)
}

// Estimate returns the fused pose extrapolated to time at.
func (f *Fuser) Estimate(at time.Duration) (pose.Pose, bool) {
	if !f.kf.Primed() {
		return pose.Pose{}, false
	}
	return pose.Pose{
		Time:     at,
		Position: f.kf.Predict(at),
		Rotation: mathx.QuatAxisAngle(mathx.V3(0, 1, 0), f.yaw),
		Velocity: f.kf.Velocity(),
	}, true
}

// Variance returns the mean position variance of the estimate.
func (f *Fuser) Variance() float64 { return f.kf.Variance() }

// Stats reports accepted/rejected observation counts.
func (f *Fuser) Stats() (accepted, rejected uint64) { return f.accepted, f.rejected }

// LastObservation returns the time of the newest accepted observation.
func (f *Fuser) LastObservation() time.Duration { return f.lastTime }

// Stale reports whether no observation has been accepted within window
// of now — the signal the edge uses to despawn an avatar whose wearer
// left coverage.
func (f *Fuser) Stale(now, window time.Duration) bool {
	if !f.kf.Primed() {
		return true
	}
	return now-f.lastTime > window
}

// RMSError is a test/experiment helper: root-mean-square position error of
// estimates against a ground-truth evaluator over [from, to) sampled at dt.
func RMSError(f *Fuser, truth func(time.Duration) mathx.Vec3, from, to, dt time.Duration) float64 {
	var ss float64
	n := 0
	for t := from; t < to; t += dt {
		est, ok := f.Estimate(t)
		if !ok {
			continue
		}
		d := est.Position.Dist(truth(t))
		ss += d * d
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(ss / float64(n))
}
