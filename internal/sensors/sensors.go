// Package sensors simulates the two capture paths of the paper's Fig. 3
// physical classroom: MR headsets that track their wearer ("track their
// locations and other features, such as facial expressions") and the
// non-intrusive room sensor array that "can estimate the exact pose of the
// participants".
//
// Both produce noisy Observations of a ground-truth trace.MotionScript.
// Headsets sample fast and never lose sight of the wearer but accumulate
// drift; room sensors are drift-free but slower, noisier with distance and
// subject to occlusion dropouts. The fusion stage (package fusion) exists
// precisely because neither source is sufficient alone.
package sensors

import (
	"fmt"
	"math"
	"time"

	"metaclass/internal/expression"
	"metaclass/internal/mathx"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// Kind distinguishes observation sources.
type Kind uint8

// Observation sources.
const (
	KindHeadset Kind = iota + 1
	KindRoomSensor
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHeadset:
		return "headset"
	case KindRoomSensor:
		return "room"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Observation is one timestamped pose measurement of a participant.
type Observation struct {
	Kind      Kind
	SensorID  string
	Time      time.Duration
	Position  mathx.Vec3
	Yaw       float64 // observed heading, radians
	PosStdDev float64 // 1-sigma position noise the producer believes it has
}

// ObservationSink receives sensor output.
type ObservationSink func(Observation)

// HeadsetConfig parameterizes a simulated MR headset tracker.
type HeadsetConfig struct {
	// RateHz is the tracking sample rate (default 60).
	RateHz float64
	// DriftRate is the bias random-walk intensity in m/sqrt(s)
	// (default 0.002). Drift is what room sensors correct.
	DriftRate float64
}

const (
	// headsetNoiseStd is the per-sample Gaussian position noise in meters:
	// five millimeters, inside-out tracking grade.
	headsetNoiseStd = 0.005
	// headsetYawNoiseStd is a headset's heading noise in radians.
	headsetYawNoiseStd = 0.01
)

func (c *HeadsetConfig) applyDefaults() {
	if c.RateHz <= 0 {
		c.RateHz = 60
	}
	if c.DriftRate < 0 {
		c.DriftRate = 0
	} else if c.DriftRate == 0 {
		c.DriftRate = 0.002
	}
}

// Headset samples a motion script at its tracking rate, accumulating drift,
// and forwards observations (plus expression samples) to sinks.
type Headset struct {
	id     string
	cfg    HeadsetConfig
	sim    *vclock.Sim
	script trace.MotionScript
	sink   ObservationSink

	exprSink func(time.Duration, expression.Expression)
	exprGen  func(time.Duration) expression.Expression

	bias   mathx.Vec3
	cancel func()
	emits  uint64
}

// NewHeadset creates a headset tracker for participant id following script.
// Call Start to begin sampling.
func NewHeadset(id string, sim *vclock.Sim, script trace.MotionScript, cfg HeadsetConfig, sink ObservationSink) *Headset {
	cfg.applyDefaults()
	return &Headset{id: id, cfg: cfg, sim: sim, script: script, sink: sink}
}

// SetExpressionSource attaches a generator and sink for facial expressions,
// sampled at the same rate as poses.
func (h *Headset) SetExpressionSource(gen func(time.Duration) expression.Expression,
	sink func(time.Duration, expression.Expression)) {
	h.exprGen, h.exprSink = gen, sink
}

// Start begins emitting observations on the simulation clock.
func (h *Headset) Start() {
	if h.cancel != nil {
		return
	}
	interval := time.Duration(float64(time.Second) / h.cfg.RateHz)
	h.cancel = h.sim.Ticker(interval, h.sample)
}

// Stop halts sampling. Safe to call repeatedly.
func (h *Headset) Stop() {
	if h.cancel != nil {
		h.cancel()
		h.cancel = nil
	}
}

// Emitted returns the number of observations produced.
func (h *Headset) Emitted() uint64 { return h.emits }

func (h *Headset) sample() {
	now := h.sim.Now()
	truth := h.script.PoseAt(now)
	rng := h.sim.Rand()

	// Bias random walk: step std = DriftRate * sqrt(dt).
	dt := 1 / h.cfg.RateHz
	step := h.cfg.DriftRate * math.Sqrt(dt)
	h.bias = h.bias.Add(mathx.V3(
		rng.NormFloat64()*step, rng.NormFloat64()*step*0.2, rng.NormFloat64()*step,
	))

	obs := Observation{
		Kind:     KindHeadset,
		SensorID: h.id,
		Time:     now,
		Position: truth.Position.Add(h.bias).Add(mathx.V3(
			rng.NormFloat64()*headsetNoiseStd,
			rng.NormFloat64()*headsetNoiseStd,
			rng.NormFloat64()*headsetNoiseStd,
		)),
		Yaw:       truth.Rotation.Yaw() + rng.NormFloat64()*headsetYawNoiseStd,
		PosStdDev: headsetNoiseStd + h.bias.Len(), // honest about drift uncertainty
	}
	h.emits++
	if h.sink != nil {
		h.sink(obs)
	}
	if h.exprGen != nil && h.exprSink != nil {
		h.exprSink(now, h.exprGen(now))
	}
}

// Drift exposes the current accumulated bias (for tests and experiments).
func (h *Headset) Drift() mathx.Vec3 { return h.bias }
