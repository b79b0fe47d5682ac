// Package render models the avatar rendering economics of paper challenge
// C3: photoreal avatars "may be too complex to render with WebGL and
// lightweight VR headsets", so edges/cloud "pre-render some elements of the
// digital scene", optionally merging "a low-quality version of the models
// on-device ... with high-quality frames rendered in the cloud" (split
// rendering), hidden behind speculative pre-rendering (the paper's ref [45],
// Outatime).
//
// GPUs are not available in this environment, so rendering is an analytic
// cost model: a device class is a triangle-throughput budget plus per-frame
// overhead, calibrated to public GPU spec sheets. The model is sufficient
// because C3 is a scheduling/latency claim — about whether frame budgets
// hold and how stale the high-quality layer is — not about pixels.
package render

import (
	"fmt"
	"math"
	"time"
)

// DeviceClass is a rendering tier.
type DeviceClass uint8

// Device classes.
const (
	// DeviceStandalone is a mobile-chipset headset (the paper's
	// "lightweight VR headset").
	DeviceStandalone DeviceClass = iota + 1
	// DeviceTethered is a desktop-GPU-backed headset.
	DeviceTethered
	// DeviceCloudGPU is a datacenter render node.
	DeviceCloudGPU
)

var deviceSpecs = map[DeviceClass]struct {
	name       string
	trisPerSec float64
	overhead   time.Duration
}{
	DeviceStandalone: {"standalone", 120e6, 3 * time.Millisecond},
	DeviceTethered:   {"tethered", 1.2e9, 1500 * time.Microsecond},
	DeviceCloudGPU:   {"cloud", 8e9, time.Millisecond},
}

// String implements fmt.Stringer.
func (d DeviceClass) String() string {
	if s, ok := deviceSpecs[d]; ok {
		return s.name
	}
	return fmt.Sprintf("DeviceClass(%d)", uint8(d))
}

// FrameTime returns the time the device needs to render a scene of the
// given triangle count.
func (d DeviceClass) FrameTime(triangles int64) time.Duration {
	s, ok := deviceSpecs[d]
	if !ok {
		return 0
	}
	if triangles < 0 {
		triangles = 0
	}
	return s.overhead + time.Duration(float64(triangles)/s.trisPerSec*float64(time.Second))
}

// Plan selects the rendering architecture.
type Plan uint8

// Rendering plans (the E6 comparison set).
const (
	// PlanDeviceOnly renders everything locally at full quality.
	PlanDeviceOnly Plan = iota + 1
	// PlanSplit renders low-LoD locally and streams cloud-rendered
	// high-quality avatar layers, which arrive one network round behind.
	PlanSplit
	// PlanSplitSpeculative is PlanSplit with Outatime-style pose-predicted
	// pre-rendering that hides the round trip when the prediction holds.
	PlanSplitSpeculative
)

// String implements fmt.Stringer.
func (p Plan) String() string {
	switch p {
	case PlanDeviceOnly:
		return "device-only"
	case PlanSplit:
		return "split"
	case PlanSplitSpeculative:
		return "split-speculative"
	default:
		return fmt.Sprintf("Plan(%d)", uint8(p))
	}
}

// PipelineConfig holds the network cost of the cloud leg.
type PipelineConfig struct {
	// RTT is the device<->cloud round trip.
	RTT time.Duration
}

const (
	// encodeTime and decodeTime are the video codec costs of the streamed
	// layer.
	encodeTime = 4 * time.Millisecond
	decodeTime = 2 * time.Millisecond
	// speculationHorizonScale converts head angular velocity (rad/s) times
	// RTT into a mispredict probability (calibrated so 90 deg/s at 100 ms
	// RTT mispredicts ~17% of frames).
	speculationHorizonScale = 1.2
)

// Report is the outcome of evaluating a plan on a scene.
type Report struct {
	Plan Plan
	// LocalFrameTime is what the headset spends per frame; it determines
	// whether the refresh budget holds.
	LocalFrameTime time.Duration
	// AvatarLag is how stale the high-quality avatar layer is relative to
	// head motion (zero for device-only; the full pipeline for split; the
	// expected value under speculation).
	AvatarLag time.Duration
	// MispredictRate is the fraction of frames the speculative layer shows
	// a corrected (re-projected) image for.
	MispredictRate float64
	// CloudFrameTime is the render cost paid by the cloud (zero when
	// unused) — the operator-side bill of the offload.
	CloudFrameTime time.Duration
}

// Evaluate scores a plan for a device rendering a scene with the given
// high-quality and low-quality triangle counts. headAngVel is the user's
// head angular velocity in rad/s (drives speculation accuracy).
func Evaluate(plan Plan, device DeviceClass, hqTris, lqTris int64, cfg PipelineConfig, headAngVel float64) Report {
	switch plan {
	case PlanDeviceOnly:
		return Report{
			Plan:           plan,
			LocalFrameTime: device.FrameTime(hqTris),
		}
	case PlanSplit, PlanSplitSpeculative:
		cloud := DeviceCloudGPU.FrameTime(hqTris)
		lag := cfg.RTT + encodeTime + decodeTime + cloud
		rep := Report{
			Plan:           plan,
			LocalFrameTime: device.FrameTime(lqTris) + decodeTime,
			AvatarLag:      lag,
			CloudFrameTime: cloud,
		}
		if plan == PlanSplitSpeculative {
			// Mispredict probability grows with how far the head moves over
			// one pipeline delay: p = 1 - exp(-scale * angVel * lag).
			if headAngVel < 0 {
				headAngVel = 0
			}
			p := 1 - math.Exp(-speculationHorizonScale*headAngVel*lag.Seconds())
			rep.MispredictRate = p
			// Hidden on hits; full pipeline on misses.
			rep.AvatarLag = time.Duration(p * float64(lag))
		}
		return rep
	default:
		return Report{Plan: plan}
	}
}

// Plans returns the comparison set.
func Plans() []Plan { return []Plan{PlanDeviceOnly, PlanSplit, PlanSplitSpeculative} }
