package render

import (
	"testing"
	"time"
)

func TestDeviceClassSpecs(t *testing.T) {
	classes := []DeviceClass{DeviceStandalone, DeviceTethered, DeviceCloudGPU}
	var prev time.Duration = 1 << 62
	for _, d := range classes {
		ft := d.FrameTime(1_000_000)
		if ft <= 0 {
			t.Errorf("%v frame time %v", d, ft)
		}
		if ft >= prev {
			t.Errorf("faster class %v not faster: %v >= %v", d, ft, prev)
		}
		prev = ft
	}
	if DeviceClass(99).FrameTime(1000) != 0 {
		t.Error("unknown class renders")
	}
	if DeviceStandalone.FrameTime(-5) != DeviceStandalone.FrameTime(0) {
		t.Error("negative triangles mishandled")
	}
}

func TestDeviceOnlyScalesWithComplexity(t *testing.T) {
	small := Evaluate(PlanDeviceOnly, DeviceStandalone, 10_000, 0, PipelineConfig{}, 0)
	big := Evaluate(PlanDeviceOnly, DeviceStandalone, 10_000_000, 0, PipelineConfig{}, 0)
	if big.LocalFrameTime <= small.LocalFrameTime {
		t.Error("frame time did not grow with scene complexity")
	}
	if small.AvatarLag != 0 || small.MispredictRate != 0 {
		t.Error("device-only has no pipeline lag")
	}
}

func TestSplitOffloadsLocalCost(t *testing.T) {
	cfg := PipelineConfig{RTT: 40 * time.Millisecond}
	hq, lq := int64(20_000_000), int64(100_000)
	deviceOnly := Evaluate(PlanDeviceOnly, DeviceStandalone, hq, lq, cfg, 0)
	split := Evaluate(PlanSplit, DeviceStandalone, hq, lq, cfg, 0)
	if split.LocalFrameTime >= deviceOnly.LocalFrameTime {
		t.Errorf("split local %v not below device-only %v", split.LocalFrameTime, deviceOnly.LocalFrameTime)
	}
	if split.AvatarLag <= cfg.RTT {
		t.Errorf("split avatar lag %v must exceed RTT %v", split.AvatarLag, cfg.RTT)
	}
	if split.CloudFrameTime <= 0 {
		t.Error("split reports no cloud cost")
	}
}

func TestSpeculationHidesLag(t *testing.T) {
	cfg := PipelineConfig{RTT: 80 * time.Millisecond}
	const hq, lq = 20_000_000, 100_000
	still := Evaluate(PlanSplitSpeculative, DeviceStandalone, hq, lq, cfg, 0.05)
	turning := Evaluate(PlanSplitSpeculative, DeviceStandalone, hq, lq, cfg, 3.0)
	plain := Evaluate(PlanSplit, DeviceStandalone, hq, lq, cfg, 0)

	if still.AvatarLag >= plain.AvatarLag {
		t.Errorf("speculation did not reduce lag: %v vs %v", still.AvatarLag, plain.AvatarLag)
	}
	if still.MispredictRate >= turning.MispredictRate {
		t.Errorf("mispredicts should grow with head velocity: %v vs %v",
			still.MispredictRate, turning.MispredictRate)
	}
	if turning.MispredictRate <= 0 || turning.MispredictRate >= 1 {
		t.Errorf("mispredict rate out of range: %v", turning.MispredictRate)
	}
	if turning.AvatarLag <= still.AvatarLag {
		t.Error("faster head motion should see more effective lag")
	}
}

func TestSpeculationNegativeVelocityClamped(t *testing.T) {
	cfg := PipelineConfig{RTT: 40 * time.Millisecond}
	rep := Evaluate(PlanSplitSpeculative, DeviceStandalone, 1e6, 1e5, cfg, -5)
	if rep.MispredictRate != 0 {
		t.Errorf("negative velocity mispredict = %v", rep.MispredictRate)
	}
}

func TestPlanNamesAndSet(t *testing.T) {
	if len(Plans()) != 3 {
		t.Fatalf("Plans = %v", Plans())
	}
	seen := map[string]bool{}
	for _, p := range Plans() {
		if p.String() == "" || seen[p.String()] {
			t.Errorf("bad plan name %q", p.String())
		}
		seen[p.String()] = true
	}
	if Plan(99).String() != "Plan(99)" {
		t.Error("unknown plan string")
	}
	if got := Evaluate(Plan(99), DeviceStandalone, 1, 1, PipelineConfig{}, 0); got.LocalFrameTime != 0 {
		t.Error("unknown plan rendered")
	}
}

func TestC3Claim(t *testing.T) {
	// The paper's C3 scenario: a classroom of 30 photoreal avatars
	// (500k tris each = 15M) overwhelms a standalone headset but split
	// rendering holds 72 Hz locally.
	const sceneHQ = 30 * 500_000
	const sceneLQ = 30 * 5_000
	cfg := PipelineConfig{RTT: 30 * time.Millisecond}

	only := Evaluate(PlanDeviceOnly, DeviceStandalone, sceneHQ, sceneLQ, cfg, 0.3)
	split := Evaluate(PlanSplitSpeculative, DeviceStandalone, sceneHQ, sceneLQ, cfg, 0.3)

	budget := time.Second / 72
	if only.LocalFrameTime <= budget {
		t.Errorf("device-only holds budget (%v <= %v); scene too light for the claim",
			only.LocalFrameTime, budget)
	}
	if split.LocalFrameTime > budget {
		t.Errorf("split misses budget: %v > %v", split.LocalFrameTime, budget)
	}
}
