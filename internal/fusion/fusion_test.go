package fusion

import (
	"testing"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/pose"
	"metaclass/internal/sensors"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// runScenario wires a headset and a 3-sensor room array through a Fuser over
// a motion script and returns the fuser plus the script.
func runScenario(t *testing.T, seed int64, useHeadset, useRoom bool, script trace.MotionScript, dur time.Duration) *Fuser {
	t.Helper()
	sim := vclock.New(seed)
	f := New()
	sink := func(o sensors.Observation) { f.Observe(o) }
	if useHeadset {
		h := sensors.NewHeadset("p", sim, script, sensors.HeadsetConfig{DriftRate: 0.02}, sink)
		h.Start()
	}
	if useRoom {
		arr := sensors.NewArray(3, 10, 8, sim, sensors.RoomSensorConfig{}, sink)
		arr.Track("p", script)
		arr.Start()
	}
	if err := sim.Run(dur); err != nil {
		t.Fatal(err)
	}
	return f
}

func truthFn(script trace.MotionScript) func(time.Duration) mathx.Vec3 {
	return func(t time.Duration) mathx.Vec3 { return script.PoseAt(t).Position }
}

func TestFusedBeatsSingleSource(t *testing.T) {
	script := trace.Seated{Anchor: mathx.V3(1, 0, 2), Phase: 0.4}
	const dur = 30 * time.Second
	eval := func(f *Fuser) float64 {
		return RMSError(f, truthFn(script), 5*time.Second, dur, 50*time.Millisecond)
	}
	headOnly := eval(runScenario(t, 1, true, false, script, dur))
	roomOnly := eval(runScenario(t, 1, false, true, script, dur))
	fused := eval(runScenario(t, 1, true, true, script, dur))

	t.Logf("headset=%.4f room=%.4f fused=%.4f (m RMS)", headOnly, roomOnly, fused)
	if fused >= headOnly {
		t.Errorf("fused (%v) not better than headset-only (%v)", fused, headOnly)
	}
	if fused >= roomOnly {
		t.Errorf("fused (%v) not better than room-only (%v)", fused, roomOnly)
	}
}

func TestEstimateUnprimed(t *testing.T) {
	f := New()
	if _, ok := f.Estimate(time.Second); ok {
		t.Error("unprimed fuser returned estimate")
	}
	if !f.Stale(time.Second, time.Millisecond) {
		t.Error("unprimed fuser not stale")
	}
}

func TestOutlierGate(t *testing.T) {
	f := New()
	// Steady stream at the origin.
	for i := 0; i < 100; i++ {
		ok := f.Observe(sensors.Observation{
			Kind: sensors.KindHeadset, Time: time.Duration(i) * 20 * time.Millisecond,
			Position: mathx.V3(0, 1.2, 0), PosStdDev: 0.01,
		})
		if !ok {
			t.Fatalf("inlier %d rejected", i)
		}
	}
	// A vision identity-switch teleports the measurement 5 m away.
	ok := f.Observe(sensors.Observation{
		Kind: sensors.KindRoomSensor, Time: 2020 * time.Millisecond,
		Position: mathx.V3(5, 1.2, 0), PosStdDev: 0.05,
	})
	if ok {
		t.Error("teleport outlier accepted")
	}
	_, rejected := f.Stats()
	if rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
	// Estimate stays near the origin.
	est, _ := f.Estimate(2020 * time.Millisecond)
	if est.Position.Dist(mathx.V3(0, 1.2, 0)) > 0.1 {
		t.Errorf("estimate corrupted by outlier: %v", est.Position)
	}
}

func TestColdStartBypassesGate(t *testing.T) {
	f := New()
	// Wildly scattered first samples must all be accepted (no prior yet):
	// the gate opens only after coldSamples of them.
	positions := []mathx.Vec3{{X: 0}, {X: 10}, {X: -5}, {X: 7}, {X: -12}, {X: 3}, {X: 15}, {X: -8}, {X: 20}, {X: -3}}
	if len(positions) != coldSamples {
		t.Fatalf("%d cold samples fed, the gate opens after %d", len(positions), coldSamples)
	}
	for i, p := range positions {
		if !f.Observe(sensors.Observation{Time: time.Duration(i) * time.Second, Position: p, PosStdDev: 0.01}) {
			t.Errorf("cold sample %d rejected", i)
		}
	}
}

func TestYawFusionPrefersHeadset(t *testing.T) {
	f := New()
	// Headset says yaw=1.0, room says yaw=0.0, alternating.
	for i := 0; i < 200; i++ {
		tm := time.Duration(i) * 20 * time.Millisecond
		f.Observe(sensors.Observation{Kind: sensors.KindHeadset, Time: tm,
			Position: mathx.V3(0, 1.2, 0), Yaw: 1.0, PosStdDev: 0.01})
		f.Observe(sensors.Observation{Kind: sensors.KindRoomSensor, Time: tm,
			Position: mathx.V3(0, 1.2, 0), Yaw: 0.0, PosStdDev: 0.05})
	}
	est, _ := f.Estimate(4 * time.Second)
	yaw := est.Rotation.Yaw()
	if yaw < 0.6 {
		t.Errorf("fused yaw = %v, want headset-dominated (> 0.6)", yaw)
	}
}

func TestStaleDetection(t *testing.T) {
	f := New()
	f.Observe(sensors.Observation{Time: time.Second, Position: mathx.V3(0, 1, 0), PosStdDev: 0.01})
	if f.Stale(time.Second+100*time.Millisecond, time.Second) {
		t.Error("fresh fuser reported stale")
	}
	if !f.Stale(10*time.Second, time.Second) {
		t.Error("old fuser not stale")
	}
	if f.LastObservation() != time.Second {
		t.Errorf("LastObservation = %v", f.LastObservation())
	}
}

func TestEstimateExtrapolatesVelocity(t *testing.T) {
	f := New()
	// Constant velocity 1 m/s along X.
	for i := 0; i <= 100; i++ {
		tm := time.Duration(i) * 20 * time.Millisecond
		f.Observe(sensors.Observation{Time: tm,
			Position: mathx.V3(tm.Seconds(), 1.2, 0), PosStdDev: 0.005})
	}
	// Predict 100 ms past the last observation.
	est, ok := f.Estimate(2100 * time.Millisecond)
	if !ok {
		t.Fatal("no estimate")
	}
	if est.Position.X < 2.0 || est.Position.X > 2.2 {
		t.Errorf("extrapolated X = %v, want ~2.1", est.Position.X)
	}
	var _ pose.Pose = est
}

func TestFusionVarianceShrinksWithSources(t *testing.T) {
	script := trace.Still{Anchor: mathx.V3(0, 1.2, 0)}
	one := runScenario(t, 5, true, false, script, 10*time.Second)
	two := runScenario(t, 5, true, true, script, 10*time.Second)
	if two.Variance() >= one.Variance() {
		t.Errorf("variance with 2 sources (%v) not below 1 source (%v)",
			two.Variance(), one.Variance())
	}
}
