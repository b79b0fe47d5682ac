package sensors

import (
	"testing"
	"time"

	"metaclass/internal/expression"
	"metaclass/internal/mathx"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

func TestHeadsetEmitsAtRate(t *testing.T) {
	sim := vclock.New(1)
	var got []Observation
	script := trace.Seated{Anchor: mathx.V3(1, 0, 2)}
	h := NewHeadset("p1", sim, script, HeadsetConfig{RateHz: 60}, func(o Observation) {
		got = append(got, o)
	})
	h.Start()
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	h.Stop()
	if len(got) != 60 {
		t.Errorf("observations = %d, want 60", len(got))
	}
	if got[0].Kind != KindHeadset || got[0].SensorID != "p1" {
		t.Errorf("first obs = %+v", got[0])
	}
	if h.Emitted() != 60 {
		t.Errorf("Emitted = %d", h.Emitted())
	}
}

func TestHeadsetObservationsNearTruth(t *testing.T) {
	sim := vclock.New(2)
	script := trace.Seated{Anchor: mathx.V3(0, 0, 0)}
	var worst float64
	h := NewHeadset("p1", sim, script, HeadsetConfig{DriftRate: 0.001}, func(o Observation) {
		truth := script.PoseAt(o.Time)
		if d := o.Position.Dist(truth.Position); d > worst {
			worst = d
		}
	})
	h.Start()
	_ = sim.Run(10 * time.Second)
	if worst > 0.1 {
		t.Errorf("worst headset error %v m, want < 0.1", worst)
	}
	if worst == 0 {
		t.Error("no noise applied at all")
	}
}

func TestHeadsetDriftAccumulates(t *testing.T) {
	sim := vclock.New(3)
	script := trace.Still{Anchor: mathx.V3(0, 1.2, 0)}
	h := NewHeadset("p1", sim, script, HeadsetConfig{DriftRate: 0.05}, func(Observation) {})
	h.Start()
	_ = sim.Run(time.Second)
	early := h.Drift().Len()
	_ = sim.Run(60 * time.Second)
	late := h.Drift().Len()
	if late <= early {
		t.Skip("random walk happened to shrink; rerun-safe skip")
	}
	if late == 0 {
		t.Error("no drift accumulated")
	}
}

func TestHeadsetStartIdempotent(t *testing.T) {
	sim := vclock.New(4)
	count := 0
	h := NewHeadset("p1", sim, trace.Still{}, HeadsetConfig{RateHz: 10}, func(Observation) { count++ })
	h.Start()
	h.Start() // second Start must not double the rate
	_ = sim.Run(time.Second)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	h.Stop()
	h.Stop() // double Stop is safe
}

func TestHeadsetExpressionSampling(t *testing.T) {
	sim := vclock.New(5)
	exprs := 0
	h := NewHeadset("p1", sim, trace.Still{}, HeadsetConfig{RateHz: 30}, func(Observation) {})
	h.SetExpressionSource(
		func(time.Duration) expression.Expression { return expression.PresetSmile.Make() },
		func(_ time.Duration, e expression.Expression) {
			exprs++
			if e.Weights[expression.ChanSmile] == 0 {
				t.Error("expression lost in transit")
			}
		},
	)
	h.Start()
	_ = sim.Run(time.Second)
	if exprs != 30 {
		t.Errorf("expression samples = %d, want 30", exprs)
	}
}

func TestRoomSensorObservesTrackedOnly(t *testing.T) {
	sim := vclock.New(6)
	var got []Observation
	s := NewRoomSensor("cam0", sim, RoomSensorConfig{
		Position: mathx.V3(0, 2.5, 0), OcclusionRate: 1e-9,
	}, func(o Observation) { got = append(got, o) })
	s.Track("alice", trace.Still{Anchor: mathx.V3(1, 1.2, 1)})
	s.Start()
	_ = sim.Run(time.Second)
	if len(got) != roomRateHz {
		t.Fatalf("observations = %d, want %d", len(got), roomRateHz)
	}
	s.Untrack("alice")
	before := len(got)
	_ = sim.Run(2 * time.Second)
	if len(got) != before {
		t.Error("untracked participant still observed")
	}
}

func TestRoomSensorRangeLimit(t *testing.T) {
	sim := vclock.New(7)
	count := 0
	s := NewRoomSensor("cam0", sim, RoomSensorConfig{
		Position: mathx.V3(0, 2.5, 0), OcclusionRate: 1e-9,
	}, func(Observation) { count++ })
	s.Track("far", trace.Still{Anchor: mathx.V3(100, 1.2, 0)})
	s.Start()
	_ = sim.Run(time.Second)
	if count != 0 {
		t.Errorf("out-of-range target observed %d times", count)
	}
	if s.Occluded() == 0 {
		t.Error("range misses not counted")
	}
}

func TestRoomSensorOcclusionRate(t *testing.T) {
	sim := vclock.New(8)
	count := 0
	s := NewRoomSensor("cam0", sim, RoomSensorConfig{
		Position: mathx.V3(0, 2.5, 0), OcclusionRate: 0.5,
	}, func(Observation) { count++ })
	s.Track("p", trace.Still{Anchor: mathx.V3(1, 1.2, 0)})
	s.Start()
	_ = sim.Run(1000 * time.Second / roomRateHz) // 1000 samples
	if count < 400 || count > 600 {
		t.Errorf("delivered %d of 1000 at 50%% occlusion", count)
	}
}

func TestRoomSensorNoiseGrowsWithDistance(t *testing.T) {
	sim := vclock.New(9)
	var nearStd, farStd float64
	s := NewRoomSensor("cam0", sim, RoomSensorConfig{
		Position: mathx.V3(0, 2.5, 0), OcclusionRate: 1e-9,
	}, func(o Observation) {
		switch o.SensorID {
		case "cam0/near":
			nearStd = o.PosStdDev
		case "cam0/far":
			farStd = o.PosStdDev
		}
	})
	s.Track("near", trace.Still{Anchor: mathx.V3(1, 2.5, 0)})
	s.Track("far", trace.Still{Anchor: mathx.V3(10, 2.5, 0)})
	s.Start()
	_ = sim.Run(time.Second)
	if farStd <= nearStd {
		t.Errorf("far std %v should exceed near std %v", farStd, nearStd)
	}
}

func TestArrayCoversRoom(t *testing.T) {
	sim := vclock.New(10)
	bySensor := map[string]int{}
	arr := NewArray(4, 10, 8, sim, RoomSensorConfig{OcclusionRate: 1e-9}, func(o Observation) {
		bySensor[o.SensorID]++
	})
	arr.Track("p", trace.Seated{Anchor: mathx.V3(0, 0, 0)})
	arr.Start()
	_ = sim.Run(time.Second)
	arr.Stop()
	if len(arr.Sensors()) != 4 {
		t.Fatalf("sensors = %d", len(arr.Sensors()))
	}
	if len(bySensor) != 4 {
		t.Errorf("only %d sensors observed: %v", len(bySensor), bySensor)
	}
	arr.Untrack("p")
}

func TestKindString(t *testing.T) {
	if KindHeadset.String() != "headset" || KindRoomSensor.String() != "room" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []mathx.Vec3 {
		sim := vclock.New(77)
		var out []mathx.Vec3
		h := NewHeadset("p", sim, trace.Seated{Anchor: mathx.V3(1, 0, 1)}, HeadsetConfig{}, func(o Observation) {
			out = append(out, o.Position)
		})
		s := NewRoomSensor("cam", sim, RoomSensorConfig{Position: mathx.V3(0, 2.5, 0)}, func(o Observation) {
			out = append(out, o.Position)
		})
		s.Track("p", trace.Seated{Anchor: mathx.V3(1, 0, 1)})
		h.Start()
		s.Start()
		_ = sim.Run(2 * time.Second)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
}
