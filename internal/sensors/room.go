package sensors

import (
	"fmt"
	"math"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// RoomSensorConfig parameterizes one ceiling/wall-mounted pose sensor.
type RoomSensorConfig struct {
	// Position is the sensor mount point in classroom coordinates.
	Position mathx.Vec3
	// OcclusionRate is the probability any given sample is lost to
	// occlusion by furniture/other participants (default 0.1).
	OcclusionRate float64
}

const (
	// roomRateHz is a room sensor's estimation rate: vision pipelines are
	// slower than headset IMUs.
	roomRateHz = 15
	// roomBaseNoiseStd is the position noise in meters at 1 m distance;
	// noise grows linearly with distance.
	roomBaseNoiseStd = 0.01
	// roomRange is the maximum usable distance in meters.
	roomRange = 12
	// roomYawNoiseStd is a room sensor's heading estimation noise in radians:
	// body orientation from vision is coarse.
	roomYawNoiseStd = 0.05
)

func (c *RoomSensorConfig) applyDefaults() {
	if c.OcclusionRate < 0 {
		c.OcclusionRate = 0
	} else if c.OcclusionRate == 0 {
		c.OcclusionRate = 0.1
	}
}

// RoomSensor observes every tracked participant in range at its rate.
type RoomSensor struct {
	id      string
	cfg     RoomSensorConfig
	sim     *vclock.Sim
	targets map[string]trace.MotionScript
	sink    ObservationSink
	cancel  func()

	emitted  uint64
	occluded uint64
}

// NewRoomSensor creates a sensor; add participants with Track, then Start.
func NewRoomSensor(id string, sim *vclock.Sim, cfg RoomSensorConfig, sink ObservationSink) *RoomSensor {
	cfg.applyDefaults()
	return &RoomSensor{
		id: id, cfg: cfg, sim: sim, sink: sink,
		targets: make(map[string]trace.MotionScript),
	}
}

// Track registers a participant's ground-truth script under its ID.
func (s *RoomSensor) Track(participant string, script trace.MotionScript) {
	s.targets[participant] = script
}

// Untrack removes a participant (left the room).
func (s *RoomSensor) Untrack(participant string) { delete(s.targets, participant) }

// Start begins sampling on the simulation clock.
func (s *RoomSensor) Start() {
	if s.cancel != nil {
		return
	}
	s.cancel = s.sim.Ticker(time.Second/roomRateHz, s.sample)
}

// Stop halts sampling.
func (s *RoomSensor) Stop() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// Emitted and Occluded report sample accounting.
func (s *RoomSensor) Emitted() uint64 { return s.emitted }

// Occluded returns the number of samples lost to occlusion or range.
func (s *RoomSensor) Occluded() uint64 { return s.occluded }

func (s *RoomSensor) sample() {
	now := s.sim.Now()
	rng := s.sim.Rand()
	// Map iteration order is randomized by the runtime, which would break
	// run-to-run determinism of RNG consumption; iterate in sorted key order.
	for _, pid := range sortedKeys(s.targets) {
		script := s.targets[pid]
		truth := script.PoseAt(now)
		dist := truth.Position.Dist(s.cfg.Position)
		if dist > roomRange {
			s.occluded++
			continue
		}
		if rng.Float64() < s.cfg.OcclusionRate {
			s.occluded++
			continue
		}
		noise := roomBaseNoiseStd * math.Max(dist, 1)
		obs := Observation{
			Kind:     KindRoomSensor,
			SensorID: fmt.Sprintf("%s/%s", s.id, pid),
			Time:     now,
			Position: truth.Position.Add(mathx.V3(
				rng.NormFloat64()*noise, rng.NormFloat64()*noise, rng.NormFloat64()*noise,
			)),
			Yaw:       truth.Rotation.Yaw() + rng.NormFloat64()*roomYawNoiseStd,
			PosStdDev: noise,
		}
		s.emitted++
		if s.sink != nil {
			s.sink(obs)
		}
	}
}

func sortedKeys(m map[string]trace.MotionScript) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort; rooms track tens of participants.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Array is a set of room sensors covering a classroom from multiple mounts,
// giving the fusion stage redundant viewpoints (occlusions decorrelate).
type Array struct {
	sensors []*RoomSensor
}

// NewArray places n sensors evenly around the perimeter of a room of the
// given width and depth (meters), mounted at 2.5 m height.
func NewArray(n int, width, depth float64, sim *vclock.Sim, cfg RoomSensorConfig, sink ObservationSink) *Array {
	if n < 1 {
		n = 1
	}
	a := &Array{}
	for i := 0; i < n; i++ {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pos := mathx.V3(width/2*math.Cos(angle), 2.5, depth/2*math.Sin(angle))
		c := cfg
		c.Position = pos
		a.sensors = append(a.sensors, NewRoomSensor(fmt.Sprintf("cam%d", i), sim, c, sink))
	}
	return a
}

// Track registers a participant with every sensor in the array.
func (a *Array) Track(participant string, script trace.MotionScript) {
	for _, s := range a.sensors {
		s.Track(participant, script)
	}
}

// Untrack removes a participant from every sensor.
func (a *Array) Untrack(participant string) {
	for _, s := range a.sensors {
		s.Untrack(participant)
	}
}

// Start starts every sensor.
func (a *Array) Start() {
	for _, s := range a.sensors {
		s.Start()
	}
}

// Stop stops every sensor.
func (a *Array) Stop() {
	for _, s := range a.sensors {
		s.Stop()
	}
}

// Sensors exposes the individual sensors.
func (a *Array) Sensors() []*RoomSensor { return a.sensors }
