// Package classroom is the public API of the metaclass platform: a faithful,
// runnable realization of the virtual-physical blended Metaverse classroom
// blueprint from "Re-shaping Post-COVID-19 Teaching and Learning" (ICDCS'22).
//
// A Deployment assembles the paper's unit case (Fig. 2/3): physical campuses
// with MR classrooms and edge servers, one cloud-hosted VR classroom,
// optional regional relays, locally-sensed participants, and remote VR
// learners. Everything runs on a deterministic virtual clock over a
// simulated network, so sessions are reproducible and latency measurements
// exact.
//
// Quickstart:
//
//	d, _ := classroom.NewDeployment(classroom.Config{Seed: 1})
//	gz, _ := d.AddCampus("gz", 1)
//	cwb, _ := d.AddCampus("cwb", 2)
//	_ = d.ConnectCampuses(gz, cwb)
//	teacher, _ := gz.AddEducator("Prof. Wang", trace.Lecturer{...})
//	_, _ = gz.AddLearner("alice", trace.Seated{...})
//	_, _ = cwb.AddLearner("bob", trace.Seated{...})
//	remote, _ := d.AddRemoteLearner("kaist-1", trace.Seated{}, netsim.ResidentialBroadband(30*time.Millisecond))
//	_ = d.Run(30 * time.Second)
//	p, ok := remote.DisplayedPose(teacher, d.Now())
package classroom

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"time"

	"metaclass/internal/avatar"
	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/edge"
	"metaclass/internal/endpoint"
	"metaclass/internal/expression"
	"metaclass/internal/interest"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/rig"
	"metaclass/internal/sensors"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// Re-exported identifier types so callers rarely need internal imports.
type (
	// ParticipantID identifies a learner, educator or guest.
	ParticipantID = protocol.ParticipantID
	// ClassroomID identifies a physical or virtual classroom.
	ClassroomID = protocol.ClassroomID
	// Role is a participant's function in the session.
	Role = protocol.Role
)

// Roles.
const (
	RoleLearner  = protocol.RoleLearner
	RoleEducator = protocol.RoleEducator
	RoleGuest    = protocol.RoleGuest
)

// Config parameterizes a deployment.
type Config struct {
	// Seed drives all simulation randomness (sensor noise, loss, jitter).
	Seed int64
	// TickHz is the server replication rate (default 30).
	TickHz float64
	// Interest enables interest-managed fan-out at the cloud (default
	// policy if nil and EnableInterest is true).
	EnableInterest bool
	// VRRows/VRCols/VRPitch shape the cloud VR classroom's seating grid
	// (defaults per cloud.Config: 40 x 25 at 1.2 m). Remote learners are
	// seat-corrected into this grid, so it is the geometry interest tiers
	// measure distances in — a mega-event venue needs a wider pitch.
	VRRows, VRCols int
	VRPitch        float64
}

// Deployment is a running Metaverse classroom installation: campuses with
// their sensing, names and IDs, on the simulated fabric. The rig stands every
// node and link up, hands sessions off, starts and tears down.
type Deployment struct {
	cfg Config
	sim *vclock.Sim
	net *netsim.Network
	rig *rig.Rig

	names  map[ParticipantID]string
	nextID ParticipantID
}

// NewDeployment creates a deployment with a cloud VR server already up.
func NewDeployment(cfg Config) (*Deployment, error) {
	sim := vclock.New(cfg.Seed)
	net := netsim.New(sim)
	// One policy for cloud, relays and edges (nil = interest management off).
	var pol *interest.Policy
	if cfg.EnableInterest {
		pol = interest.NewPolicy()
	}
	r, err := rig.New(sim, &rig.NetsimFabric{Net: net}, rig.Config{
		CloudAddr: "cloud",
		Cloud: cloud.Config{
			TickHz:   cfg.TickHz,
			VRRows:   cfg.VRRows,
			VRCols:   cfg.VRCols,
			VRPitch:  cfg.VRPitch,
			Interest: pol,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Deployment{
		cfg:    cfg,
		sim:    sim,
		net:    net,
		rig:    r,
		names:  make(map[ParticipantID]string),
		nextID: 1,
	}, nil
}

// Sim exposes the simulation clock.
func (d *Deployment) Sim() *vclock.Sim { return d.sim }

// Network exposes the simulated fabric (for failure injection).
func (d *Deployment) Network() *netsim.Network { return d.net }

// Cloud exposes the VR classroom server.
func (d *Deployment) Cloud() *cloud.Server { return d.rig.Cloud() }

// Now returns the current virtual time.
func (d *Deployment) Now() time.Duration { return d.sim.Now() }

// allocID hands out the next participant ID. A failed join spends its ID
// all the same (no ID is ever handed out twice); the roster gets the name
// only once the participant has joined.
func (d *Deployment) allocID() ParticipantID {
	id := d.nextID
	d.nextID++
	return id
}

// NameOf returns a participant's display name.
func (d *Deployment) NameOf(id ParticipantID) string { return d.names[id] }

// Campus is one physical MR classroom with its edge server and sensing.
type Campus struct {
	d       *Deployment
	name    string
	edge    *edge.Server
	array   *sensors.Array
	headset map[ParticipantID]*sensors.Headset
	scripts map[ParticipantID]trace.MotionScript
}

// AddCampus creates a campus with an edge server connected to the cloud
// over the edge<->cloud link (netsim.EdgeToCloud; Network().SetLink reshapes
// it before Run). Campuses cannot be added once the deployment runs.
func (d *Deployment) AddCampus(name string, id ClassroomID) (*Campus, error) {
	c := &Campus{
		d:       d,
		name:    name,
		headset: make(map[ParticipantID]*sensors.Headset),
		scripts: make(map[ParticipantID]trace.MotionScript),
	}
	es, err := d.rig.AddEdge(endpoint.Addr("edge-"+name), id, netsim.EdgeToCloud(), (*sensing)(c))
	if err != nil {
		return nil, err
	}
	c.edge = es
	// Four sensors around a 12 m x 10 m room.
	c.array = sensors.NewArray(4, 12, 10, d.sim, sensors.RoomSensorConfig{}, c.roomSink)
	return c, nil
}

// ConnectCampuses joins two campuses over the inter-campus real-time link
// so each edge replicates directly to the other (Fig. 3).
func (d *Deployment) ConnectCampuses(a, b *Campus) error {
	return d.rig.ConnectEdges(a.edge, b.edge, netsim.InterCampus())
}

// sensing is a campus seen as what the rig starts right after its edge and
// stops with it: the room array, then the headsets ascending by ID.
type sensing Campus

func (c *sensing) Start() error {
	c.array.Start()
	for _, pid := range slices.Sorted(maps.Keys(c.headset)) {
		c.headset[pid].Start()
	}
	return nil
}

func (c *sensing) Stop() {
	c.array.Stop()
	for _, pid := range slices.Sorted(maps.Keys(c.headset)) {
		c.headset[pid].Stop()
	}
}

// Name returns the campus name.
func (c *Campus) Name() string { return c.name }

// Edge exposes the campus edge server.
func (c *Campus) Edge() *edge.Server { return c.edge }

func (c *Campus) roomSink(o sensors.Observation) {
	// SensorID is "camN/<participant>"; recover the participant.
	for i := len(o.SensorID) - 1; i >= 0; i-- {
		if o.SensorID[i] == '/' {
			n, err := strconv.ParseUint(o.SensorID[i+1:], 10, 32)
			if err != nil {
				return
			}
			_ = c.edge.IngestObservation(ParticipantID(n), o)
			return
		}
	}
}

// addLocal registers a physically-present participant with full sensing.
func (c *Campus) addLocal(name string, script trace.MotionScript) (ParticipantID, error) {
	id := c.d.allocID()
	av := avatar.Avatar{Participant: id, Preferred: avatar.LoDHigh}
	vacant := c.edge.Seats().VacantIndices()
	if len(vacant) == 0 {
		return 0, fmt.Errorf("classroom: campus %s is full", c.name)
	}
	if err := c.edge.RegisterLocal(av, vacant[0]); err != nil {
		return 0, err
	}
	c.d.names[id] = name
	hs := sensors.NewHeadset(strconv.FormatUint(uint64(id), 10), c.d.sim, script,
		sensors.HeadsetConfig{},
		func(o sensors.Observation) { _ = c.edge.IngestObservation(id, o) })
	hs.SetExpressionSource(
		func(t time.Duration) expression.Expression {
			// Mild ambient expressiveness; activities override via SetFlags.
			return expression.PresetNeutral.Make()
		},
		func(_ time.Duration, e expression.Expression) { _ = c.edge.IngestExpression(id, e) },
	)
	c.headset[id] = hs
	c.scripts[id] = script
	c.array.Track(strconv.FormatUint(uint64(id), 10), script)
	// Mid-session joins start sensing immediately (the room array is already
	// sweeping; Track above adds them to its rotation).
	if c.d.rig.Started() {
		hs.Start()
	}
	return id, nil
}

// AddLearner seats a student in the physical classroom.
func (c *Campus) AddLearner(name string, script trace.MotionScript) (ParticipantID, error) {
	return c.addLocal(name, script)
}

// AddEducator adds an instructor; the cloud pins them as always-replicated
// focus for every remote learner.
func (c *Campus) AddEducator(name string, script trace.MotionScript) (ParticipantID, error) {
	id, err := c.addLocal(name, script)
	if err != nil {
		return 0, err
	}
	c.d.rig.Cloud().PinFocus(id)
	return id, nil
}

// RemoveLocal withdraws a participant from the campus.
func (c *Campus) RemoveLocal(id ParticipantID) error {
	hs, ok := c.headset[id]
	if !ok {
		return fmt.Errorf("classroom: %d not at campus %s", id, c.name)
	}
	hs.Stop()
	delete(c.headset, id)
	delete(c.scripts, id)
	delete(c.d.names, id)
	c.array.Untrack(strconv.FormatUint(uint64(id), 10))
	return c.edge.UnregisterLocal(id)
}

// ScriptOf returns a local participant's ground-truth script (measurement).
func (c *Campus) ScriptOf(id ParticipantID) (trace.MotionScript, bool) {
	s, ok := c.scripts[id]
	return s, ok
}

// AddRelay stands up a regional relay connected to the cloud over link.
func (d *Deployment) AddRelay(name string, link netsim.LinkConfig) (*cloud.Relay, error) {
	return d.rig.AddRelay(endpoint.Addr("relay-"+name), link)
}

// AddRemoteLearner joins a remote VR learner directly to the cloud over the
// given access link.
func (d *Deployment) AddRemoteLearner(name string, script trace.MotionScript, link netsim.LinkConfig) (*client.VR, ParticipantID, error) {
	return d.addRemote(name, script, link, nil)
}

// AddRemoteLearnerVia joins a remote learner through a regional relay (one
// this deployment's AddRelay returned).
func (d *Deployment) AddRemoteLearnerVia(relay *cloud.Relay, name string, script trace.MotionScript, link netsim.LinkConfig) (*client.VR, ParticipantID, error) {
	return d.addRemote(name, script, link, relay)
}

// addRemote joins a learner through the rig.
func (d *Deployment) addRemote(name string, script trace.MotionScript, link netsim.LinkConfig, via *cloud.Relay) (*client.VR, ParticipantID, error) {
	id := d.allocID()
	v, err := d.rig.Join(id, endpoint.Addr("vr-"+strconv.FormatUint(uint64(id), 10)), script, via, link)
	if err != nil {
		return nil, 0, err
	}
	d.names[id] = name
	return v, id, nil
}

// MigrateRemoteLearner hands a live remote learner off to a different server
// mid-session: to a regional relay, or back to the cloud when relay is nil,
// over the given access link. No update is lost or duplicated across the cut
// (rig.Handoff has the sequence). Call it between Run slices so no tick
// interleaves with the cut. A no-op when the learner is already served there.
func (d *Deployment) MigrateRemoteLearner(id ParticipantID, relay *cloud.Relay, link netsim.LinkConfig) error {
	return d.rig.Handoff(id, relay, link)
}

// RemoveRemoteLearner withdraws a remote VR learner mid-session and the
// departure replicates everywhere (rig.Leave has the teardown policy).
func (d *Deployment) RemoveRemoteLearner(id ParticipantID) error {
	if err := d.rig.Leave(id); err != nil {
		return err
	}
	delete(d.names, id) // churn must not grow the roster without bound
	return nil
}

// Start launches every server, sensor and client (rig.Start has the order).
// Idempotent; Run calls it implicitly.
func (d *Deployment) Start() error { return d.rig.Start() }

// Run starts (if needed) and advances the deployment by dur of virtual time.
func (d *Deployment) Run(dur time.Duration) error {
	if err := d.Start(); err != nil {
		return err
	}
	return d.sim.Run(d.sim.Now() + dur)
}

// Stop halts all tick loops and sensors.
func (d *Deployment) Stop() { d.rig.Stop() }

// Clients returns remote learners keyed by participant ID.
func (d *Deployment) Clients() map[ParticipantID]*client.VR { return d.rig.Clients() }
