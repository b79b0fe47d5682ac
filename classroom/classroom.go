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
	"cmp"
	"errors"
	"fmt"
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
	// InterpDelay is the display playout delay (default 100 ms).
	InterpDelay time.Duration
	// Interest enables interest-managed fan-out at the cloud (default
	// policy if nil and EnableInterest is true).
	EnableInterest bool
	// VRRows/VRCols/VRPitch shape the cloud VR classroom's seating grid
	// (defaults per cloud.Config: 40 x 25 at 1.2 m). Remote learners are
	// seat-corrected into this grid, so it is the geometry interest tiers
	// measure distances in — a mega-event venue needs a wider pitch.
	VRRows, VRCols int
	VRPitch        float64
	// CloudLink overrides the edge<->cloud link profile.
	CloudLink *netsim.LinkConfig
	// HeadsetHz is the headset tracking rate (default 60).
	HeadsetHz float64
	// RoomSensorCount is the per-campus sensor array size (default 4).
	RoomSensorCount int
}

func (c *Config) applyDefaults() {
	if c.TickHz <= 0 {
		c.TickHz = 30
	}
	if c.InterpDelay <= 0 {
		c.InterpDelay = 100 * time.Millisecond
	}
	if c.HeadsetHz <= 0 {
		c.HeadsetHz = 60
	}
	if c.RoomSensorCount <= 0 {
		c.RoomSensorCount = 4
	}
}

// Deployment is a running Metaverse classroom installation.
type Deployment struct {
	cfg Config
	sim *vclock.Sim
	net *netsim.Network

	// interest is the deployment-wide fan-out policy (nil when interest
	// management is disabled). Cloud, relays and edges share one instance so
	// pins (educator focus) and tier radii agree everywhere a client may
	// attach.
	interest *interest.Policy

	cloud    *cloud.Server
	campuses map[ClassroomID]*Campus
	relays   map[string]*cloud.Relay
	clients  map[ParticipantID]*client.VR
	// relayOf records which relay serves a remote learner (nil for direct),
	// so leave teardown reaches the right server.
	relayOf map[ParticipantID]*cloud.Relay
	names   map[ParticipantID]string
	nextID  ParticipantID
	started bool
}

// NewDeployment creates a deployment with a cloud VR server already up.
func NewDeployment(cfg Config) (*Deployment, error) {
	cfg.applyDefaults()
	sim := vclock.New(cfg.Seed)
	net := netsim.New(sim)
	var pol *interest.Policy
	if cfg.EnableInterest {
		pol = interest.NewPolicy()
	}
	// Nodes are constructed against the transport-agnostic endpoint API;
	// deployments back them with the simulated fabric's adapter.
	cl, err := cloud.New(sim, net.Endpoint("cloud"), cloud.Config{
		TickHz:      cfg.TickHz,
		VRRows:      cfg.VRRows,
		VRCols:      cfg.VRCols,
		VRPitch:     cfg.VRPitch,
		InterpDelay: cfg.InterpDelay,
		Interest:    pol,
	})
	if err != nil {
		return nil, err
	}
	return &Deployment{
		cfg:      cfg,
		sim:      sim,
		net:      net,
		interest: pol,
		cloud:    cl,
		campuses: make(map[ClassroomID]*Campus),
		relays:   make(map[string]*cloud.Relay),
		clients:  make(map[ParticipantID]*client.VR),
		relayOf:  make(map[ParticipantID]*cloud.Relay),
		names:    make(map[ParticipantID]string),
		nextID:   1,
	}, nil
}

// Sim exposes the simulation clock.
func (d *Deployment) Sim() *vclock.Sim { return d.sim }

// Network exposes the simulated fabric (for failure injection).
func (d *Deployment) Network() *netsim.Network { return d.net }

// Cloud exposes the VR classroom server.
func (d *Deployment) Cloud() *cloud.Server { return d.cloud }

// Now returns the current virtual time.
func (d *Deployment) Now() time.Duration { return d.sim.Now() }

// allocID hands out the next participant ID.
func (d *Deployment) allocID(name string) ParticipantID {
	id := d.nextID
	d.nextID++
	d.names[id] = name
	return id
}

// NameOf returns a participant's display name.
func (d *Deployment) NameOf(id ParticipantID) string { return d.names[id] }

// Campus is one physical MR classroom with its edge server and sensing.
type Campus struct {
	d       *Deployment
	name    string
	id      ClassroomID
	edge    *edge.Server
	array   *sensors.Array
	headset map[ParticipantID]*sensors.Headset
	scripts map[ParticipantID]trace.MotionScript
}

// AddCampus creates a campus with an edge server connected to the cloud
// over the default (or configured) edge<->cloud link.
func (d *Deployment) AddCampus(name string, id ClassroomID) (*Campus, error) {
	if d.started {
		return nil, errors.New("classroom: deployment already running")
	}
	if _, ok := d.campuses[id]; ok {
		return nil, fmt.Errorf("classroom: campus %d exists", id)
	}
	addr := netsim.Addr("edge-" + name)
	es, err := edge.New(d.sim, d.net.Endpoint(addr), edge.Config{
		Classroom:   id,
		TickHz:      d.cfg.TickHz,
		InterpDelay: d.cfg.InterpDelay,
		Interest:    d.interest,
	})
	if err != nil {
		return nil, err
	}
	link := netsim.EdgeToCloud()
	if d.cfg.CloudLink != nil {
		link = *d.cfg.CloudLink
	}
	if err := d.net.ConnectBoth(addr, netsim.Addr(d.cloud.Addr()), link); err != nil {
		return nil, err
	}
	if err := es.ConnectPeer(d.cloud.Addr()); err != nil {
		return nil, err
	}
	if err := d.cloud.ConnectEdge(endpoint.Addr(addr), id); err != nil {
		return nil, err
	}
	c := &Campus{
		d:       d,
		name:    name,
		id:      id,
		edge:    es,
		headset: make(map[ParticipantID]*sensors.Headset),
		scripts: make(map[ParticipantID]trace.MotionScript),
	}
	c.array = sensors.NewArray(d.cfg.RoomSensorCount, 12, 10, d.sim, sensors.RoomSensorConfig{}, c.roomSink)
	d.campuses[id] = c
	return c, nil
}

// ConnectCampuses joins two campuses over the inter-campus real-time link
// so each edge replicates directly to the other (Fig. 3).
func (d *Deployment) ConnectCampuses(a, b *Campus) error {
	if err := d.net.ConnectBoth(netsim.Addr(a.edge.Addr()), netsim.Addr(b.edge.Addr()), netsim.InterCampus()); err != nil {
		return err
	}
	if err := a.edge.ConnectPeer(b.edge.Addr()); err != nil {
		return err
	}
	return b.edge.ConnectPeer(a.edge.Addr())
}

// Name returns the campus name.
func (c *Campus) Name() string { return c.name }

// ID returns the classroom ID.
func (c *Campus) ID() ClassroomID { return c.id }

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
func (c *Campus) addLocal(name string, role Role, script trace.MotionScript) (ParticipantID, error) {
	id := c.d.allocID(name)
	av := avatar.Avatar{
		Participant: id,
		Name:        name,
		Role:        role,
		Preferred:   avatar.LoDHigh,
	}
	vacant := c.edge.Seats().VacantIndices()
	if len(vacant) == 0 {
		return 0, fmt.Errorf("classroom: campus %s is full", c.name)
	}
	if err := c.edge.RegisterLocal(av, vacant[0]); err != nil {
		return 0, err
	}
	hs := sensors.NewHeadset(strconv.FormatUint(uint64(id), 10), c.d.sim, script,
		sensors.HeadsetConfig{RateHz: c.d.cfg.HeadsetHz},
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
	if c.d.started {
		hs.Start()
	}
	return id, nil
}

// AddLearner seats a student in the physical classroom.
func (c *Campus) AddLearner(name string, script trace.MotionScript) (ParticipantID, error) {
	return c.addLocal(name, RoleLearner, script)
}

// AddEducator adds an instructor; the cloud pins them as always-replicated
// focus for every remote learner.
func (c *Campus) AddEducator(name string, script trace.MotionScript) (ParticipantID, error) {
	id, err := c.addLocal(name, RoleEducator, script)
	if err != nil {
		return 0, err
	}
	c.d.cloud.PinFocus(id)
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
	if _, ok := d.relays[name]; ok {
		return nil, fmt.Errorf("classroom: relay %s exists", name)
	}
	addr := netsim.Addr("relay-" + name)
	r, err := cloud.NewRelay(d.sim, d.net.Endpoint(addr), cloud.RelayConfig{
		Upstream:    d.cloud.Addr(),
		TickHz:      d.cfg.TickHz,
		InterpDelay: d.cfg.InterpDelay,
		Interest:    d.interest,
	})
	if err != nil {
		return nil, err
	}
	if err := d.net.ConnectBoth(addr, netsim.Addr(d.cloud.Addr()), link); err != nil {
		return nil, err
	}
	if err := d.cloud.AddRelay(endpoint.Addr(addr)); err != nil {
		return nil, err
	}
	d.relays[name] = r
	return r, nil
}

// AddRemoteLearner joins a remote VR learner directly to the cloud over the
// given access link.
func (d *Deployment) AddRemoteLearner(name string, script trace.MotionScript, link netsim.LinkConfig) (*client.VR, ParticipantID, error) {
	return d.addRemote(name, script, link, d.cloud.Addr(), true)
}

// AddRemoteLearnerVia joins a remote learner through a regional relay.
func (d *Deployment) AddRemoteLearnerVia(relay *cloud.Relay, name string, script trace.MotionScript, link netsim.LinkConfig) (*client.VR, ParticipantID, error) {
	return d.addRemote(name, script, link, relay.Addr(), false)
}

func (d *Deployment) addRemote(name string, script trace.MotionScript, link netsim.LinkConfig, server endpoint.Addr, direct bool) (*client.VR, ParticipantID, error) {
	id := d.allocID(name)
	addr := netsim.Addr("vr-" + strconv.FormatUint(uint64(id), 10))
	v, err := client.NewVR(d.sim, d.net.Endpoint(addr), client.VRConfig{
		Participant: id,
		Server:      server,
		InterpDelay: d.cfg.InterpDelay,
		Script:      script,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := d.net.ConnectBoth(addr, netsim.Addr(server), link); err != nil {
		return nil, 0, err
	}
	if direct {
		if err := d.cloud.AddClient(id, endpoint.Addr(addr)); err != nil {
			return nil, 0, err
		}
	} else {
		if err := d.cloud.RegisterRelayClient(id, server); err != nil {
			return nil, 0, err
		}
		for _, name := range sortedKeys(d.relays) {
			if r := d.relays[name]; r.Addr() == server {
				if err := r.AddClient(id, endpoint.Addr(addr)); err != nil {
					return nil, 0, err
				}
				d.relayOf[id] = r
				break
			}
		}
	}
	d.clients[id] = v
	// Mid-session joins go live immediately: the deployment is already
	// running, so the learner's publish loop starts now.
	if d.started {
		if err := v.Start(); err != nil {
			return nil, 0, err
		}
	}
	return v, id, nil
}

// MigrateRemoteLearner hands a live remote learner off to a different server
// mid-session: to a regional relay, or back to the cloud when relay is nil,
// over the given access link. The handoff is the geo deployment's
// drain-transfer-adopt sequence — the old server exports the learner's
// replication baseline (ack floor plus owed debt), the old access path is cut
// (in-flight frames cancelled, never leaked), the new path comes up, and the
// new server adopts the session seeded from the baseline — so no update is
// lost or duplicated across the cut. Synchronous: call it between Run slices
// so no tick interleaves with the cut. A no-op when the learner is already
// served there.
func (d *Deployment) MigrateRemoteLearner(id ParticipantID, relay *cloud.Relay, link netsim.LinkConfig) error {
	v, ok := d.clients[id]
	if !ok {
		return fmt.Errorf("classroom: unknown remote learner %d", id)
	}
	old := d.relayOf[id]
	if old == relay {
		return nil
	}
	oldAddr, newAddr := d.cloud.Addr(), d.cloud.Addr()
	if old != nil {
		oldAddr = old.Addr()
	}
	if relay != nil {
		newAddr = relay.Addr()
	}

	// 1. Export the replication baseline and retire the old server's route.
	// The cloud keeps seat and authored entity either way — only the
	// replication route changes hands.
	b, err := d.cloud.ReleaseSession(id, old, relay)
	if err != nil {
		return err
	}

	// 2. Cut the old access path: deliveries in flight on the pair are
	// cancelled (frames released, handlers not invoked) — which is exactly
	// why the baseline flattens in-flight sends back to owed debt.
	addr := netsim.Addr(v.Addr())
	for _, dir := range [2][2]netsim.Addr{{addr, netsim.Addr(oldAddr)}, {netsim.Addr(oldAddr), addr}} {
		if err := d.net.Disconnect(dir[0], dir[1]); err != nil {
			return err
		}
	}

	// 3. Bring up the new access path before the new server plans a tick.
	if err := d.net.ConnectBoth(addr, netsim.Addr(newAddr), link); err != nil {
		return err
	}

	// 4. Adopt the session at the new server, seeding its replicator from
	// the transferred baseline (plus the conservative re-owe).
	if err := d.cloud.AdoptSession(id, endpoint.Addr(addr), old, relay, b); err != nil {
		return err
	}
	if relay == nil {
		delete(d.relayOf, id)
	} else {
		d.relayOf[id] = relay
	}

	// 5. Repoint the client: publishes, pings, and auto-acks follow.
	v.Retarget(newAddr)
	return nil
}

// RemoveRemoteLearner withdraws a remote VR learner mid-session: their
// publish loop stops, their server-side replication peer and interest state
// are torn down (scratch returning to the onboarding pool), their authored
// entity is removed from the world so the departure replicates everywhere,
// and their endpoint detaches — frames still in flight toward it are
// released by the transport, never leaked.
func (d *Deployment) RemoveRemoteLearner(id ParticipantID) error {
	v, ok := d.clients[id]
	if !ok {
		return fmt.Errorf("classroom: unknown remote learner %d", id)
	}
	delete(d.clients, id)
	delete(d.names, id) // churn must not grow the roster without bound
	v.Stop()
	if r := d.relayOf[id]; r != nil {
		delete(d.relayOf, id)
		if err := r.RemoveClient(id); err != nil {
			return err
		}
	}
	if err := d.cloud.RemoveClient(id); err != nil {
		return err
	}
	// Remove the learner's host from the fabric: its links and any deliveries
	// still queued toward it are reclaimed eagerly (frames released exactly
	// once, never leaked), so churn cannot grow the netsim tables without
	// bound. Traffic the learner already put on the wire still arrives.
	return d.net.RemoveHost(netsim.Addr(v.Addr()))
}

// Start launches every server, sensor and client. Run calls it implicitly.
func (d *Deployment) Start() error {
	if d.started {
		return nil
	}
	d.started = true
	if err := d.cloud.Start(); err != nil {
		return err
	}
	// Deterministic startup order: map iteration order varies run to run,
	// which would reorder tick registration and derail reproducibility.
	for _, cid := range sortedKeys(d.campuses) {
		c := d.campuses[cid]
		if err := c.edge.Start(); err != nil {
			return err
		}
		c.array.Start()
		for _, pid := range sortedKeys(c.headset) {
			c.headset[pid].Start()
		}
	}
	for _, name := range sortedKeys(d.relays) {
		if err := d.relays[name].Start(); err != nil {
			return err
		}
	}
	for _, pid := range sortedKeys(d.clients) {
		if err := d.clients[pid].Start(); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Run starts (if needed) and advances the deployment by dur of virtual time.
func (d *Deployment) Run(dur time.Duration) error {
	if err := d.Start(); err != nil {
		return err
	}
	return d.sim.Run(d.sim.Now() + dur)
}

// Stop halts all tick loops and sensors.
func (d *Deployment) Stop() {
	for _, c := range d.campuses {
		c.edge.Stop()
		c.array.Stop()
		for _, hs := range c.headset {
			hs.Stop()
		}
	}
	for _, r := range d.relays {
		r.Stop()
	}
	for _, v := range d.clients {
		v.Stop()
	}
	d.cloud.Stop()
	d.started = false
}

// Campuses returns the campuses keyed by classroom ID.
func (d *Deployment) Campuses() map[ClassroomID]*Campus { return d.campuses }

// Clients returns remote learners keyed by participant ID.
func (d *Deployment) Clients() map[ParticipantID]*client.VR { return d.clients }
