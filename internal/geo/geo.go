// Package geo is the deployment layer that turns the paper's regional-server
// answer to challenge C2 into a running system: it takes a region.Topology
// plus a client census, runs the greedy k-center PlaceRelays placement, and
// stands up one node.Runtime-backed relay per placed region over the
// endpoint.Transport API — identically on the deterministic netsim fabric
// (links derived from the latency matrix) and on real TCP sockets.
//
// On top of the static topology it drives live session handoff: Migrate
// moves a joined client between relays (or between the cloud and a relay)
// without losing or duplicating an update. Two triggers drive it: client
// roam — Roam() moves a session when another server beats its current one by
// more than roamHysteresis — and relay drain — Drain() migrates every
// client off a relay, then retires it. Nodes, endpoints, links and the
// handoff sequence belong to internal/rig; this package says who goes where.
//
// The roam hysteresis: a session migrates only when
//
//	latency(current server) > latency(best server) + roamHysteresis
//
// so two relays at near-equal distance never ping-pong a client between
// them. 15 ms is about two render frames: an improvement smaller than that
// is imperceptible in pose age and not worth a handoff.
package geo

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/rig"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// Deployment errors.
var (
	ErrUnknownSession = errors.New("geo: unknown session")
	ErrUnknownRelay   = errors.New("geo: no relay in region")
)

// Config parameterizes a Deployment.
type Config struct {
	// Topology is the region graph (required).
	Topology *region.Topology
	// CloudRegion is where the cloud server lives (required; must be a
	// topology region).
	CloudRegion region.ID
	// PublishHz is the client pose upload rate (default 20).
	PublishHz float64
	// Interest is the client fan-out policy (nil = broadcast).
	Interest *interest.Policy
}

// roamHysteresis is how much better (one-way) another server must be before
// Roam migrates a session to it (see package doc).
const roamHysteresis = 15 * time.Millisecond

// seatedScript is a session's motion: seated, anchored by ID so no two
// sessions overlap.
func seatedScript(id protocol.ParticipantID) trace.MotionScript {
	return trace.Seated{
		Anchor: mathx.V3(float64(id%16)*1.2, 0, float64(id/16)*1.2),
		Phase:  float64(id),
	}
}

// Session is one live client: its VR endpoint plus where it currently lives
// and which server currently serves it.
type Session struct {
	ID     protocol.ParticipantID
	Region region.ID
	VR     *client.VR

	// served is the region of the serving relay; "" means the cloud.
	served region.ID
}

// ServedBy returns the serving relay's region, or "" for the cloud.
func (s *Session) ServedBy() region.ID { return s.served }

// Deployment is a live geo-sharded topology: one cloud, the placed relays,
// and the client sessions routed between them, on the rig that runs them.
type Deployment struct {
	cfg Config
	sim *vclock.Sim
	rig *rig.Rig

	relays   map[region.ID]*cloud.Relay
	sessions map[protocol.ParticipantID]*Session
	census   map[region.ID]int

	reg         *metrics.Registry
	mDeploys    *metrics.Counter
	mMigrations *metrics.Counter
	mRoams      *metrics.Counter
	mDrains     *metrics.Counter
}

// New creates a deployment: the cloud comes up immediately (address
// "geo-cloud"); relays are placed later via Deploy or Rebalance.
func New(sim *vclock.Sim, fab rig.Fabric, cfg Config) (*Deployment, error) {
	if cfg.Topology == nil {
		return nil, errors.New("geo: Config.Topology is required")
	}
	if _, err := cfg.Topology.Latency(cfg.CloudRegion, cfg.CloudRegion); err != nil {
		return nil, fmt.Errorf("geo: cloud region: %w", err)
	}
	r, err := rig.New(sim, fab, rig.Config{
		CloudAddr: "geo-cloud",
		Cloud:     cloud.Config{Interest: cfg.Interest},
		PublishHz: cfg.PublishHz,
	})
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		cfg:      cfg,
		sim:      sim,
		rig:      r,
		relays:   make(map[region.ID]*cloud.Relay),
		sessions: make(map[protocol.ParticipantID]*Session),
		census:   make(map[region.ID]int),
		reg:      metrics.NewRegistry("geo"),
	}
	d.mDeploys = d.reg.Counter("geo.relays.deployed")
	d.mMigrations = d.reg.Counter("geo.migrations")
	d.mRoams = d.reg.Counter("geo.roams")
	d.mDrains = d.reg.Counter("geo.drains")
	return d, nil
}

// Sim returns the deployment's virtual clock.
func (d *Deployment) Sim() *vclock.Sim { return d.sim }

// Cloud returns the cloud server.
func (d *Deployment) Cloud() *cloud.Server { return d.rig.Cloud() }

// Metrics returns the deployment-level control-plane registry.
func (d *Deployment) Metrics() *metrics.Registry { return d.reg }

// Relay returns the relay deployed in reg.
func (d *Deployment) Relay(reg region.ID) (*cloud.Relay, bool) {
	r, ok := d.relays[reg]
	return r, ok
}

// RelayRegions returns the deployed relay regions, ascending.
func (d *Deployment) RelayRegions() []region.ID {
	return slices.Sorted(maps.Keys(d.relays))
}

// Session returns the session for id.
func (d *Deployment) Session(id protocol.ParticipantID) (*Session, bool) {
	s, ok := d.sessions[id]
	return s, ok
}

// SessionIDs returns all live session IDs, ascending — the pinned iteration
// order for every sweep over sessions.
func (d *Deployment) SessionIDs() []protocol.ParticipantID {
	return slices.Sorted(maps.Keys(d.sessions))
}

// latency is the topology's one-way latency with same-region pairs allowed.
func (d *Deployment) latency(a, b region.ID) (time.Duration, error) {
	return d.cfg.Topology.Latency(a, b)
}

// serverRegionOf maps a serving region ("" = cloud) to its topology region.
func (d *Deployment) serverRegionOf(served region.ID) region.ID {
	if served == "" {
		return d.cfg.CloudRegion
	}
	return served
}

// bestServer returns the lowest-latency server for a client in reg,
// excluding the given serving region ("" excludes nothing; the cloud cannot
// be excluded). Ties prefer the cloud, then the lexicographically smallest
// relay region, so the choice is deterministic.
func (d *Deployment) bestServer(reg region.ID, exclude region.ID) (region.ID, time.Duration, error) {
	best := region.ID("")
	bestLat, err := d.latency(reg, d.cfg.CloudRegion)
	if err != nil {
		return "", 0, err
	}
	for _, rr := range d.RelayRegions() {
		if exclude != "" && rr == exclude {
			continue
		}
		lat, err := d.latency(reg, rr)
		if err != nil {
			return "", 0, err
		}
		if lat < bestLat {
			best, bestLat = rr, lat
		}
	}
	return best, bestLat, nil
}

// Join creates a session for a client in reg and routes it to the current
// best server (the cloud until relays are deployed). An ID already in session
// is refused: its address is in use.
func (d *Deployment) Join(id protocol.ParticipantID, reg region.ID) (*Session, error) {
	if _, err := d.latency(reg, reg); err != nil {
		return nil, err
	}
	served, lat, err := d.bestServer(reg, "")
	if err != nil {
		return nil, err
	}
	addr := endpoint.Addr(fmt.Sprintf("geo-vr-%04d", id))
	// d.relays[""] is nil: the cloud serves until relays are deployed.
	vr, err := d.rig.Join(id, addr, seatedScript(id), d.relays[served], AccessLink(lat))
	if err != nil {
		return nil, err
	}
	s := &Session{ID: id, Region: reg, VR: vr, served: served}
	d.sessions[id] = s
	d.census[reg]++
	return s, nil
}

// Leave tears a session fully down (rig.Leave has the teardown policy).
func (d *Deployment) Leave(id protocol.ParticipantID) error {
	s, ok := d.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	if err := d.rig.Leave(id); err != nil {
		return err
	}
	delete(d.sessions, id)
	d.census[s.Region]--
	if d.census[s.Region] <= 0 {
		delete(d.census, s.Region)
	}
	return nil
}

// Deploy runs PlaceRelays(k) over the topology and the current census and
// stands up a relay in every placed region not already covered (regions the
// placement drops are left running — use Rebalance to retire them). Clients
// are not moved; call Roam to migrate them to their new nearest servers.
// Returns the placed regions.
func (d *Deployment) Deploy(k int) ([]region.ID, error) {
	placed, err := d.cfg.Topology.PlaceRelays(k, d.census)
	if err != nil {
		return nil, err
	}
	for _, rr := range placed {
		if _, ok := d.relays[rr]; ok {
			continue
		}
		if err := d.deployRelay(rr); err != nil {
			return nil, err
		}
	}
	return placed, nil
}

// deployRelay stands one relay up in rr (address "geo-relay-<region>") on a
// backbone link to the cloud; on a live deployment it starts ticking at once.
func (d *Deployment) deployRelay(rr region.ID) error {
	lat, err := d.latency(d.cfg.CloudRegion, rr)
	if err != nil {
		return err
	}
	rel, err := d.rig.AddRelay(endpoint.Addr("geo-relay-"+string(rr)), BackboneLink(lat))
	if err != nil {
		return err
	}
	d.relays[rr] = rel
	d.mDeploys.Inc()
	return nil
}

// Migrate hands a live session off to the server in region `to` ("" = the
// cloud) over an access link for the new distance (rig.Handoff has the
// sequence). A no-op when the session is already served there.
func (d *Deployment) Migrate(id protocol.ParticipantID, to region.ID) error {
	s, ok := d.sessions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	if to != "" {
		if _, ok := d.relays[to]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownRelay, to)
		}
	}
	if s.served == to {
		return nil
	}
	accessLat, err := d.latency(s.Region, d.serverRegionOf(to))
	if err != nil {
		return err
	}
	if err := d.rig.Handoff(id, d.relays[to], AccessLink(accessLat)); err != nil {
		return err
	}
	s.served = to
	d.mMigrations.Inc()
	return nil
}

// Roam sweeps every session (ascending ID) and migrates the ones whose
// current server is beaten by more than roamHysteresis. Returns how many
// sessions moved.
func (d *Deployment) Roam() (int, error) {
	moved := 0
	for _, id := range d.SessionIDs() {
		s := d.sessions[id]
		cur, err := d.latency(s.Region, d.serverRegionOf(s.served))
		if err != nil {
			return moved, err
		}
		best, bestLat, err := d.bestServer(s.Region, "")
		if err != nil {
			return moved, err
		}
		if best == s.served || cur <= bestLat+roamHysteresis {
			continue
		}
		if err := d.Migrate(id, best); err != nil {
			return moved, err
		}
		moved++
		d.mRoams.Inc()
	}
	return moved, nil
}

// Drain retires the relay in reg: every session it serves migrates to its
// next-best server first (ascending ID), then the rig reclaims the relay
// (rig.RetireRelay has the order and why).
func (d *Deployment) Drain(reg region.ID) error {
	rel, ok := d.relays[reg]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRelay, reg)
	}
	for _, id := range d.SessionIDs() {
		s := d.sessions[id]
		if s.served != reg {
			continue
		}
		to, _, err := d.bestServer(s.Region, reg)
		if err != nil {
			return err
		}
		if err := d.Migrate(id, to); err != nil {
			return err
		}
	}
	if err := d.rig.RetireRelay(rel); err != nil {
		return err
	}
	delete(d.relays, reg)
	d.mDrains.Inc()
	return nil
}

// Rebalance re-places relays for the current census (region.Replan): new
// regions come up, sessions roam to their best servers, and relays the
// placement dropped drain. Returns the regions added and retired and how
// many sessions moved.
func (d *Deployment) Rebalance(k int) (added, retired []region.ID, moved int, err error) {
	add, retire, err := d.cfg.Topology.Replan(d.RelayRegions(), k, d.census)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, rr := range add {
		if err := d.deployRelay(rr); err != nil {
			return add, nil, 0, err
		}
	}
	if moved, err = d.Roam(); err != nil {
		return add, nil, moved, err
	}
	for _, rr := range retire {
		if err := d.Drain(rr); err != nil {
			return add, retire, moved, err
		}
	}
	return add, retire, moved, nil
}

// Start brings the whole deployment live at one virtual instant (rig.Start).
func (d *Deployment) Start() error { return d.rig.Start() }

// Stop halts every tick loop; endpoints stay on the fabric (rig.Stop).
func (d *Deployment) Stop() { d.rig.Stop() }

// Converged checks that every session's replica agrees byte-for-byte with the
// cloud world on every entity it should hold (everyone but itself, in
// broadcast mode) and holds nothing else. It returns nil, or the first
// divergence: the session, the server serving it, and the entity.
func (d *Deployment) Converged() error {
	world := d.Cloud().World()
	var gotSpan, wantSpan []byte
	for _, id := range d.SessionIDs() {
		s, _ := d.Session(id)
		store := s.VR.ReplicaStore()
		for _, eid := range world.IDs() {
			if eid == id {
				continue
			}
			want, _ := world.Get(eid)
			got, ok := store.Get(eid)
			if !ok {
				return fmt.Errorf("geo: session %d (served %q): entity %d missing from replica", id, s.ServedBy(), eid)
			}
			gotSpan, wantSpan = protocol.AppendEntity(gotSpan[:0], &got), protocol.AppendEntity(wantSpan[:0], &want)
			if !bytes.Equal(gotSpan, wantSpan) {
				return fmt.Errorf("geo: session %d (served %q): entity %d diverged: got %+v want %+v",
					id, s.ServedBy(), eid, got, want)
			}
		}
		for _, eid := range store.IDs() {
			if _, ok := world.Get(eid); !ok {
				return fmt.Errorf("geo: session %d: replica holds departed entity %d", id, eid)
			}
		}
	}
	return nil
}
