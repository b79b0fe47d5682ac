// Package cloud implements the cloud server hosting the Digital Metaverse
// Classroom of the paper's Fig. 2/3: it "arranges the avatars of all users
// within an entirely virtual VR classroom and transmits the results back to
// the remote users".
//
// The Server ingests (a) replicated state from every campus edge server and
// (b) pose streams from remote VR learners (its own "local" participants),
// merges them into one world state, arranges remote users into VR seats,
// and fans the merged world out — interest-managed — to every remote
// client, either directly or through regional Relays (the paper's
// "regional servers" remedy for poorly interconnected users).
//
// The peer table, tick loop, interest filtering, and join/leave lifecycle
// all live in the shared node.Runtime; this package is the cloud policy
// over it: world merge from the campuses, VR seating, client pose
// authorship, and admission of learners who connect on their own. All
// traffic rides the transport-agnostic endpoint API: the same server runs
// over the simulated fabric or real TCP sockets (cmd/classroomd).
package cloud

import (
	"errors"
	"fmt"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/node"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/seat"
	"metaclass/internal/vclock"
)

// Cloud server errors (aliases of the shared runtime errors, so errors.Is
// matches at either level).
var (
	ErrClientExists = node.ErrClientExists
	ErrPeerExists   = node.ErrPeerExists
)

// errSameServer refuses a handoff whose two ends are one server.
var errSameServer = errors.New("cloud: a session cannot be handed off to the server it is on")

// Config parameterizes the cloud VR server.
type Config struct {
	// TickHz is the fan-out tick rate (default 30).
	TickHz float64
	// VRRows/VRCols/VRPitch shape the virtual classroom's seating, at most
	// seat.MaxSeats (defaults 40 x 25 at 1.2 m — a thousand-seat auditorium).
	VRRows, VRCols int
	VRPitch        float64
	// Interest is the fan-out policy; nil disables interest management
	// (broadcast — the E4 ablation baseline).
	Interest *interest.Policy
}

func (c *Config) applyDefaults() {
	if c.VRRows <= 0 {
		c.VRRows = 40
	}
	if c.VRCols <= 0 {
		c.VRCols = 25
	}
	if c.VRPitch <= 0 {
		c.VRPitch = 1.2
	}
}

// Server is the cloud VR classroom host: the seating/authorship policy over
// the shared node runtime.
type Server struct {
	cfg Config
	rt  *node.Runtime

	seats *seat.Map

	mClientPoses *metrics.Counter
	hClientAge   *metrics.Histogram
	retainOwn    func(e protocol.EntityState) bool
	closePeer    func(endpoint.Addr) // the transport's ClosePeer, else a no-op
}

// New creates a cloud server on the given transport endpoint: its address,
// send path, and receive dispatch all come from tr, so the same construction
// works over netsim and TCP.
func New(sim *vclock.Sim, tr endpoint.Transport, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if cfg.VRCols > seat.MaxSeats/cfg.VRRows { // rows x cols > MaxSeats, not multiplied
		return nil, fmt.Errorf("cloud: a %d x %d seating grid has over %d seats", cfg.VRRows, cfg.VRCols, seat.MaxSeats)
	}
	rt, err := node.New(sim, tr, node.Config{
		TickHz:   cfg.TickHz,
		Interest: cfg.Interest,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		rt:    rt,
		seats: seat.NewGrid(0, cfg.VRRows, cfg.VRCols, cfg.VRPitch),
	}
	s.mClientPoses = rt.Metrics().Counter("client.poses")
	s.hClientAge = rt.Metrics().Histogram("client.pose.age")
	// Mirror-tick retention: entities with Home == 0 are cloud-authored VR
	// users — absent from every edge replica by construction, never culled.
	s.retainOwn = func(e protocol.EntityState) bool { return e.Home == 0 }
	s.closePeer = func(endpoint.Addr) {}
	if c, ok := tr.(interface{ ClosePeer(endpoint.Addr) }); ok {
		s.closePeer = c.ClosePeer
	}
	ep := rt.Dispatcher()
	ep.OnPose(s.ingestClientPose)
	ep.OnFallback(s.admit)
	return s, nil
}

// Addr returns the server's endpoint address.
func (s *Server) Addr() endpoint.Addr { return s.rt.Addr() }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.rt.Metrics() }

// World exposes the merged world state (tests and experiments).
func (s *Server) World() *core.Store { return s.rt.Store() }

// Runtime exposes the shared node runtime (tests and experiments).
func (s *Server) Runtime() *node.Runtime { return s.rt }

// ConnectEdge links a campus edge server. The cloud replicates back only
// entities the edge does not already author (cloud-authored VR users and
// other campuses' participants arrive at edges via their own links). An
// address that is already a replication peer is refused, and nothing is
// registered for it.
func (s *Server) ConnectEdge(addr endpoint.Addr, classroom protocol.ClassroomID) error {
	if s.rt.Replicator().HasPeer(string(addr)) {
		return fmt.Errorf("%w: %s", ErrPeerExists, addr)
	}
	if _, err := s.rt.ConnectReplica(addr, "edge.pose.age", false); err != nil {
		return err
	}
	// The edge receives only VR-user entities (Home == 0) from the cloud.
	return s.rt.Replicate(addr, func(id protocol.ParticipantID, _ uint64) bool {
		e, ok := s.rt.Store().Get(id)
		return ok && e.Home == 0
	})
}

// AddRelay links a regional relay, which receives the full world.
func (s *Server) AddRelay(addr endpoint.Addr) error {
	if s.rt.Replicator().HasPeer(string(addr)) {
		return fmt.Errorf("%w: %s", ErrPeerExists, addr)
	}
	return s.rt.Replicate(addr, nil)
}

// RemoveRelay unlinks a draining regional relay's replication peer. Clients
// it served must have been migrated (or removed) first; the relay's mirror
// simply stops receiving updates.
func (s *Server) RemoveRelay(addr endpoint.Addr) error {
	return s.rt.Replicator().RemovePeer(string(addr))
}

// AddClient registers a remote VR learner served directly by this cloud.
// addr is the address replication should be sent to — the client itself, or
// nothing extra is needed for relay-served clients (their relay replicates
// to them).
func (s *Server) AddClient(id protocol.ParticipantID, addr endpoint.Addr) error {
	return s.rt.AddClient(id, addr)
}

// RegisterRelayClient records a client whose pose updates will arrive via a
// relay; the cloud seats and authors it but does not replicate to it
// directly (its relay does).
func (s *Server) RegisterRelayClient(id protocol.ParticipantID, relay endpoint.Addr) error {
	return s.rt.RegisterClient(id, relay)
}

// ReleaseSession is the outbound half of a session handoff. The server that
// replicates to the learner — relay from, or this cloud when from is nil —
// exports the learner's replication baseline (ack floor plus owed debt) and
// retires its route. Seat, authored entity and session identity stay with
// the cloud throughout: a learner leaving the cloud's direct service
// re-registers as routed via relay to, so its poses keep being authored.
// The caller cuts the old access path, brings the new one up, and hands the
// baseline to AdoptSession. A handoff from a server to itself is refused
// before any table changes.
func (s *Server) ReleaseSession(id protocol.ParticipantID, from, to *Relay) (core.PeerBaseline, error) {
	if from == to {
		return core.PeerBaseline{}, errSameServer
	}
	rt := s.rt
	if from != nil {
		rt = from.rt
	}
	b, err := rt.ExportClientBaseline(id)
	if err != nil {
		return core.PeerBaseline{}, err
	}
	if _, err := rt.RemoveClient(id); err != nil {
		return core.PeerBaseline{}, err
	}
	if from == nil {
		return b, s.rt.RegisterClient(id, to.Addr())
	}
	return b, nil
}

// AdoptSession is the inbound half: the new server — relay to, or this cloud
// when to is nil — registers the learner at addr and seeds its replicator
// from the baseline ReleaseSession returned, so replication resumes
// incrementally instead of with a full snapshot. The floor is honored only
// when the adopting node's history provably covers it (tick domains are
// node-local; see core.Replicator.ImportBaseline), and the runtime
// conservatively re-opens owed debt for the content skew between the two
// stores, so the handoff is lossless either way. from is the server the
// session left, as passed to ReleaseSession; it must not be to.
func (s *Server) AdoptSession(id protocol.ParticipantID, addr endpoint.Addr, from, to *Relay, b core.PeerBaseline) error {
	if from == to {
		return errSameServer
	}
	rt, via := s.rt, endpoint.Addr("")
	if to != nil {
		rt = to.rt
	} else {
		// Relay to cloud: the relay-routed registration gives way to a
		// direct one, and comes back if the direct one is refused.
		var err error
		if via, err = s.rt.RemoveClient(id); err != nil {
			return err
		}
	}
	if err := rt.AddClient(id, addr); err != nil {
		if to == nil {
			_ = s.rt.RegisterClient(id, via) // id was removed just above: cannot fail
		}
		return err
	}
	if err := rt.ImportClientBaseline(id, b); err != nil {
		return err
	}
	if from != nil && to != nil { // relay to relay: the cloud only tracks the route
		return s.rt.RetargetClient(id, to.Addr())
	}
	return nil
}

// RemoveClient drops a remote learner: the runtime tears down the
// replication peer (returning its scratch to the onboarding pool); the cloud
// releases the VR seat and withdraws the authored entity, with its
// interest-grid entry, so the departure replicates to everyone else.
func (s *Server) RemoveClient(id protocol.ParticipantID) error {
	if _, err := s.rt.RemoveClient(id); err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	// Release only if placed: a learner who never published a pose holds no
	// seat, and a storm of such leaves must not pay the error-path
	// allocation inside Release.
	if _, _, placed := s.seats.Placement(id); placed {
		_ = s.seats.Release(id)
	}
	s.rt.RemoveEntity(id)
	return nil
}

// PinFocus marks a participant (the educator, the current speaker) as
// always-replicated to every client regardless of distance.
func (s *Server) PinFocus(id protocol.ParticipantID) {
	if s.cfg.Interest != nil {
		s.cfg.Interest.Pin(id)
	}
}

// Start begins the fan-out tick loop.
func (s *Server) Start() error {
	if err := s.rt.Start(s.ingestEdges); err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	return nil
}

// Stop halts the tick loop.
func (s *Server) Stop() { s.rt.Stop() }

// ingestEdges is the cloud's per-tick ingest policy: mirror edge-authored
// entities into the world and propagate edge-side departures. Cloud-authored
// VR users (Home == 0) are retained; everything else absent from its edge's
// replica has left the classroom.
func (s *Server) ingestEdges() { s.rt.MirrorPeers(s.retainOwn) }

// ingestClientPose authors a remote VR learner's pose into the world,
// seating them on first contact ("the cloud server arranges the avatars of
// all users within an entirely virtual VR classroom").
func (s *Server) ingestClientPose(from endpoint.Addr, m *protocol.PoseUpdate) {
	c, ok := s.rt.Client(m.Participant)
	if !ok {
		s.count("recv.unknown_client")
		return
	}
	if s.spoofed(from, c) {
		return
	}
	pos, rot := m.Pose.Dequantize()
	corr, seatIdx, placed := s.seats.Placement(m.Participant)
	if !placed {
		anchor := mathx.V3(pos.X, 0, pos.Z)
		if _, err := s.seats.AssignVacant(m.Participant, anchor, rot.Yaw(), mathx.Vec3{}); err != nil {
			s.count("seats.exhausted")
		} else {
			s.count("seats.assigned")
		}
		corr, seatIdx, _ = s.seats.Placement(m.Participant)
	}
	p := pose.Pose{
		Time:     m.CapturedAt,
		Position: pos,
		Rotation: rot,
		Velocity: protocol.VelocityOf(m.VelMMS),
	}
	p = seat.ApplyCorrection(corr, p)
	wp, vel := protocol.Sample(p)
	s.rt.Upsert(&protocol.EntityState{
		Participant: m.Participant,
		Home:        0,
		CapturedAt:  m.CapturedAt,
		Pose:        wp,
		VelMMS:      vel,
		Seat:        seatIdx,
	}, p.Position)
	s.mClientPoses.Inc()
	s.hClientAge.Observe(s.rt.Sim().Now() - m.CapturedAt)
}

// ClientCount returns the number of registered remote learners.
func (s *Server) ClientCount() int { return s.rt.ClientCount() }

// admit is the receive policy for messages no typed hook claims: a learner
// connecting on its own (cmd/classroomd) joins with a Hello and leaves with a
// Leave. No other deployment sends them, and traffic from an edge or a relay
// is never admission. The counters it adds (sessions.joined, sessions.left,
// sessions.refused) exist from first increment.
func (s *Server) admit(from endpoint.Addr, _ []byte, msg protocol.Message) {
	switch msg.(type) {
	case *protocol.Snapshot, *protocol.Delta: // no replica: the dispatcher's count
		s.count("recv.unknown_peer")
		return
	}
	if s.link(from) {
		s.rt.Dispatcher().CountUnhandled()
		return
	}
	switch m := msg.(type) {
	case *protocol.Hello:
		s.hello(from, m)
	case *protocol.Leave:
		s.EndSession(from)
		s.closePeer(from)
	default:
		s.rt.Dispatcher().CountUnhandled()
	}
}

// hello admits the learner at from. A duplicate Hello on a live session is
// ignored; one for a participant another session holds takes the seat over
// (a churned client rejoining before its old connection's teardown landed).
// Participant 0 names no learner (it is what a named transport endpoint's
// handshake Hello carries): it is refused and counted, and not answered.
func (s *Server) hello(from endpoint.Addr, m *protocol.Hello) {
	if m.Participant == 0 {
		s.count("sessions.refused")
		return
	}
	if _, live := s.rt.ClientByAddr(from); live {
		return
	}
	if old, held := s.rt.Client(m.Participant); held {
		if old.Replicated { // a relay-routed holder's address is its relay's
			s.closePeer(old.Addr)
		}
		_ = s.RemoveClient(m.Participant)
		s.count("sessions.left")
	}
	if s.AddClient(m.Participant, from) != nil {
		return
	}
	s.count("sessions.joined")
	_ = s.rt.Dispatcher().Send(from, &protocol.HelloAck{Participant: m.Participant,
		TickRateHz: uint16(s.rt.TickHz()), ServerTick: s.rt.Store().Tick()})
}

// EndSession ends the learner session whose connection is at addr, if any.
// A transport whose peers are connections calls it when one dies.
func (s *Server) EndSession(addr endpoint.Addr) {
	if c, ok := s.rt.ClientByAddr(addr); ok && s.RemoveClient(c.ID) == nil {
		s.count("sessions.left")
	}
}

// spoofed reports, and counts as recv.spoofed, a message for learner c from
// neither c's address (a relay-routed learner's is its relay's) nor a link:
// a handoff retargets a learner while its old relay may still be forwarding.
func (s *Server) spoofed(from endpoint.Addr, c *node.Client) bool {
	if c.Addr == from || s.link(from) {
		return false
	}
	s.count("recv.spoofed")
	return true
}

// link reports whether addr is an edge or a relay, not a learner.
func (s *Server) link(addr endpoint.Addr) bool {
	_, learner := s.rt.ClientByAddr(addr)
	return !learner && (s.rt.HasSyncPeer(addr) || s.rt.Replicator().HasPeer(string(addr)))
}

func (s *Server) count(name string) { s.rt.Metrics().Counter(name).Inc() }
