// Package edge implements the per-classroom edge server of the paper's
// Fig. 3. One Server runs per physical MR classroom. It:
//
//   - aggregates headset and room-sensor observations and fuses them into
//     authoritative poses ("the edge server ... aggregates the data to
//     estimate the pose and facial expression of the participants");
//   - authors those participants into the replicated state and packages
//     them "via the real-time transmission link to both the edge server of
//     Classroom 2 and the cloud server of the VR classroom";
//   - on receive, "identifies the vacant seats to display virtual avatars"
//     and "corrects the pose to match the new position of the avatar";
//   - serves the merged local+remote scene to the classroom's MR displays.
//
// Peer tables, replication wiring, and the tick loop live in the shared
// node.Runtime; this package is the sensing/fusion/seating policy over it.
package edge

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"metaclass/internal/avatar"
	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/expression"
	"metaclass/internal/fusion"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/node"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/seat"
	"metaclass/internal/sensors"
	"metaclass/internal/vclock"
)

// Edge server errors.
var (
	ErrNotRegistered = errors.New("edge: participant not registered")
	ErrStarted       = node.ErrStarted
)

// Config parameterizes an edge server.
type Config struct {
	// Classroom is this room's ID (must be unique and nonzero).
	Classroom protocol.ClassroomID
	// TickHz is the replication tick rate (default 30).
	TickHz float64
	// Interest is unused: an edge replicates to its server peers unfiltered
	// and serves no VR client, the only kind a policy filters for. It
	// remains for callers in bench/.
	Interest *interest.Policy
}

// The room's seating grid is seatRows x seatCols seats, seatPitch meters
// apart. staleAfter despawns a local participant whose sensors went quiet.
const (
	seatRows, seatCols = 6, 8
	seatPitch          = 1.2
	staleAfter         = 2 * time.Second
)

// Server is a classroom edge server: the sensing and seat-correction policy
// over the shared node runtime.
type Server struct {
	cfg Config
	rt  *node.Runtime

	locals map[protocol.ParticipantID]*local
	// seats places locals and remote participants alike, and holds each
	// remote one's correction from their source frame into their seat frame.
	seats *seat.Map

	// Hot-path caches: metric handles resolved once and per-tick scratch
	// slices reused (the send/receive paths live in the runtime).
	mLocalDespawn *metrics.Counter
	idScratch     []protocol.ParticipantID
}

// local is one physically-present participant: their sensor fusion and the
// expression and activity flags authored with their pose.
type local struct {
	*fusion.Fuser
	expr  []byte
	flags uint8
}

// New creates an edge server on the given transport endpoint: its address,
// send path, and receive dispatch all come from tr, so the same construction
// works over netsim and TCP.
func New(sim *vclock.Sim, tr endpoint.Transport, cfg Config) (*Server, error) {
	if cfg.Classroom == 0 {
		return nil, errors.New("edge: classroom ID must be nonzero")
	}
	rt, err := node.New(sim, tr, node.Config{TickHz: cfg.TickHz})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		rt:     rt,
		locals: make(map[protocol.ParticipantID]*local),
		seats:  seat.NewGrid(cfg.Classroom, seatRows, seatCols, seatPitch),
	}
	s.mLocalDespawn = rt.Metrics().Counter("local.despawned")
	return s, nil
}

// Addr returns the server's endpoint address.
func (s *Server) Addr() endpoint.Addr { return s.rt.Addr() }

// Classroom returns the classroom ID.
func (s *Server) Classroom() protocol.ClassroomID { return s.cfg.Classroom }

// Seats exposes the seat map (read-mostly; the server owns mutations).
func (s *Server) Seats() *seat.Map { return s.seats }

// Metrics exposes the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.rt.Metrics() }

// Runtime exposes the shared node runtime (tests and experiments).
func (s *Server) Runtime() *node.Runtime { return s.rt }

// RegisterLocal adds a physically-present participant, seating them at
// seatIdx and creating their sensor-fusion pipeline. It reads only the
// avatar's Participant and Preferred; the edge keeps no other field. It
// refuses an avatar off the LoD ladder, a taken seat, and a participant
// already placed (every local holds a seat, so that covers a second
// registration).
func (s *Server) RegisterLocal(av avatar.Avatar, seatIdx uint16) error {
	if !av.Preferred.Valid() {
		return fmt.Errorf("edge: invalid LoD %d", av.Preferred)
	}
	if err := s.seats.Occupy(seatIdx, av.Participant); err != nil {
		return err
	}
	s.locals[av.Participant] = &local{Fuser: fusion.New()}
	return nil
}

// UnregisterLocal removes a local participant (left the room). Their fused
// state, expression/flag entries, seat, and authored store entry are all
// released; the store removal replicates the departure to every peer.
func (s *Server) UnregisterLocal(id protocol.ParticipantID) error {
	if _, ok := s.locals[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNotRegistered, id)
	}
	delete(s.locals, id)
	_ = s.seats.Release(id)
	s.rt.RemoveEntity(id)
	return nil
}

// IngestObservation feeds one sensor observation for a local participant.
// Wire sensors to this method: headset sinks know their wearer; room-array
// sinks parse the participant from Observation.SensorID.
func (s *Server) IngestObservation(id protocol.ParticipantID, o sensors.Observation) error {
	l, ok := s.locals[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotRegistered, id)
	}
	if l.Observe(o) {
		s.rt.Metrics().Counter("fusion.accepted").Inc()
	} else {
		s.rt.Metrics().Counter("fusion.rejected").Inc()
	}
	return nil
}

// IngestExpression feeds a local participant's facial expression sample.
func (s *Server) IngestExpression(id protocol.ParticipantID, e expression.Expression) error {
	if l, ok := s.locals[id]; ok {
		l.expr = e.Quantize()
		return nil
	}
	return fmt.Errorf("%w: %d", ErrNotRegistered, id)
}

// SetFlags sets a local participant's activity flags (speaking, hand up).
func (s *Server) SetFlags(id protocol.ParticipantID, flags uint8) error {
	if l, ok := s.locals[id]; ok {
		l.flags = flags
		return nil
	}
	return fmt.Errorf("%w: %d", ErrNotRegistered, id)
}

// ConnectPeer links this edge to another sync server (peer edge or cloud).
// Replication is unfiltered: servers need the full authored set.
func (s *Server) ConnectPeer(addr endpoint.Addr) error {
	if s.rt.HasSyncPeer(addr) {
		return fmt.Errorf("edge: peer %s already connected", addr)
	}
	if err := s.rt.Replicate(addr, nil); err != nil {
		return err
	}
	p, err := s.rt.ConnectReplica(addr, "remote.pose.age", true)
	if err != nil {
		return err
	}
	// An ID reaches an edge through one peer at most (the cloud sends edges
	// only its VR learners, an edge only its locals), so the seat map needs
	// no per-peer key.
	p.Replica.OnNew = s.assignSeat
	p.Replica.OnRemove = func(id protocol.ParticipantID) { _ = s.seats.Release(id) }
	return nil
}

// assignSeat implements the Fig. 3 receive path: place the new remote
// avatar in the nearest vacant seat, where the seat map derives and keeps its
// pose correction (or standing room, when no seat is vacant).
func (s *Server) assignSeat(e protocol.EntityState) {
	pos, rot := e.Pose.Dequantize()
	anchor := mathx.V3(pos.X, 0, pos.Z) // floor point under first pose
	if _, err := s.seats.AssignVacant(e.Participant, anchor, rot.Yaw(), anchor); err != nil {
		s.rt.Metrics().Counter("seats.exhausted").Inc()
		return
	}
	s.rt.Metrics().Counter("seats.assigned").Inc()
}

// Start begins the replication tick loop.
func (s *Server) Start() error {
	if s.rt.Started() {
		return ErrStarted
	}
	return s.rt.Start(s.authorLocals)
}

// Stop halts the tick loop.
// Safe to call repeatedly.
func (s *Server) Stop() { s.rt.Stop() }

// authorLocals is the edge's per-tick ingest policy: author local
// participants into the replicated store from fused sensor state, despawning
// anyone whose sensors went quiet.
func (s *Server) authorLocals() {
	now := s.rt.Sim().Now()
	store := s.rt.Store()
	ids := s.idScratch[:0]
	for id := range s.locals {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s.idScratch = ids
	for _, id := range ids {
		l := s.locals[id]
		if l.Stale(now, staleAfter) {
			if _, present := store.Get(id); present {
				store.Remove(id)
				s.mLocalDespawn.Inc()
			}
			continue
		}
		est, ok := l.Estimate(now)
		if !ok {
			continue
		}
		seatIdx, _ := s.seats.SeatOf(id)
		wp, vel := protocol.Sample(est)
		store.Upsert(protocol.EntityState{
			Participant: id,
			Home:        s.cfg.Classroom,
			CapturedAt:  l.LastObservation(),
			Pose:        wp,
			VelMMS:      vel,
			Expression:  l.expr,
			Seat:        seatIdx,
			Flags:       l.flags,
		})
	}
}

// DisplayPose returns the pose of any participant as the classroom's MR
// displays should render it at display time: fused live state for local
// participants, seat-corrected interpolated state for remote ones. at is a
// live display time (the node's now): a remote participant's history reaches
// only as far back as a display at the live edge reads (core.Replica.Pose),
// and an earlier at is answered with the oldest pose still held. A local
// participant whose sensors went quiet is not displayed: authorLocals
// despawns them by the same rule.
func (s *Server) DisplayPose(id protocol.ParticipantID, at time.Duration) (pose.Pose, bool) {
	if l, ok := s.locals[id]; ok && !l.Stale(at, staleAfter) {
		return l.Estimate(at)
	}
	for _, addr := range s.rt.SyncPeerAddrs() {
		rp, _ := s.rt.SyncPeer(addr)
		p, ok := rp.Replica.Pose(id, at)
		if !ok {
			continue
		}
		if corr, _, ok := s.seats.Placement(id); ok {
			p = seat.ApplyCorrection(corr, p)
		}
		return p, true
	}
	return pose.Pose{}, false
}

// VisibleParticipants lists everyone the room's displays can currently
// render: tracked local participants plus replicated remote ones, ascending.
func (s *Server) VisibleParticipants() []protocol.ParticipantID {
	now := s.rt.Sim().Now()
	var out []protocol.ParticipantID
	for id, l := range s.locals {
		if !l.Stale(now, staleAfter) {
			out = append(out, id)
		}
	}
	for _, addr := range s.rt.SyncPeerAddrs() {
		rp, _ := s.rt.SyncPeer(addr)
		out = append(out, rp.Replica.Participants()...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// LocalStore exposes the authored state (tests and experiments).
func (s *Server) LocalStore() *core.Store { return s.rt.Store() }

// ReplicaOf exposes a peer's replica (tests and experiments).
func (s *Server) ReplicaOf(addr endpoint.Addr) (*core.Replica, bool) {
	rp, ok := s.rt.SyncPeer(addr)
	if !ok {
		return nil, false
	}
	return rp.Replica, true
}
