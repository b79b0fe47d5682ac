package edge

import (
	"errors"
	"slices"
	"testing"
	"time"

	"metaclass/internal/avatar"
	"metaclass/internal/expression"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/sensors"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

func newEdge(t *testing.T, sim *vclock.Sim, net *netsim.Network, id protocol.ClassroomID, addr netsim.Addr) *Server {
	t.Helper()
	s, err := New(sim, net.Endpoint(addr), Config{Classroom: id})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wireParticipant(t *testing.T, sim *vclock.Sim, s *Server, id protocol.ParticipantID,
	seatIdx uint16, script trace.MotionScript) *sensors.Headset {
	t.Helper()
	if err := s.RegisterLocal(avatar.Avatar{
		Participant: id, Name: "p", Role: protocol.RoleLearner, Preferred: avatar.LoDHigh,
	}, seatIdx); err != nil {
		t.Fatal(err)
	}
	h := sensors.NewHeadset("h", sim, script, sensors.HeadsetConfig{},
		func(o sensors.Observation) { _ = s.IngestObservation(id, o) })
	h.Start()
	return h
}

func TestEdgeAuthorsLocalParticipants(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	s := newEdge(t, sim, net, 1, "e1")
	wireParticipant(t, sim, s, 10, 0, trace.Seated{Anchor: mathx.V3(1, 0, 2)})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); !errors.Is(err, ErrStarted) {
		t.Errorf("double start err = %v", err)
	}
	_ = sim.Run(time.Second)
	e, ok := s.LocalStore().Get(10)
	if !ok {
		t.Fatal("local participant not authored")
	}
	if e.Home != 1 {
		t.Errorf("home = %d, want 1", e.Home)
	}
	pos, _ := e.Pose.Dequantize()
	truth := trace.Seated{Anchor: mathx.V3(1, 0, 2)}.PoseAt(sim.Now())
	if pos.Dist(truth.Position) > 0.2 {
		t.Errorf("authored pose %v far from truth %v", pos, truth.Position)
	}
	p, ok := s.DisplayPose(10, sim.Now())
	if !ok || !p.IsFinite() {
		t.Error("DisplayPose for local participant failed")
	}
}

func TestEdgeRejectsZeroClassroom(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	if _, err := New(sim, net.Endpoint("x"), Config{Classroom: 0}); err == nil {
		t.Error("zero classroom accepted")
	}
}

func TestEdgeRegistrationErrors(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	s := newEdge(t, sim, net, 1, "e1")
	av := avatar.Avatar{Participant: 1, Preferred: avatar.LoDLow}
	if err := s.RegisterLocal(av, 0); err != nil {
		t.Fatal(err)
	}
	// Same participant again.
	if err := s.RegisterLocal(av, 1); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Same seat for another participant: must roll back the avatar add.
	av2 := avatar.Avatar{Participant: 2, Preferred: avatar.LoDLow}
	if err := s.RegisterLocal(av2, 0); err == nil {
		t.Error("double-booked seat accepted")
	}
	if err := s.RegisterLocal(av2, 1); err != nil {
		t.Errorf("registration after rollback failed: %v", err)
	}
	// Unknown participant operations.
	if err := s.IngestObservation(99, sensors.Observation{}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("ingest unknown err = %v", err)
	}
	if err := s.IngestExpression(99, expression.Neutral()); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("expression unknown err = %v", err)
	}
	if err := s.SetFlags(99, protocol.FlagSpeaking); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("flags unknown err = %v", err)
	}
	if err := s.UnregisterLocal(99); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unregister unknown err = %v", err)
	}
}

// TestEdgeRefusesInvalidLoD: a local whose avatar is off the LoD ladder is
// refused before it takes its seat.
func TestEdgeRefusesInvalidLoD(t *testing.T) {
	sim := vclock.New(1)
	s := newEdge(t, sim, netsim.New(sim), 1, "e1")
	if err := s.RegisterLocal(avatar.Avatar{Participant: 1, Preferred: avatar.LoD(200)}, 0); err == nil {
		t.Fatal("invalid LoD accepted")
	}
	if _, seated := s.Seats().SeatOf(1); seated || s.Seats().Vacant() != s.Seats().Total() {
		t.Error("refused registration holds a seat")
	}
	if err := s.RegisterLocal(avatar.Avatar{Participant: 1, Preferred: avatar.LoDLow}, 0); err != nil {
		t.Errorf("valid registration after the refusal: %v", err)
	}
}

func TestEdgeReplicatesToPeer(t *testing.T) {
	sim := vclock.New(2)
	net := netsim.New(sim)
	a := newEdge(t, sim, net, 1, "a")
	b := newEdge(t, sim, net, 2, "b")
	if err := net.ConnectBoth("a", "b", netsim.InterCampus()); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer("b"); err == nil {
		t.Error("duplicate peer accepted")
	}
	if err := b.ConnectPeer("a"); err != nil {
		t.Fatal(err)
	}
	wireParticipant(t, sim, a, 10, 0, trace.Seated{Anchor: mathx.V3(1, 0, 2)})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	_ = sim.Run(2 * time.Second)

	// B sees A's participant, seat-assigned, displayable.
	rep, ok := b.ReplicaOf("a")
	if !ok {
		t.Fatal("no replica of a at b")
	}
	if _, ok := rep.Store().Get(10); !ok {
		t.Fatal("participant 10 not replicated to b")
	}
	if got := b.Metrics().Counter("seats.assigned").Value(); got != 1 {
		t.Errorf("seats.assigned = %d, want 1", got)
	}
	p, ok := b.DisplayPose(10, sim.Now())
	if !ok || !p.IsFinite() {
		t.Fatal("b cannot display remote participant")
	}
	// The displayed pose is seat-corrected: it sits at the seat b assigned,
	// not at the participant's spot in a's room.
	idx, seated := b.Seats().SeatOf(10)
	if !seated {
		t.Fatal("participant 10 holds no seat at b")
	}
	place, err := b.Seats().SeatAt(idx)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Position.Dist(place.Position); d > 2.5 {
		t.Errorf("displayed pose %v is %.2f m from its seat at %v", p.Position, d, place.Position)
	}
	// Seated sway is a few centimetres; the seat nearest a's spot is 0.4 m
	// from it, so an uncorrected pose fails this.
	if d := mathx.V3(p.Position.X, 0, p.Position.Z).Dist(place.Position); d > 0.25 {
		t.Errorf("displayed pose %v is %.2f m off its seat at %v on the floor plane", p.Position, d, place.Position)
	}
	vis := b.VisibleParticipants()
	if len(vis) != 1 || vis[0] != 10 {
		t.Errorf("visible at b = %v", vis)
	}
	// Replication is acked, so the sender eventually uses deltas.
	st, err := a.Runtime().Replicator().StatsOf("b")
	if err != nil {
		t.Fatal(err)
	}
	if st.Deltas == 0 {
		t.Error("no deltas sent; ack loop broken")
	}
}

func TestEdgeStaleDespawn(t *testing.T) {
	sim := vclock.New(3)
	net := netsim.New(sim)
	s, err := New(sim, net.Endpoint("e"), Config{Classroom: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := wireParticipant(t, sim, s, 10, 0, trace.Still{Anchor: mathx.V3(0, 1.2, 0)})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	_ = sim.Run(time.Second)
	if _, ok := s.LocalStore().Get(10); !ok {
		t.Fatal("participant not authored while tracked")
	}
	// Headset dies (wearer took it off / left coverage).
	h.Stop()
	_ = sim.Run(time.Second + staleAfter + 500*time.Millisecond)
	if _, ok := s.LocalStore().Get(10); ok {
		t.Error("stale participant not despawned")
	}
	if got := s.Metrics().Counter("local.despawned").Value(); got == 0 {
		t.Error("despawn not counted")
	}
}

// TestEdgeDespawnedLocalIsNotDisplayed: once authorLocals has despawned a
// local whose sensors went quiet, the room's displays neither draw nor list
// them; a display would otherwise show a Kalman-extrapolated ghost.
func TestEdgeDespawnedLocalIsNotDisplayed(t *testing.T) {
	sim := vclock.New(3)
	net := netsim.New(sim)
	s := newEdge(t, sim, net, 1, "e")
	h := wireParticipant(t, sim, s, 10, 0, trace.Still{Anchor: mathx.V3(0, 1.2, 0)})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	_ = sim.Run(time.Second)
	if _, ok := s.DisplayPose(10, sim.Now()); !ok {
		t.Fatal("tracked participant not displayed")
	}
	if got := s.VisibleParticipants(); !slices.Equal(got, []protocol.ParticipantID{10}) {
		t.Fatalf("visible while tracked = %v, want [10]", got)
	}
	h.Stop()
	_ = sim.Run(time.Second + staleAfter + 500*time.Millisecond)
	if _, ok := s.LocalStore().Get(10); ok {
		t.Fatal("stale participant not despawned")
	}
	if p, ok := s.DisplayPose(10, sim.Now()); ok {
		t.Errorf("despawned participant displayed at %v", p.Position)
	}
	if got := s.VisibleParticipants(); len(got) != 0 {
		t.Errorf("visible after despawn = %v, want none", got)
	}
}

func TestEdgeSeatExhaustionFallsBackToIdentity(t *testing.T) {
	sim := vclock.New(4)
	net := netsim.New(sim)
	a := newEdge(t, sim, net, 1, "a")
	b := newEdge(t, sim, net, 2, "b")
	if err := net.ConnectBoth("a", "b", netsim.InterCampus()); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer("b"); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer("a"); err != nil {
		t.Fatal(err)
	}
	// Local participants 100.. take every one of A's seats.
	for i := 0; i < seatRows*seatCols; i++ {
		wireParticipant(t, sim, a, protocol.ParticipantID(100+i), uint16(i), trace.Seated{})
	}
	wireParticipant(t, sim, b, 2, 0, trace.Seated{Anchor: mathx.V3(2, 0, 2)})
	_ = a.Start()
	_ = b.Start()
	_ = sim.Run(2 * time.Second)
	// A's seats are all occupied by its locals; the visitor still displays.
	if got := a.Metrics().Counter("seats.exhausted").Value(); got != 1 {
		t.Errorf("seats.exhausted = %d, want 1", got)
	}
	got, ok := a.DisplayPose(2, sim.Now())
	if !ok {
		t.Fatal("visitor not displayable despite seat exhaustion")
	}
	// Standing room is the identity correction: the display shows the
	// replicated pose unchanged.
	rep, _ := a.ReplicaOf("b")
	want, ok := rep.Pose(2, sim.Now())
	if !ok {
		t.Fatal("visitor missing from a's replica of b")
	}
	if got != want {
		t.Errorf("standing visitor displayed as %+v, replica holds %+v", got, want)
	}
}

func TestEdgeExpressionAndFlagsReplicated(t *testing.T) {
	sim := vclock.New(5)
	net := netsim.New(sim)
	a := newEdge(t, sim, net, 1, "a")
	b := newEdge(t, sim, net, 2, "b")
	if err := net.ConnectBoth("a", "b", netsim.InterCampus()); err != nil {
		t.Fatal(err)
	}
	_ = a.ConnectPeer("b")
	_ = b.ConnectPeer("a")
	wireParticipant(t, sim, a, 10, 0, trace.Seated{})
	if err := a.IngestExpression(10, expression.PresetSmile.Make()); err != nil {
		t.Fatal(err)
	}
	if err := a.SetFlags(10, protocol.FlagHandRaised); err != nil {
		t.Fatal(err)
	}
	_ = a.Start()
	_ = b.Start()
	_ = sim.Run(time.Second)
	rep, _ := b.ReplicaOf("a")
	e, ok := rep.Store().Get(10)
	if !ok {
		t.Fatal("not replicated")
	}
	if e.Flags&protocol.FlagHandRaised == 0 {
		t.Error("hand-raise flag lost in replication")
	}
	got := expression.Dequantize(e.Expression)
	if got.Distance(expression.PresetSmile.Make()) > 0.02 {
		t.Error("expression lost in replication")
	}
}

func TestEdgeUnregisterReleasesEverything(t *testing.T) {
	sim := vclock.New(6)
	net := netsim.New(sim)
	s := newEdge(t, sim, net, 1, "e")
	wireParticipant(t, sim, s, 10, 3, trace.Seated{})
	_ = s.Start()
	_ = sim.Run(time.Second)
	if err := s.UnregisterLocal(10); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Seats().SeatOf(10); ok {
		t.Error("seat not released")
	}
	if _, ok := s.LocalStore().Get(10); ok {
		t.Error("store entry not removed")
	}
	if err := s.IngestObservation(10, sensors.Observation{}); err == nil {
		t.Error("observations accepted after unregister")
	}
}

func TestEdgeIgnoresGarbageMessages(t *testing.T) {
	sim := vclock.New(7)
	net := netsim.New(sim)
	s := newEdge(t, sim, net, 1, "e")
	if err := net.AddHost("evil", nil); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("evil", "e", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	// Garbage bytes and a snapshot from an unknown peer.
	_ = net.SendFrame("evil", "e", protocol.CopyFrame([]byte{1, 2, 3}))
	frame, err := protocol.AppendEncode(nil, &protocol.Snapshot{Tick: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = net.SendFrame("evil", "e", protocol.CopyFrame(frame))
	_ = sim.RunAll()
	if got := s.Metrics().Counter("recv.decode_errors").Value(); got != 1 {
		t.Errorf("recv.decode_errors = %d, want 1", got)
	}
	if got := s.Metrics().Counter("recv.unknown_peer").Value(); got != 1 {
		t.Errorf("recv.unknown_peer = %d, want 1", got)
	}
}
