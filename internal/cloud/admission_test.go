package cloud

import (
	"slices"
	"testing"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// TestAdmissionPolicy drives the self-admission policy over netsim, one
// message at a time on zero-latency links, so every step is deterministic:
// Hello/HelloAck, a duplicate Hello, a spoofed pose, a Leave that frees its
// seat for the next joiner, a seat takeover, and sync traffic from an
// unknown address.
func TestAdmissionPolicy(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	s, err := New(sim, net.Endpoint("cloud"), Config{}) // TickHz 0: the node's default
	if err != nil {
		t.Fatal(err)
	}
	lazy := []string{"sessions.joined", "sessions.left", "recv.spoofed"}
	for _, name := range lazy {
		if slices.Contains(s.Metrics().CounterNames(), name) {
			t.Fatalf("%s exists before anything was admitted; goldens compare Registry.String()", name)
		}
	}
	got := map[netsim.Addr][]protocol.Message{}
	for _, h := range []netsim.Addr{"a", "b", "c", "d", "x"} {
		if err := net.AddHost(h, netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
			if m, _, err := protocol.Decode(payload); err == nil {
				got[h] = append(got[h], m)
			}
		})); err != nil {
			t.Fatal(err)
		}
		if err := net.ConnectBoth(h, "cloud", netsim.LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// send delivers one message and whatever it provokes, firing no tick.
	send := func(from netsim.Addr, msg protocol.Message) {
		t.Helper()
		b, err := protocol.AppendEncode(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SendFrame(from, "cloud", protocol.CopyFrame(b)); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(sim.Now()); err != nil {
			t.Fatal(err)
		}
	}
	counter := func(name string) uint64 { return s.Metrics().Counter(name).Value() }
	hello := func(h netsim.Addr, id protocol.ParticipantID) {
		send(h, &protocol.Hello{Participant: id, Role: protocol.RoleLearner, Name: string(h)})
	}
	pose := func(id protocol.ParticipantID, x float64) *protocol.PoseUpdate {
		return &protocol.PoseUpdate{Participant: id, Seq: 1, CapturedAt: sim.Now(),
			Pose: protocol.QuantizePose(mathx.V3(x, 1.2, 0), mathx.QuatIdentity())}
	}

	tick := s.World().Tick()
	hello("a", 1)
	if len(got["a"]) != 1 {
		t.Fatalf("a got %d messages for its Hello, want the HelloAck", len(got["a"]))
	}
	ack, ok := got["a"][0].(*protocol.HelloAck)
	if !ok || ack.Participant != 1 || ack.TickRateHz != 30 || ack.ServerTick != tick || tick == 0 {
		t.Fatalf("ack = %+v, want participant 1 at 30 Hz (the default the node ticks at), server tick %d", got["a"][0], tick)
	}
	hello("a", 1)
	if len(got["a"]) != 1 || counter("sessions.joined") != 1 {
		t.Fatalf("a duplicate Hello was answered or re-joined: %d messages, joined %d", len(got["a"]), counter("sessions.joined"))
	}

	hello("b", 2)
	send("a", pose(1, 0.5))
	before, _ := s.World().Get(1)
	send("b", pose(1, 40))
	if after, _ := s.World().Get(1); after.Pose != before.Pose || len(after.Expression) != 0 {
		t.Fatalf("a spoof moved entity 1: %+v, was %+v", after, before)
	}
	if n := counter("recv.spoofed"); n != 1 {
		t.Fatalf("recv.spoofed = %d, want 1 (the pose)", n)
	}
	if counter("client.poses") != 1 {
		t.Fatalf("client.poses = %d, want 1", counter("client.poses"))
	}

	seat := before.Seat
	send("a", &protocol.Leave{Participant: 1})
	if _, ok := s.Runtime().Client(1); ok {
		t.Fatal("Leave kept the session")
	}
	if _, ok := s.World().Get(1); ok {
		t.Fatal("Leave kept the entity")
	}
	hello("c", 3)
	send("c", pose(3, 0.5))
	if e, _ := s.World().Get(3); e.Seat != seat {
		t.Fatalf("the next joiner got seat %d, want %d, the one the Leave freed", e.Seat, seat)
	}

	hello("d", 3)
	if c, ok := s.Runtime().Client(3); !ok || c.Addr != "d" {
		t.Fatal("a Hello for a held participant did not take the seat over")
	}
	if _, ok := got["d"][0].(*protocol.HelloAck); !ok {
		t.Fatalf("the taking-over session got %T, want its HelloAck", got["d"][0])
	}
	if j, l := counter("sessions.joined"), counter("sessions.left"); j != 4 || l != 2 {
		t.Fatalf("joined %d, left %d; want 4 (a, b, c, d) and 2 (a's Leave, c taken over)", j, l)
	}

	unknown, unhandled := counter("recv.unknown_peer"), counter("recv.unhandled")
	send("x", &protocol.Snapshot{Tick: 1})
	if counter("recv.unknown_peer") != unknown+1 || counter("recv.unhandled") != unhandled {
		t.Fatal("a Snapshot from an unknown address must count recv.unknown_peer, fallback or not")
	}
}

// TestHelloForParticipantZeroRefused: participant 0 names no learner — it is
// what a named transport endpoint's handshake Hello carries — so a Hello for
// it is refused and counted (sessions.refused). It is not answered, and no
// client is registered.
func TestHelloForParticipantZeroRefused(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	s, err := New(sim, net.Endpoint("cloud"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	if err := net.AddHost("a", netsim.HandlerFunc(func(netsim.Addr, []byte) { answered++ })); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("a", "cloud", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	b, err := protocol.AppendEncode(nil, &protocol.Hello{Participant: 0, Role: protocol.RoleLearner, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SendFrame("a", "cloud", protocol.CopyFrame(b)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(sim.Now()); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 { return s.Metrics().Counter(name).Value() }
	if j, r := counter("sessions.joined"), counter("sessions.refused"); j != 0 || r != 1 {
		t.Fatalf("sessions.joined = %d, sessions.refused = %d; want 0 and 1", j, r)
	}
	if _, ok := s.Runtime().ClientByAddr("a"); ok || s.ClientCount() != 0 || answered != 0 {
		t.Fatalf("participant 0 registered=%v, %d clients, %d answers; want none", ok, s.ClientCount(), answered)
	}
}
