package cloud

import (
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/node"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

func newCloud(t *testing.T, sim *vclock.Sim, net *netsim.Network, pol *interest.Policy) *Server {
	t.Helper()
	s, err := New(sim, net.Endpoint("cloud"), Config{Interest: pol})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addClientHost links a learner host to the cloud at 20 ms without loss: none
// of these tests is about loss, and their learners send single frames.
func addClientHost(t *testing.T, net *netsim.Network, addr netsim.Addr, h endpoint.Receiver) {
	t.Helper()
	if err := net.AddHost(addr, h); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth(addr, "cloud", netsim.LinkConfig{Latency: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
}

func clientPose(id protocol.ParticipantID, seq uint32, at time.Duration, x float64) []byte {
	frame, err := protocol.AppendEncode(nil, &protocol.PoseUpdate{
		Participant: id, Seq: seq, CapturedAt: at,
		Pose: protocol.QuantizePose(mathx.V3(x, 1.2, 0), mathx.QuatIdentity()),
	})
	if err != nil {
		panic(err)
	}
	return frame
}

func TestCloudSeatsAndAuthorsClients(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	addClientHost(t, net, "c1", nil)
	if err := s.AddClient(7, "c1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClient(7, "c1"); !errors.Is(err, ErrClientExists) {
		t.Errorf("dup client err = %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	_ = net.SendFrame("c1", "cloud", protocol.CopyFrame(clientPose(7, 1, 0, 0.5)))
	_ = sim.Run(time.Second)
	e, ok := s.World().Get(7)
	if !ok {
		t.Fatal("client not authored into world")
	}
	if e.Home != 0 {
		t.Errorf("client home = %d, want 0", e.Home)
	}
	if e.Seat == 0 && s.Metrics().Counter("seats.assigned").Value() == 0 {
		t.Error("client not seated")
	}
	// The authored pose is seat-corrected: it must sit near the assigned
	// VR seat, not at the client's living-room origin.
	seat, err := s.seats.SeatAt(e.Seat)
	if err != nil {
		t.Fatal(err)
	}
	pos, _ := e.Pose.Dequantize()
	if pos.Dist(seat.Position) > 2.5 {
		t.Errorf("authored pose %v far from VR seat %v", pos, seat.Position)
	}
	if s.ClientCount() != 1 {
		t.Errorf("ClientCount = %d", s.ClientCount())
	}
}

// TestCloudStandingRoom pins the cloud's standing-room policy: a learner who
// finds no vacant VR seat is authored at its own, uncorrected pose in seat 0,
// each seating outcome is counted once, on first contact, and a standing
// learner keeps standing when a seat frees until it is removed.
func TestCloudStandingRoom(t *testing.T) {
	sim := vclock.New(4)
	net := netsim.New(sim)
	s, err := New(sim, net.Endpoint("cloud"), Config{VRRows: 1, VRCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	addClientHost(t, net, "c1", nil)
	addClientHost(t, net, "c2", nil)
	if err := s.AddClient(1, "c1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClient(2, "c2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	seq := uint32(0)
	// send has learner 1 (when seated) and learner 2 publish n poses each,
	// 100 ms apart; learner 2 stands 3 m to the side of its living-room origin.
	send := func(n int, seated bool) {
		for i := 0; i < n; i++ {
			seq++
			if seated {
				_ = net.SendFrame("c1", "cloud", protocol.CopyFrame(clientPose(1, seq, sim.Now(), 0.5)))
				_ = sim.Run(sim.Now() + 50*time.Millisecond) // learner 1 is first to a seat
			}
			_ = net.SendFrame("c2", "cloud", protocol.CopyFrame(clientPose(2, seq, sim.Now(), 3)))
			_ = sim.Run(sim.Now() + 100*time.Millisecond)
		}
	}
	standing := func(when string) {
		t.Helper()
		e, ok := s.World().Get(2)
		if !ok {
			t.Fatalf("%s: standing learner not authored", when)
		}
		if e.Seat != 0 {
			t.Errorf("%s: standing learner in seat %d, want 0", when, e.Seat)
		}
		if _, seated := s.seats.SeatOf(2); seated {
			t.Errorf("%s: standing learner holds a seat", when)
		}
		// The identity correction: the pose it sent, not a seat's.
		if pos, _ := e.Pose.Dequantize(); !pos.NearEq(mathx.V3(3, 1.2, 0), 0.01) {
			t.Errorf("%s: standing learner authored at %v, want its own pose (3, 1.2, 0)", when, pos)
		}
		if got := s.Metrics().Counter("seats.exhausted").Value(); got != 1 {
			t.Errorf("%s: seats.exhausted = %d, want 1", when, got)
		}
		if got := s.Metrics().Counter("seats.assigned").Value(); got != 1 {
			t.Errorf("%s: seats.assigned = %d, want 1", when, got)
		}
	}

	send(4, true)
	if idx, seated := s.seats.SeatOf(1); !seated || idx != 0 {
		t.Fatalf("learner 1: SeatOf = %d, %v; want the one seat", idx, seated)
	}
	standing("both learners posting")

	if err := s.RemoveClient(1); err != nil {
		t.Fatal(err)
	}
	if got := s.seats.Vacant(); got != 1 {
		t.Fatalf("Vacant = %d after the seated learner left, want 1", got)
	}
	send(3, false)
	standing("after the seat freed")
	if got := s.seats.Vacant(); got != 1 {
		t.Errorf("Vacant = %d: the standing learner took the freed seat", got)
	}

	if err := s.RemoveClient(2); err != nil {
		t.Fatalf("removing the standing learner: %v", err)
	}
	if _, ok := s.World().Get(2); ok {
		t.Error("removed standing learner still in world")
	}
	if s.seats.Vacant() != s.seats.Total() {
		t.Errorf("Vacant = %d of %d after both left", s.seats.Vacant(), s.seats.Total())
	}
}

func TestCloudUnknownClientPoseDropped(t *testing.T) {
	sim := vclock.New(2)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	addClientHost(t, net, "c1", nil)
	_ = s.Start()
	_ = net.SendFrame("c1", "cloud", protocol.CopyFrame(clientPose(99, 1, 0, 0)))
	_ = sim.Run(time.Second)
	if _, ok := s.World().Get(99); ok {
		t.Error("unregistered client authored")
	}
	if s.Metrics().Counter("recv.unknown_client").Value() == 0 {
		t.Error("unknown client not counted")
	}
}

func TestCloudRemoveClient(t *testing.T) {
	sim := vclock.New(3)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	addClientHost(t, net, "c1", nil)
	if err := s.AddClient(7, "c1"); err != nil {
		t.Fatal(err)
	}
	_ = s.Start()
	_ = net.SendFrame("c1", "cloud", protocol.CopyFrame(clientPose(7, 1, 0, 0)))
	_ = sim.Run(time.Second)
	if err := s.RemoveClient(7); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveClient(7); err == nil {
		t.Error("double remove accepted")
	}
	if _, ok := s.World().Get(7); ok {
		t.Error("removed client still in world")
	}
	if s.seats.Vacant() != s.seats.Total() {
		t.Error("seat not released")
	}
}

// TestRemoveUnknownClientMatchesRuntimeError pins the documented contract that
// the runtime's errors match through the node packages: removing a client the
// server or the relay does not serve is node.ErrUnknownClient at both levels.
func TestRemoveUnknownClientMatchesRuntimeError(t *testing.T) {
	sim := vclock.New(3)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	if err := s.RemoveClient(7); !errors.Is(err, node.ErrUnknownClient) {
		t.Errorf("server: err = %v, want one matching node.ErrUnknownClient", err)
	}
	r, err := NewRelay(sim, net.Endpoint("relay"), RelayConfig{Upstream: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveClient(7); !errors.Is(err, node.ErrUnknownClient) {
		t.Errorf("relay: err = %v, want one matching node.ErrUnknownClient", err)
	}
}

func TestCloudInterestFilterReducesTraffic(t *testing.T) {
	run := func(pol *interest.Policy) uint64 {
		sim := vclock.New(4)
		net := netsim.New(sim)
		s := newCloud(t, sim, net, pol)
		// 20 clients spread far apart so distance tiers engage.
		for i := 0; i < 20; i++ {
			id := protocol.ParticipantID(i + 1)
			addr := netsim.Addr(rune('A' + i))
			addClientHost(t, net, addr, nil)
			if err := s.AddClient(id, endpoint.Addr(addr)); err != nil {
				t.Fatal(err)
			}
		}
		_ = s.Start()
		// Clients publish from scattered anchors.
		for i := 0; i < 20; i++ {
			id := protocol.ParticipantID(i + 1)
			addr := netsim.Addr(rune('A' + i))
			i := i
			seq := uint32(0)
			sim.Ticker(50*time.Millisecond, func() {
				seq++
				_ = net.SendFrame(addr, "cloud", protocol.CopyFrame(clientPose(id, seq, sim.Now(), float64(i*40))))
			})
		}
		_ = sim.Run(3 * time.Second)
		return s.Metrics().Counter("sync.bytes.sent").Value()
	}
	broadcast := run(nil)
	filtered := run(interest.NewPolicy())
	if filtered >= broadcast {
		t.Errorf("interest bytes %d >= broadcast %d", filtered, broadcast)
	}
}

func TestRelayMirrorsAndServes(t *testing.T) {
	sim := vclock.New(5)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)

	r, err := NewRelay(sim, net.Endpoint("relay"), RelayConfig{Upstream: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("relay", "cloud", netsim.LinkConfig{Latency: 50 * time.Millisecond, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelay("relay"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelay("relay"); !errors.Is(err, ErrPeerExists) {
		t.Errorf("dup relay err = %v", err)
	}

	// One publisher direct to the cloud, one subscriber behind the relay.
	addClientHost(t, net, "pub", nil)
	if err := s.AddClient(1, "pub"); err != nil {
		t.Fatal(err)
	}
	var got []protocol.Message
	if err := net.AddHost("sub", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		if m, _, err := protocol.Decode(payload); err == nil {
			got = append(got, m)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("sub", "relay", netsim.ResidentialBroadband(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRelayClient(2, "relay"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddClient(2, "sub"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddClient(2, "sub"); !errors.Is(err, ErrClientExists) {
		t.Errorf("dup relay client err = %v", err)
	}
	_ = s.Start()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	seq := uint32(0)
	sim.Ticker(50*time.Millisecond, func() {
		seq++
		_ = net.SendFrame("pub", "cloud", protocol.CopyFrame(clientPose(1, seq, sim.Now(), 1)))
	})
	_ = sim.Run(3 * time.Second)

	// The subscriber must have received entity 1 through the relay chain.
	found := false
	for _, m := range got {
		switch msg := m.(type) {
		case *protocol.Snapshot:
			for _, e := range msg.Entities {
				if e.Participant == 1 {
					found = true
				}
			}
		case *protocol.Delta:
			for _, e := range msg.Changed {
				if e.Participant == 1 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("entity never reached the relay-served client")
	}
	if r.ClientCount() != 1 {
		t.Errorf("relay ClientCount = %d", r.ClientCount())
	}
}

func TestRelayForwardsClientPosesUpstream(t *testing.T) {
	sim := vclock.New(6)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	r, err := NewRelay(sim, net.Endpoint("relay"), RelayConfig{Upstream: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	if err := net.ConnectBoth("relay", "cloud", netsim.LinkConfig{Latency: 30 * time.Millisecond, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelay("relay"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost("sub", nil); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("sub", "relay", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRelayClient(2, "relay"); err != nil {
		t.Fatal(err)
	}
	_ = s.Start()
	_ = r.Start()
	_ = net.SendFrame("sub", "relay", protocol.CopyFrame(clientPose(2, 1, 0, 3)))
	_ = sim.Run(time.Second)
	if _, ok := s.World().Get(2); !ok {
		t.Fatal("relay did not forward the client pose upstream")
	}
	if r.Metrics().Counter("forwarded.up").Value() == 0 {
		t.Error("forwarding not counted")
	}
}

// TestRelayRefusesRetiredExpressionUpload: wire type 6 was the VR client's
// expression upload, retired with its ingest hook, wire type 15 the session
// layer's ActivityEvent, which nothing sent, and wire types 13 and 16 the
// lecture video's chunk and nack, which now have their own framing. A
// well-formed frame of any of them from a served client is a decode error at
// the relay: it reaches no hook and no fallback, and nothing goes upstream.
func TestRelayRefusesRetiredExpressionUpload(t *testing.T) {
	sim := vclock.New(7)
	net := netsim.New(sim)
	upstream := 0
	if err := net.AddHost("cloud", netsim.HandlerFunc(func(netsim.Addr, []byte) { upstream++ })); err != nil {
		t.Fatal(err)
	}
	r, err := NewRelay(sim, net.Endpoint("relay"), RelayConfig{Upstream: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("relay", "cloud", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost("sub", nil); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("sub", "relay", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddClient(3, "sub"); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// ExpressionUpdate{Participant: 3, Seq: 2, Weights: {0, 128, 255}} and
	// ActivityEvent{Participant: 4, Activity: 1, Kind: "quiz", Payload: "a=1"},
	// VideoChunk{Stream: 1, FrameID: 2, GroupK: 8, GroupR: 3, ShardIndex: 9,
	// Keyframe: true, Deadline: 1s, Data: {1, 2, 3, 4}} and
	// Nack{Stream: 1, FrameID: 2, Missing: {0, 9}} as Encode wrote them while
	// the types existed.
	for _, h := range []string{
		"4d4301060c0000000300000002030080ff1d5beb7b",
		"4d43010f110000000400000001047175697a03613d31717cf0ae",
		"4d43010d1600000001000000020803090180a8d6b90704010203042ecd3ed9",
		"4d4301100b00000001000000020200095468a98f",
	} {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SendFrame("sub", "relay", protocol.CopyFrame(frame)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 { return r.Metrics().Counter(name).Value() }
	if n := counter("recv.decode_errors"); n != 4 {
		t.Errorf("recv.decode_errors = %d, want 4", n)
	}
	if n := counter("forwarded.up") + counter("recv.unhandled"); n != 0 {
		t.Errorf("the frame reached the fallback: forwarded.up + recv.unhandled = %d", n)
	}
	if upstream != 0 {
		t.Errorf("%d frames went upstream, want none", upstream)
	}
}

// TestRetiredAudioFrameRefused: wire type 14 was AudioFrame, which the cloud
// relayed to every other directly served learner and nothing sent. A
// well-formed frame of it is now a decode error at the cloud, which relays it
// to no one, and at a relay, which forwards nothing upstream.
func TestRetiredAudioFrameRefused(t *testing.T) {
	sim := vclock.New(9)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	heard := map[netsim.Addr]int{}
	for _, h := range []netsim.Addr{"a", "b"} {
		if err := net.AddHost(h, netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
			if len(payload) > 3 && payload[3] == 14 { // the type byte
				heard[h]++
			}
		})); err != nil {
			t.Fatal(err)
		}
		if err := net.ConnectBoth(h, "cloud", netsim.LinkConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddClient(1, "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClient(2, "b"); err != nil {
		t.Fatal(err)
	}
	r, err := NewRelay(sim, net.Endpoint("relay"), RelayConfig{Upstream: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("relay", "cloud", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelay("relay"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost("sub", nil); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("sub", "relay", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRelayClient(3, "relay"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddClient(3, "sub"); err != nil {
		t.Fatal(err)
	}
	_ = s.Start()
	_ = r.Start()
	// AudioFrame{Participant: 1 or 3, Seq: 2, CapturedAt: 1s, Data: "voice"}
	// as Encode wrote it while the type existed.
	for _, send := range []struct {
		from, to netsim.Addr
		frame    string
	}{
		{"a", "cloud", "4d43010e13000000010000000280a8d6b90705766f696365d2bedc51"},
		{"sub", "relay", "4d43010e13000000030000000280a8d6b90705766f696365551ef932"},
	} {
		frame, err := hex.DecodeString(send.frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SendFrame(send.from, send.to, protocol.CopyFrame(frame)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().Counter("recv.decode_errors").Value(); n != 1 {
		t.Errorf("cloud recv.decode_errors = %d, want 1", n)
	}
	if len(heard) != 0 {
		t.Errorf("the cloud relayed the frame: %v", heard)
	}
	if n := r.Metrics().Counter("recv.decode_errors").Value(); n != 1 {
		t.Errorf("relay recv.decode_errors = %d, want 1", n)
	}
	if n := r.Metrics().Counter("forwarded.up").Value(); n != 0 {
		t.Errorf("relay forwarded.up = %d, want 0", n)
	}
}

// TestFailedAdoptSessionKeepsRelayRoute: a relay learner adopted by the cloud
// at an address the cloud already replicates to is refused, and the refusal
// changes nothing. The learner stays registered behind its relay, so its
// relay-routed poses are still authored and RemoveClient still releases its
// seat and its entity.
func TestFailedAdoptSessionKeepsRelayRoute(t *testing.T) {
	sim := vclock.New(8)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	r, err := NewRelay(sim, net.Endpoint("relay"), RelayConfig{Upstream: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("relay", "cloud", netsim.LinkConfig{Latency: 30 * time.Millisecond, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelay("relay"); err != nil {
		t.Fatal(err)
	}
	addClientHost(t, net, "c1", nil)
	if err := s.AddClient(1, "c1"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost("sub", nil); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("sub", "relay", netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRelayClient(2, "relay"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddClient(2, "sub"); err != nil {
		t.Fatal(err)
	}
	_ = s.Start()
	_ = r.Start()
	_ = net.SendFrame("sub", "relay", protocol.CopyFrame(clientPose(2, 1, 0, 3)))
	_ = sim.Run(time.Second)
	if _, ok := s.World().Get(2); !ok {
		t.Fatal("relay learner never authored")
	}

	b, err := s.ReleaseSession(2, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptSession(2, "c1", r, nil, b); err == nil {
		t.Fatal("adoption at an address the cloud already replicates to was accepted")
	}
	if c, ok := s.Runtime().Client(2); !ok || c.Addr != "relay" || c.Replicated {
		t.Fatalf("after the refusal the learner's record is %+v (ok=%v), want relay-routed via relay", c, ok)
	}
	sent := sim.Now()
	_ = net.SendFrame("sub", "relay", protocol.CopyFrame(clientPose(2, 2, sent, 4)))
	_ = sim.Run(sent + time.Second)
	if e, _ := s.World().Get(2); e.CapturedAt != sent {
		t.Fatalf("relay-routed pose captured at %v not authored after the refusal (entity at %v)", sent, e.CapturedAt)
	}
	if err := s.RemoveClient(2); err != nil {
		t.Fatalf("RemoveClient after the refusal: %v", err)
	}
	if _, ok := s.World().Get(2); ok {
		t.Error("entity still authored after RemoveClient")
	}
	if _, seated := s.seats.SeatOf(2); seated {
		t.Error("seat still held after RemoveClient")
	}
}

// TestReleaseSessionRefusesSameServer: a handoff whose two ends are one
// server is refused by both halves before any table changes, so the learner
// stays registered where it was.
func TestReleaseSessionRefusesSameServer(t *testing.T) {
	sim := vclock.New(10)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	addClientHost(t, net, "c1", nil)
	if err := s.AddClient(1, "c1"); err != nil {
		t.Fatal(err)
	}
	r, err := NewRelay(sim, net.Endpoint("relay"), RelayConfig{Upstream: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRelayClient(2, "relay"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddClient(2, "sub"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id     protocol.ParticipantID
		server *Relay
		rt     *node.Runtime
		addr   endpoint.Addr
	}{{1, nil, s.Runtime(), "c1"}, {2, r, r.rt, "sub"}} {
		if _, err := s.ReleaseSession(c.id, c.server, c.server); err == nil {
			t.Errorf("learner %d: ReleaseSession to the server it is on was accepted", c.id)
		}
		if err := s.AdoptSession(c.id, c.addr, c.server, c.server, core.PeerBaseline{}); err == nil {
			t.Errorf("learner %d: AdoptSession from the server it is on was accepted", c.id)
		}
		if got, ok := c.rt.Client(c.id); !ok || got.Addr != c.addr || !got.Replicated {
			t.Errorf("learner %d after the refusals: %+v (ok=%v), want served at %s", c.id, got, ok, c.addr)
		}
	}
	if c, ok := s.Runtime().Client(2); !ok || c.Addr != "relay" || c.Replicated {
		t.Errorf("the cloud's route for learner 2 is %+v (ok=%v), want relay-routed via relay", c, ok)
	}
}

// TestConnectEdgeRefusesReplicationPeer: an address already replicated to
// as a relay cannot also become an edge, and the refusal leaves no sync peer
// behind for it.
func TestConnectEdgeRefusesReplicationPeer(t *testing.T) {
	sim := vclock.New(7)
	s := newCloud(t, sim, netsim.New(sim), nil)
	if err := s.AddRelay("x"); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectEdge("x", 1); !errors.Is(err, ErrPeerExists) {
		t.Errorf("ConnectEdge over a relay: err = %v, want ErrPeerExists", err)
	}
	if s.Runtime().HasSyncPeer("x") {
		t.Error("refused ConnectEdge left a sync peer registered")
	}
}

func TestCloudEdgeFilterOnlySendsVRUsers(t *testing.T) {
	sim := vclock.New(7)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)

	// Fake edge: capture what the cloud sends it.
	var got []protocol.Message
	if err := net.AddHost("edge", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		if m, _, err := protocol.Decode(payload); err == nil {
			got = append(got, m)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("edge", "cloud", netsim.EdgeToCloud()); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectEdge("edge", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectEdge("edge", 1); !errors.Is(err, ErrPeerExists) {
		t.Errorf("dup edge err = %v", err)
	}

	// The edge replicates one of its own participants up to the cloud.
	edgeStore := core.NewStore()
	edgeStore.BeginTick()
	edgeStore.Upsert(protocol.EntityState{Participant: 50, Home: 1,
		Pose: protocol.QuantizePose(mathx.V3(1, 1, 1), mathx.QuatIdentity())})
	edgeSnap := &protocol.Snapshot{}
	edgeStore.SnapshotInto(nil, edgeSnap)
	snap, err := protocol.AppendEncode(nil, edgeSnap)
	if err != nil {
		t.Fatal(err)
	}
	_ = net.SendFrame("edge", "cloud", protocol.CopyFrame(snap))

	// And a VR client publishes directly.
	addClientHost(t, net, "c1", nil)
	if err := s.AddClient(7, "c1"); err != nil {
		t.Fatal(err)
	}
	_ = s.Start()
	_ = net.SendFrame("c1", "cloud", protocol.CopyFrame(clientPose(7, 1, 0, 0)))
	_ = sim.Run(2 * time.Second)

	// The cloud's replication to the edge must contain VR user 7 and never
	// echo back the edge's own participant 50.
	saw7, saw50 := false, false
	for _, m := range got {
		var ents []protocol.EntityState
		switch msg := m.(type) {
		case *protocol.Snapshot:
			ents = msg.Entities
		case *protocol.Delta:
			ents = msg.Changed
		}
		for _, e := range ents {
			if e.Participant == 7 {
				saw7 = true
			}
			if e.Participant == 50 {
				saw50 = true
			}
		}
	}
	if !saw7 {
		t.Error("VR user never replicated to the edge")
	}
	if saw50 {
		t.Error("cloud echoed the edge's own participant back (loop!)")
	}
}

// TestRemoveClientWhileFramesInFlight is the netsim half of the
// leave-while-frames-queued audit: a client leaves while the tick's cohort
// frames are still traversing a slow link toward it. The removal tears down
// the replication peer and detaches the endpoint; the in-flight frames must
// still be released by their delivery events, leaving the accounting
// balanced.
func TestRemoveClientWhileFramesInFlight(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim := vclock.New(9)
	net := netsim.New(sim)
	s := newCloud(t, sim, net, nil)
	// Slow, narrow link: frames queue and stay in flight across ticks.
	if err := net.AddHost("c1", nil); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("c1", "cloud", netsim.LinkConfig{
		Latency: 300 * time.Millisecond, Bandwidth: 1e6, QueueLimit: 64 << 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClient(7, "c1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	_ = net.SendFrame("c1", "cloud", protocol.CopyFrame(clientPose(7, 1, 0, 0.5)))
	// Run long enough for fan-out toward c1 to be in flight, then yank the
	// client mid-flight.
	if err := sim.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveClient(7); err != nil {
		t.Fatal(err)
	}
	if err := net.Endpoint("c1").Close(); err != nil {
		t.Fatal(err)
	}
	// Drain: in-flight deliveries fire against the detached endpoint and
	// release their frames without a handler.
	if err := sim.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if err := sim.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across mid-flight client removal", live-live0)
	}
	if s.ClientCount() != 0 {
		t.Fatalf("ClientCount = %d after removal", s.ClientCount())
	}
}

// TestSeatGridCappedAtIndexRange: a seat's index is a uint16, so a grid of
// more than 65,536 seats would number two seats alike (seat 65,536 of a
// 257 x 256 grid would get index 0). New refuses it and takes the largest
// grids that fit.
func TestSeatGridCappedAtIndexRange(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		ok         bool
	}{
		{256, 256, true},
		{1, 1 << 16, true},
		{257, 256, false},
		{256, 257, false},
		{1, 1<<16 + 1, false},
		{1 << 17, 1, false},
	} {
		sim := vclock.New(1)
		_, err := New(sim, netsim.New(sim).Endpoint("cloud"), Config{VRRows: tc.rows, VRCols: tc.cols})
		if (err == nil) != tc.ok {
			t.Errorf("New with a %d x %d grid: err = %v, want accepted %v", tc.rows, tc.cols, err, tc.ok)
		}
	}
}
