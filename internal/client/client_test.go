package client

import (
	"math"
	"testing"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// fakeServer captures client uplink and can push replication down.
type fakeServer struct {
	sim   *vclock.Sim
	net   *netsim.Network
	poses []*protocol.PoseUpdate
	acks  []*protocol.Ack
}

func newFakeServer(t *testing.T, sim *vclock.Sim, net *netsim.Network) *fakeServer {
	t.Helper()
	fs := &fakeServer{sim: sim, net: net}
	if err := net.AddHost("srv", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		msg, _, err := protocol.Decode(payload)
		if err != nil {
			t.Fatalf("server decode: %v", err)
		}
		switch m := msg.(type) {
		case *protocol.PoseUpdate:
			fs.poses = append(fs.poses, m)
		case *protocol.Ack:
			fs.acks = append(fs.acks, m)
		}
	})); err != nil {
		t.Fatal(err)
	}
	return fs
}

func (fs *fakeServer) push(t *testing.T, msg protocol.Message) {
	t.Helper()
	frame, err := protocol.AppendEncode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.net.SendFrame("srv", "vr", protocol.CopyFrame(frame)); err != nil {
		t.Fatal(err)
	}
}

func newVRUnderTest(t *testing.T, sim *vclock.Sim, net *netsim.Network, cfg VRConfig) *VR {
	t.Helper()
	cfg.Participant = 7
	cfg.Server = "srv"
	v, err := NewVR(sim, net.Endpoint("vr"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("vr", "srv", netsim.LinkConfig{Latency: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVRPublishesPoses(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	fs := newFakeServer(t, sim, net)
	v := newVRUnderTest(t, sim, net, VRConfig{
		PublishHz: 20,
		Script:    trace.Seated{Anchor: mathx.V3(1, 0, 1)},
	})
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	if err := v.Start(); err == nil {
		t.Error("double start accepted")
	}
	// Publishes fire at 50..1000 ms; allow the 10 ms link to deliver the last.
	_ = sim.Run(time.Second + 20*time.Millisecond)
	v.Stop()
	if got := len(fs.poses); got != 20 {
		t.Errorf("poses = %d, want 20", got)
	}
	// Sequence numbers increase; capture stamps are sane.
	for i := 1; i < len(fs.poses); i++ {
		if fs.poses[i].Seq != fs.poses[i-1].Seq+1 {
			t.Fatal("pose sequence gap")
		}
		if fs.poses[i].CapturedAt <= fs.poses[i-1].CapturedAt {
			t.Fatal("capture stamps not increasing")
		}
	}
	if fs.poses[0].Participant != 7 {
		t.Error("wrong participant id")
	}
}

func TestVRAppliesReplicationAndAcks(t *testing.T) {
	sim := vclock.New(2)
	net := netsim.New(sim)
	fs := newFakeServer(t, sim, net)
	v := newVRUnderTest(t, sim, net, VRConfig{})

	// Push a snapshot with two entities.
	snapStore := core.NewStore()
	snapStore.BeginTick()
	for _, id := range []protocol.ParticipantID{1, 2} {
		snapStore.Upsert(protocol.EntityState{
			Participant: id, CapturedAt: 0,
			Pose: protocol.QuantizePose(mathx.V3(float64(id), 1, 0), mathx.QuatIdentity()),
		})
	}
	snap := &protocol.Snapshot{}
	snapStore.SnapshotInto(nil, snap)
	fs.push(t, snap)
	_ = sim.RunAll()

	if len(fs.acks) != 1 || fs.acks[0].Tick != 1 {
		t.Fatalf("acks = %+v", fs.acks)
	}
	vis := v.VisibleParticipants()
	if len(vis) != 2 {
		t.Fatalf("visible = %v", vis)
	}
	p, ok := v.DisplayedPose(1, sim.Now())
	if !ok || !p.IsFinite() {
		t.Fatal("entity 1 not displayable")
	}

	// A delta with a gap (base beyond applied tick) must not be acked.
	gap := &protocol.Delta{BaseTick: 99, Tick: 100}
	fs.push(t, gap)
	_ = sim.RunAll()
	if len(fs.acks) != 1 {
		t.Errorf("gap delta was acked: %+v", fs.acks)
	}
	if v.Metrics().Counter("recv.gaps").Value() != 1 {
		t.Error("gap not counted")
	}
}

func TestVRPoseAgeMeasured(t *testing.T) {
	sim := vclock.New(3)
	net := netsim.New(sim)
	fs := newFakeServer(t, sim, net)
	v := newVRUnderTest(t, sim, net, VRConfig{})
	// Entity captured at t=0, pushed at t=50ms, link 10ms: age 60ms.
	sim.After(50*time.Millisecond, func() {
		st := core.NewStore()
		st.BeginTick()
		st.Upsert(protocol.EntityState{Participant: 1, CapturedAt: 0,
			Pose: protocol.QuantizePose(mathx.V3(0, 1, 0), mathx.QuatIdentity())})
		snap := &protocol.Snapshot{}
		st.SnapshotInto(nil, snap)
		fs.push(t, snap)
	})
	_ = sim.RunAll()
	h := v.Metrics().Histogram("pose.age")
	if h.Count() != 1 {
		t.Fatalf("age samples = %d", h.Count())
	}
	if h.Max() < 55*time.Millisecond || h.Max() > 70*time.Millisecond {
		t.Errorf("age = %v, want ~60ms", h.Max())
	}
}

func TestVROwnPoseIsLive(t *testing.T) {
	sim := vclock.New(4)
	net := netsim.New(sim)
	newFakeServer(t, sim, net)
	script := trace.Seated{Anchor: mathx.V3(2, 0, 3), Phase: 1}
	v := newVRUnderTest(t, sim, net, VRConfig{Script: script})
	_ = sim.Run(time.Second)
	own := v.OwnPose(sim.Now())
	truth := script.PoseAt(sim.Now())
	if own.PositionError(truth) != 0 {
		t.Error("own pose not rendered live (zero latency)")
	}
}

// TestNewVRRefusesUnrunnablePublishRate: a rate with no positive publish
// period is refused by NewVR, not left to panic in Start; zero and negative
// rates still take the default.
func TestNewVRRefusesUnrunnablePublishRate(t *testing.T) {
	sim := vclock.New(5)
	net := netsim.New(sim)
	for _, hz := range []float64{math.NaN(), math.Inf(1), 2e9, 1e-300} {
		if _, err := NewVR(sim, net.Endpoint("x"), VRConfig{Participant: 7, Server: "y", PublishHz: hz}); err == nil {
			t.Errorf("PublishHz %v accepted", hz)
		}
	}
	for _, hz := range []float64{0, -5} {
		sim := vclock.New(5)
		net := netsim.New(sim)
		newFakeServer(t, sim, net)
		v := newVRUnderTest(t, sim, net, VRConfig{PublishHz: hz})
		if err := v.Start(); err != nil {
			t.Fatal(err)
		}
		_ = sim.Run(time.Second) // publishes fire at 50..1000 ms
		v.Stop()
		if got := v.Metrics().Counter("publish.poses").Value(); got != 20 {
			t.Errorf("PublishHz %v published %d poses in a second, want the default 20", hz, got)
		}
	}
}

func TestVRRejectsZeroParticipant(t *testing.T) {
	sim := vclock.New(5)
	net := netsim.New(sim)
	if _, err := NewVR(sim, net.Endpoint("x"), VRConfig{Server: "y"}); err == nil {
		t.Error("zero participant accepted")
	}
}

func TestVRIgnoresGarbage(t *testing.T) {
	sim := vclock.New(6)
	net := netsim.New(sim)
	fs := newFakeServer(t, sim, net)
	v := newVRUnderTest(t, sim, net, VRConfig{})
	_ = fs
	if err := net.SendFrame("srv", "vr", protocol.CopyFrame([]byte{0xde, 0xad})); err != nil {
		t.Fatal(err)
	}
	_ = sim.RunAll()
	if v.Metrics().Counter("recv.decode_errors").Value() != 1 {
		t.Error("garbage not counted")
	}
}

// TestVRConsumesServerHelloAck: the server's HelloAck answers the client's
// join and is not an unhandled message, while a Hello from the same server
// still is.
func TestVRConsumesServerHelloAck(t *testing.T) {
	sim := vclock.New(6)
	net := netsim.New(sim)
	fs := newFakeServer(t, sim, net)
	v := newVRUnderTest(t, sim, net, VRConfig{})
	unhandled := v.Metrics().Counter("recv.unhandled")
	fs.push(t, &protocol.HelloAck{Participant: 7})
	_ = sim.RunAll()
	if got := unhandled.Value(); got != 0 {
		t.Fatalf("recv.unhandled = %d after the server's HelloAck, want 0", got)
	}
	fs.push(t, &protocol.Hello{Participant: 7})
	_ = sim.RunAll()
	if got := unhandled.Value(); got != 1 {
		t.Fatalf("recv.unhandled = %d after a Hello from the server, want 1", got)
	}
}

func TestVRPingMeasuresRTT(t *testing.T) {
	sim := vclock.New(7)
	net := netsim.New(sim)
	// Server that answers pings.
	if err := net.AddHost("srv", netsim.HandlerFunc(func(from netsim.Addr, payload []byte) {
		msg, _, err := protocol.Decode(payload)
		if err != nil {
			return
		}
		if ping, ok := msg.(*protocol.Ping); ok {
			if frame, err := protocol.AppendEncode(nil, &protocol.Pong{Nonce: ping.Nonce, SentAt: ping.SentAt}); err == nil {
				_ = net.SendFrame("srv", from, protocol.CopyFrame(frame))
			}
		}
	})); err != nil {
		t.Fatal(err)
	}
	v := newVRUnderTest(t, sim, net, VRConfig{})
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	_ = sim.Run(4*pingEvery + pingEvery/2)
	h := v.Metrics().Histogram("rtt")
	if h.Count() < 4 {
		t.Fatalf("rtt samples = %d, want >= 4", h.Count())
	}
	// 10 ms each way: RTT ~20 ms.
	if h.P50() < 18*time.Millisecond || h.P50() > 25*time.Millisecond {
		t.Errorf("rtt p50 = %v, want ~20ms", h.P50())
	}
}

func TestVRPingDisabled(t *testing.T) {
	sim := vclock.New(8)
	net := netsim.New(sim)
	newFakeServer(t, sim, net)
	v := newVRUnderTest(t, sim, net, VRConfig{})
	v.pingGap = 0
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	_ = sim.Run(3 * pingEvery)
	if v.Metrics().Histogram("rtt").Count() != 0 {
		t.Error("pings sent despite a zero ping interval")
	}
}

// entity builds a minimal EntityState for receive-path tests.
func entity(id protocol.ParticipantID, at time.Duration) protocol.EntityState {
	return protocol.EntityState{
		Participant: id,
		CapturedAt:  at,
		Pose:        protocol.QuantizePose(mathx.V3(float64(id), 0, 0), mathx.QuatIdentity()),
		VelMMS:      [3]int64{1000, 0, 0},
	}
}

// TestVRRetainsOmittedEntitiesAcrossFilteredSnapshots locks in the pooled
// receive path's interest behavior: when the server's interest-filtered
// snapshot omits a far-tier entity, the client must keep extrapolating it
// from its retained playout buffer instead of dropping and re-creating the
// buffer when the entity flickers back into tier (no InterpBuffer churn).
func TestVRRetainsOmittedEntitiesAcrossFilteredSnapshots(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	fs := newFakeServer(t, sim, net)
	v := newVRUnderTest(t, sim, net, VRConfig{})
	// Every display read runs one playout delay past the original timeline,
	// so display time runs ahead of the omitted entity's last sample and dead
	// reckoning visibly engages.
	const lag = core.PlayoutDelay

	// Tick 1: both the near entity 1 and the far entity 2 are in tier.
	fs.push(t, &protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{
		entity(1, 0), entity(2, 0),
	}})
	_ = sim.Run(lag + 20*time.Millisecond)
	if st := v.ReplicaStats(); st.BufferCreates != 2 || st.BufferDrops != 0 {
		t.Fatalf("after first snapshot: creates=%d drops=%d, want 2/0",
			st.BufferCreates, st.BufferDrops)
	}

	// Tick 2: entity 2 drifted into the far tier — the filtered snapshot
	// omits it. The buffer must survive and keep answering pose queries.
	fs.push(t, &protocol.Snapshot{Tick: 2, Entities: []protocol.EntityState{
		entity(1, 30*time.Millisecond),
	}})
	_ = sim.Run(lag + 40*time.Millisecond)
	st := v.ReplicaStats()
	if st.BufferDrops != 0 {
		t.Fatalf("omitted far-tier entity dropped its buffer (drops=%d)", st.BufferDrops)
	}
	if st.Retained == 0 {
		t.Fatal("snapshot omission was not accounted as retained")
	}
	// The retained entity stays enumerable: renderers walking the visible
	// set must not lose it while it is out of tier.
	if got := v.VisibleParticipants(); len(got) != 2 {
		t.Fatalf("VisibleParticipants = %v, want retained entity 2 included", got)
	}
	p, ok := v.DisplayedPose(2, sim.Now())
	if !ok {
		t.Fatal("client stopped extrapolating the omitted entity")
	}
	if p.Position.X <= 2 {
		t.Errorf("extrapolation stalled: X = %v, want > 2 (1 m/s dead reckoning)", p.Position.X)
	}

	// Tick 3: entity 2 returns to tier. Its buffer must be the same one —
	// no create churn, and the old motion history still seeds interpolation.
	fs.push(t, &protocol.Snapshot{Tick: 3, Entities: []protocol.EntityState{
		entity(1, 60*time.Millisecond), entity(2, 60*time.Millisecond),
	}})
	_ = sim.Run(lag + 60*time.Millisecond)
	if st := v.ReplicaStats(); st.BufferCreates != 2 || st.BufferDrops != 0 {
		t.Fatalf("re-entry churned buffers: creates=%d drops=%d, want 2/0",
			st.BufferCreates, st.BufferDrops)
	}

	// A true departure still drops: deltas carry explicit removals.
	fs.push(t, &protocol.Delta{BaseTick: 3, Tick: 4, Removed: []protocol.ParticipantID{2}})
	_ = sim.Run(lag + 80*time.Millisecond)
	if st := v.ReplicaStats(); st.BufferDrops != 1 {
		t.Fatalf("explicit removal did not drop the buffer (drops=%d)", st.BufferDrops)
	}
	if _, ok := v.DisplayedPose(2, sim.Now()); ok {
		t.Error("departed entity still renders")
	}

	// A departure conveyed only by snapshot omission (the sender pruned the
	// removal from its delta log) must not ghost forever: once the retained
	// entity stays capture-silent past the retention TTL, a later apply
	// expires it.
	fs.push(t, &protocol.Snapshot{Tick: 5, Entities: []protocol.EntityState{
		entity(1, 100*time.Millisecond), entity(3, 100*time.Millisecond),
	}})
	fs.push(t, &protocol.Snapshot{Tick: 6, Entities: []protocol.EntityState{
		entity(1, 120*time.Millisecond),
	}})
	_ = sim.Run(lag + 150*time.Millisecond)
	if _, ok := v.DisplayedPose(3, sim.Now()); !ok {
		t.Fatal("freshly-omitted entity 3 should still extrapolate")
	}
	_ = sim.Run(lag + 3*time.Second) // entity 3 stays silent well past the 2s TTL
	fs.push(t, &protocol.Delta{BaseTick: 6, Tick: 7, Changed: []protocol.EntityState{
		entity(1, 3*time.Second),
	}})
	_ = sim.Run(lag + 3100*time.Millisecond)
	if _, ok := v.DisplayedPose(3, sim.Now()); ok {
		t.Error("silent retained entity was never expired (ghost avatar)")
	}
	if got := v.VisibleParticipants(); len(got) != 1 || got[0] != 1 {
		t.Errorf("VisibleParticipants = %v, want only the live entity 1", got)
	}
}
