package transport_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
	"metaclass/internal/transport"
	"metaclass/internal/vclock"
)

// room is a cloud server served over TCP the way cmd/classroomd serves one
// (ListenAnonymous → cloud.New → OnPeerGone → Start → Serve), at 60 Hz.
type room struct {
	ep    *transport.Endpoint
	srv   *cloud.Server
	Close func() error

	// The serving goroutine samples the registry into st every tick, under
	// mu; Stats waits for a sample taken after it was called.
	mu     sync.Mutex
	cond   *sync.Cond
	st     stats
	gen    uint64
	closed bool
}

// stats is a point-in-time reading of the server's session counters.
type stats struct {
	Joined, Left, Poses, Spoofed, UnknownClient uint64
	Entities                                    int
}

func listenRoom() (*room, error) {
	const interval = time.Second / 60
	ep, err := transport.ListenAnonymous("classroomd", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sim := vclock.New(0)
	srv, err := cloud.New(sim, ep, cloud.Config{TickHz: 60, Interest: interest.NewPolicy()})
	if err == nil {
		ep.OnPeerGone(srv.EndSession)
		err = srv.Start()
	}
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	r := &room{ep: ep, srv: srv}
	r.cond = sync.NewCond(&r.mu)
	sim.Ticker(interval, r.sample)
	done, served := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(served)
		ep.Serve(sim, interval, done)
	}()
	r.Close = sync.OnceValue(func() error {
		close(done)
		<-served
		r.sample() // the final state, read after the last dispatch
		r.mu.Lock()
		r.closed = true
		r.cond.Broadcast()
		r.mu.Unlock()
		err := ep.Close()
		srv.Stop()
		return err
	})
	return r, nil
}

func startRoom(t *testing.T) *room {
	t.Helper()
	r, err := listenRoom()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func (r *room) Addr() string { return r.ep.TCPAddr() }

// sample runs on the serving goroutine (or after it has returned), the only
// one that may read the registry.
func (r *room) sample() {
	reg := r.srv.Metrics()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st = stats{
		Joined:        reg.Counter("sessions.joined").Value(),
		Left:          reg.Counter("sessions.left").Value(),
		Poses:         reg.Counter("client.poses").Value(),
		Spoofed:       reg.Counter("recv.spoofed").Value(),
		UnknownClient: reg.Counter("recv.unknown_client").Value(),
		Entities:      r.srv.World().Len(),
	}
	r.gen++
	r.cond.Broadcast()
}

// Stats returns a sample the serving goroutine took after the call began;
// once the room has closed, its final state.
func (r *room) Stats() stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	for want := r.gen + 1; r.gen < want && !r.closed; {
		r.cond.Wait()
	}
	return r.st
}

func hello(t *testing.T, addr string, id protocol.ParticipantID) *transport.Conn {
	t.Helper()
	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.SendMsg(c, &protocol.Hello{Participant: id, Role: protocol.RoleLearner, Name: "t"}); err != nil {
		t.Fatal(err)
	}
	msg, err := transport.RecvMsg(c)
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := msg.(*protocol.HelloAck)
	if !ok || ack.Participant != id {
		t.Fatalf("hello ack = %T %+v", msg, msg)
	}
	return c
}

func posePayload(id protocol.ParticipantID, seq uint32, x float64) *protocol.PoseUpdate {
	return &protocol.PoseUpdate{
		Participant: id, Seq: seq, CapturedAt: time.Duration(seq) * time.Millisecond,
		Pose: protocol.QuantizePose(mathx.V3(x, 1.2, 0), mathx.QuatIdentity()),
	}
}

// readUntil pumps messages until pred returns true or the deadline passes.
func readUntil(t *testing.T, c *transport.Conn, timeout time.Duration, pred func(protocol.Message) bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	result := make(chan bool, 1)
	go func() {
		for {
			msg, err := transport.RecvMsg(c)
			if err != nil {
				result <- false
				return
			}
			// Ack replication so deltas flow.
			switch m := msg.(type) {
			case *protocol.Snapshot:
				_ = transport.SendMsg(c, &protocol.Ack{Tick: m.Tick})
			case *protocol.Delta:
				_ = transport.SendMsg(c, &protocol.Ack{Tick: m.Tick})
			}
			if pred(msg) {
				result <- true
				return
			}
			if time.Now().After(deadline) {
				result <- false
				return
			}
		}
	}()
	select {
	case ok := <-result:
		return ok
	case <-time.After(timeout):
		return false
	}
}

func TestRoomHelloAndReplication(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	b := hello(t, r.Addr(), 2)
	defer b.Close()

	// Client 1 publishes; client 2 must see entity 1 in replication.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint32(0)
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				seq++
				if err := transport.SendMsg(a, posePayload(1, seq, float64(seq)*0.01)); err != nil {
					return
				}
			}
		}
	}()

	saw := readUntil(t, b, 5*time.Second, func(msg protocol.Message) bool {
		switch m := msg.(type) {
		case *protocol.Snapshot:
			for _, e := range m.Entities {
				if e.Participant == 1 {
					return true
				}
			}
		case *protocol.Delta:
			for _, e := range m.Changed {
				if e.Participant == 1 {
					return true
				}
			}
		}
		return false
	})
	close(stop)
	wg.Wait()
	if !saw {
		t.Fatal("client 2 never saw client 1's entity")
	}
	st := r.Stats()
	if st.Joined != 2 {
		t.Errorf("joined = %d", st.Joined)
	}
	if st.Poses == 0 {
		t.Error("no poses counted")
	}
}

func TestRoomExcludesSelf(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 7)
	defer a.Close()
	if err := transport.SendMsg(a, posePayload(7, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// For a short window, any replication must not contain entity 7.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		msg, err := transport.RecvMsg(a)
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *protocol.Snapshot:
			_ = transport.SendMsg(a, &protocol.Ack{Tick: m.Tick})
			for _, e := range m.Entities {
				if e.Participant == 7 {
					t.Fatal("room replicated the client to itself")
				}
			}
		case *protocol.Delta:
			_ = transport.SendMsg(a, &protocol.Ack{Tick: m.Tick})
			for _, e := range m.Changed {
				if e.Participant == 7 {
					t.Fatal("room replicated the client to itself")
				}
			}
		}
	}
}

func TestRoomRejectsSpoofedPoses(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	b := hello(t, r.Addr(), 2)
	defer b.Close()
	// Client 2 tries to move client 1.
	if err := transport.SendMsg(b, posePayload(1, 1, 99)); err != nil {
		t.Fatal(err)
	}
	// Client 1 publishes honestly.
	if err := transport.SendMsg(a, posePayload(1, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	// The cloud seats learners, so what client 2 sees of entity 1 is the
	// seat-corrected pose: it is checked against the server's own entity 1,
	// authored from the one pose the server accepted.
	var seen protocol.EntityState
	saw := readUntil(t, b, 3*time.Second, func(msg protocol.Message) bool {
		var ents []protocol.EntityState
		switch m := msg.(type) {
		case *protocol.Snapshot:
			ents = m.Entities
		case *protocol.Delta:
			ents = m.Changed
		}
		for _, e := range ents {
			if e.Participant == 1 {
				seen = e
				return true
			}
		}
		return false
	})
	if !saw {
		t.Fatal("honest pose never replicated")
	}
	st := waitStats(r, 3*time.Second, func(st stats) bool { return st.Spoofed == 1 })
	if st.Spoofed != 1 || st.Poses != 1 {
		t.Fatalf("spoofed = %d, accepted poses = %d; want 1 and 1 (the spoof dropped)", st.Spoofed, st.Poses)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if e, _ := r.srv.World().Get(1); e.Pose != seen.Pose {
		t.Fatalf("client 2 saw entity 1 at %+v, the world holds %+v", seen.Pose, e.Pose)
	}
}

func TestRoomClientDisconnectRemovesEntity(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	b := hello(t, r.Addr(), 2)
	_ = transport.SendMsg(a, posePayload(1, 1, 0))
	_ = transport.SendMsg(b, posePayload(2, 1, 1))

	// Wait until entity 2 is visible to client 1.
	if !readUntil(t, a, 3*time.Second, func(msg protocol.Message) bool {
		switch m := msg.(type) {
		case *protocol.Snapshot:
			for _, e := range m.Entities {
				if e.Participant == 2 {
					return true
				}
			}
		case *protocol.Delta:
			for _, e := range m.Changed {
				if e.Participant == 2 {
					return true
				}
			}
		}
		return false
	}) {
		t.Fatal("entity 2 never appeared")
	}
	if st := waitStats(r, 3*time.Second, func(st stats) bool { return st.Entities == 2 }); st.Entities != 2 {
		t.Fatalf("entities = %d before disconnect, want 2", st.Entities)
	}
	_ = b.Close()

	// Entity count must drop to 1.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().Entities == 1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("entities = %d after disconnect, want 1", r.Stats().Entities)
}

func TestRoomCloseUnblocksClients(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := transport.RecvMsg(a); err != nil {
				done <- err
				return
			}
		}
	}()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("read returned nil after close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("client read not unblocked by server close")
	}
}

func TestConnReadWriteRoundTrip(t *testing.T) {
	r := startRoom(t)
	c, err := transport.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A Leave before Hello simply closes the session server-side.
	if err := transport.SendMsg(c, &protocol.Leave{Participant: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.RecvMsg(c); err != io.EOF && err == nil {
		t.Error("expected EOF after Leave")
	}
}

// TestRoomLeaksNoFrames extends the protocol.FrameAccounting leak gate to
// the TCP write path: a room session with publishing clients — cohort frames
// queued on per-connection write batches and flushed with vectored writes,
// including connections that die mid-stream — must end with zero outstanding
// frames once the room has closed.
func TestRoomLeaksNoFrames(t *testing.T) {
	live0 := protocol.LiveFrames()
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	b := hello(t, r.Addr(), 2)
	for seq := uint32(1); seq <= 20; seq++ {
		if err := transport.SendMsg(a, posePayload(1, seq, float64(seq)*0.01)); err != nil {
			t.Fatal(err)
		}
		if err := transport.SendMsg(b, posePayload(2, seq, float64(seq)*0.02)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Drain some replication so acked deltas flow, then kill one client
	// abruptly (its queued frames must be released, not leaked).
	readUntil(t, a, time.Second, func(msg protocol.Message) bool {
		_, ok := msg.(*protocol.Delta)
		return ok
	})
	_ = b.Close()
	time.Sleep(50 * time.Millisecond)
	_ = a.Close()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by the TCP room write path", live-live0)
	}
}

// TestDialAnonymousJoinsRoom: an endpoint that dials a classroomd-style room
// without the name handshake joins as the learner its own Hello names. No
// handshake Hello reaches the room's admission, so nothing is refused (a
// named Dial's Hello would be, as participant 0).
func TestDialAnonymousJoinsRoom(t *testing.T) {
	r := startRoom(t)
	ep, err := transport.ListenEndpoint("vr-5", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.DialAnonymous("classroomd", r.Addr()); err != nil {
		t.Fatal(err)
	}
	f, err := protocol.EncodeFrame(&protocol.Hello{Participant: 5, Role: protocol.RoleLearner, Name: "vr-5"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.SendFrame("classroomd", f); err != nil {
		t.Fatal(err)
	}
	if st := waitStats(r, 5*time.Second, func(s stats) bool { return s.Joined == 1 }); st.Joined != 1 {
		t.Fatalf("joined = %d, want 1", st.Joined)
	}
	if err := r.Close(); err != nil { // the serving goroutine is done with the registry
		t.Fatal(err)
	}
	if n := r.srv.Metrics().Counter("sessions.refused").Value(); n != 0 {
		t.Errorf("sessions.refused = %d, want 0", n)
	}
}
