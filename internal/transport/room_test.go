package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

func startRoom(t *testing.T) *Room {
	t.Helper()
	r, err := ListenRoom(RoomConfig{Addr: "127.0.0.1:0", TickHz: 60})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func hello(t *testing.T, addr string, id protocol.ParticipantID) *Conn {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(&protocol.Hello{Participant: id, Role: protocol.RoleLearner, Name: "t"}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.ReadMessage()
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
func readUntil(t *testing.T, c *Conn, timeout time.Duration, pred func(protocol.Message) bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	result := make(chan bool, 1)
	go func() {
		for {
			msg, err := c.ReadMessage()
			if err != nil {
				result <- false
				return
			}
			// Ack replication so deltas flow.
			switch m := msg.(type) {
			case *protocol.Snapshot:
				_ = c.WriteMessage(&protocol.Ack{Tick: m.Tick})
			case *protocol.Delta:
				_ = c.WriteMessage(&protocol.Ack{Tick: m.Tick})
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
				if err := a.WriteMessage(posePayload(1, seq, float64(seq)*0.01)); err != nil {
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
	if err := a.WriteMessage(posePayload(7, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// For a short window, any replication must not contain entity 7.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		msg, err := a.ReadMessage()
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *protocol.Snapshot:
			_ = a.WriteMessage(&protocol.Ack{Tick: m.Tick})
			for _, e := range m.Entities {
				if e.Participant == 7 {
					t.Fatal("room replicated the client to itself")
				}
			}
		case *protocol.Delta:
			_ = a.WriteMessage(&protocol.Ack{Tick: m.Tick})
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
	if err := b.WriteMessage(posePayload(1, 1, 99)); err != nil {
		t.Fatal(err)
	}
	// Client 1 publishes honestly.
	if err := a.WriteMessage(posePayload(1, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	saw := readUntil(t, b, 3*time.Second, func(msg protocol.Message) bool {
		check := func(e protocol.EntityState) bool {
			if e.Participant != 1 {
				return false
			}
			pos, _ := e.Pose.Dequantize()
			if pos.X > 50 {
				t.Fatal("spoofed pose accepted")
			}
			return pos.X > 0.4 && pos.X < 0.6
		}
		switch m := msg.(type) {
		case *protocol.Snapshot:
			for _, e := range m.Entities {
				if check(e) {
					return true
				}
			}
		case *protocol.Delta:
			for _, e := range m.Changed {
				if check(e) {
					return true
				}
			}
		}
		return false
	})
	if !saw {
		t.Fatal("honest pose never replicated")
	}
}

func TestRoomClientDisconnectRemovesEntity(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	b := hello(t, r.Addr(), 2)
	_ = b.WriteMessage(posePayload(2, 1, 1))

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
			if _, err := a.ReadMessage(); err != nil {
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
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A Leave before Hello simply closes the session server-side.
	if err := c.WriteMessage(&protocol.Leave{Participant: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadMessage(); err != io.EOF && err == nil {
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
		if err := a.WriteMessage(posePayload(1, seq, float64(seq)*0.01)); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteMessage(posePayload(2, seq, float64(seq)*0.02)); err != nil {
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

// connPair returns the two ends of a loopback TCP connection, closed when
// the test ends.
func connPair(t *testing.T) (c, peer *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			accepted <- nc
		}
	}()
	c, err = Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer = NewConn(<-accepted)
	t.Cleanup(func() {
		_ = c.Close()
		_ = peer.Close()
	})
	return c, peer
}

// TestConnQueueFlushSharesFrameBytes checks the vectored write batch: queued
// cohort frames reach the peer intact and every reference is consumed, on
// the success path and when flushing into a closed socket.
func TestConnQueueFlushSharesFrameBytes(t *testing.T) {
	live0 := protocol.LiveFrames()
	c, peer := connPair(t)

	// One shared cohort frame queued twice (two recipients in real use) plus
	// a second distinct frame: one flush, one writev, three messages.
	shared, err := protocol.EncodeFrame(&protocol.Ack{Participant: 5, Tick: 77})
	if err != nil {
		t.Fatal(err)
	}
	shared.Retain()
	other, err := protocol.EncodeFrame(&protocol.Ping{Nonce: 9, SentAt: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.QueueFrame(shared)
	c.QueueFrame(shared)
	c.QueueFrame(other)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []protocol.MsgType{protocol.TypeAck, protocol.TypeAck, protocol.TypePing} {
		msg, err := peer.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if msg.Type() != want {
			t.Fatalf("message %d = %v, want %v", i, msg.Type(), want)
		}
	}

	// Flushing into a closed socket must fail but still release the batch.
	late, err := protocol.EncodeFrame(&protocol.Ack{Tick: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	c.QueueFrame(late)
	if err := c.Flush(); err == nil {
		t.Fatal("flush into closed conn succeeded")
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by queue/flush", live-live0)
	}
}

// TestConnMessagePathsLeakNoFrames covers WriteMessage/ReadMessage, which
// ride the pooled frame path: a round trip, an unencodable message, an
// oversize length prefix, and a closed connection must each report the right
// error and leave the frame accounting at its baseline.
func TestConnMessagePathsLeakNoFrames(t *testing.T) {
	live0 := protocol.LiveFrames()
	c, peer := connPair(t)

	want := &protocol.AudioFrame{Participant: 3, Seq: 8, Data: []byte("voice")}
	if err := c.WriteMessage(want); err != nil {
		t.Fatal(err)
	}
	msg, err := peer.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := msg.(*protocol.AudioFrame); !ok || got.Seq != want.Seq || string(got.Data) != "voice" {
		t.Fatalf("round trip returned %#v", msg)
	}

	// An unencodable message fails before anything is queued or written.
	huge := &protocol.AudioFrame{Data: make([]byte, protocol.MaxPayload+1)}
	if err := c.WriteMessage(huge); !errors.Is(err, protocol.ErrTooLarge) {
		t.Fatalf("oversize message: err = %v, want protocol.ErrTooLarge", err)
	}

	// An oversize length prefix is refused before any frame is acquired.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := c.c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.ReadMessage(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize prefix: err = %v, want ErrFrameTooLarge", err)
	}

	_ = c.Close()
	if err := c.WriteMessage(want); err == nil {
		t.Fatal("write on a closed conn succeeded")
	}
	if _, err := c.ReadMessage(); err == nil {
		t.Fatal("read on a closed conn succeeded")
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by the message paths", live-live0)
	}
}

func TestRoomRelaysAudio(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	b := hello(t, r.Addr(), 2)
	defer b.Close()

	// Client 1 speaks; client 2 must receive the audio frame verbatim.
	send := &protocol.AudioFrame{Participant: 1, Seq: 9,
		CapturedAt: 123 * time.Millisecond, Data: []byte("opus-frame")}
	if err := a.WriteMessage(send); err != nil {
		t.Fatal(err)
	}
	// Spoofed audio from client 2 pretending to be 1 must be dropped.
	if err := b.WriteMessage(&protocol.AudioFrame{Participant: 1, Seq: 10, Data: []byte("fake")}); err != nil {
		t.Fatal(err)
	}

	got := readUntil(t, b, 3*time.Second, func(msg protocol.Message) bool {
		af, ok := msg.(*protocol.AudioFrame)
		if !ok {
			return false
		}
		if string(af.Data) == "fake" {
			t.Fatal("spoofed audio relayed")
		}
		return af.Participant == 1 && af.Seq == 9 &&
			af.CapturedAt == 123*time.Millisecond && string(af.Data) == "opus-frame"
	})
	if !got {
		t.Fatal("audio frame never relayed to the other participant")
	}
}

func TestRoomAudioNotEchoedToSpeaker(t *testing.T) {
	r := startRoom(t)
	a := hello(t, r.Addr(), 1)
	defer a.Close()
	if err := a.WriteMessage(&protocol.AudioFrame{Participant: 1, Seq: 1, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		msg, err := a.ReadMessage()
		if err != nil {
			break
		}
		if _, ok := msg.(*protocol.AudioFrame); ok {
			t.Fatal("speaker heard their own audio echoed")
		}
		switch m := msg.(type) {
		case *protocol.Snapshot:
			_ = a.WriteMessage(&protocol.Ack{Tick: m.Tick})
		case *protocol.Delta:
			_ = a.WriteMessage(&protocol.Ack{Tick: m.Tick})
		}
	}
}
