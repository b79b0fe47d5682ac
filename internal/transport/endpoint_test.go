package transport

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/protocol"
)

// TestEndpointCloseUnblocksPendingHandshake guards the shutdown path: an
// accepted connection that never sends its Hello (slow or hostile peer) must
// not wedge Close — the tracked-conn set closes it and the handshake
// goroutine exits.
func TestEndpointCloseUnblocksPendingHandshake(t *testing.T) {
	e, err := ListenEndpoint("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A raw TCP dial that goes silent: the server side sits in its
	// handshake read.
	nc, err := net.Dial("tcp", e.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	time.Sleep(50 * time.Millisecond) // let the accept + handshake start

	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close deadlocked on a pending handshake connection")
	}
}

// TestHandshakeDeadlineDropsStalledPeers is the first of the hostile-peer
// cases: a connection that opens and never completes the name handshake is
// closed by the endpoint once hsWait passes — untracked, its goroutine gone —
// on the accepting side (a peer that sends nothing; a peer that sends a valid
// length prefix and stalls inside the frame) and on the dialing side (a
// listener that takes the Hello and never acks). Healthy peers dialled before
// and after the stalled ones handshake and exchange a frame as usual.
func TestHandshakeDeadlineDropsStalledPeers(t *testing.T) {
	live0 := protocol.LiveFrames()
	const wait = 500 * time.Millisecond
	listenShort := func(name endpoint.Addr) *Endpoint {
		t.Helper()
		e, err := ListenEndpoint(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		e.hsWait = wait
		e.mu.Unlock()
		return e
	}
	tracked := func(e *Endpoint) int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.all)
	}
	srv, before, after := listenShort("srv"), listenShort("before"), listenShort("after")
	got := make(chan endpoint.Addr, 2) // one ping from each healthy peer
	if err := srv.Bind(recvFunc(func(from endpoint.Addr, _ []byte) { got <- from })); err != nil {
		t.Fatal(err)
	}
	if err := before.Dial("srv", srv.TCPAddr()); err != nil {
		t.Fatal(err)
	}

	for _, stall := range []struct {
		name string
		sent []byte
	}{
		{"sends nothing", nil},
		{"stalls after a length prefix", []byte{0, 0, 0, 16}},
	} {
		nc, err := net.Dial("tcp", srv.TCPAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(stall.sent); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_ = nc.SetReadDeadline(start.Add(10 * wait)) // the test's own bound, not the endpoint's
		if n, err := nc.Read(make([]byte, 1)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("peer that %s: read %d bytes, err %v; want the endpoint to close the conn", stall.name, n, err)
		}
		if held := time.Since(start); held < wait/2 {
			t.Fatalf("peer that %s was dropped after %v, before the %v wait", stall.name, held, wait)
		}
	}

	// The dialing side: the listener accepts and never answers the Hello.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	if err := after.Dial("mute", mute.Addr().String()); err == nil {
		t.Fatal("Dial returned routable with no HelloAck")
	}
	if n := tracked(after); n != 0 {
		t.Fatalf("dialer tracks %d conns after a failed handshake", n)
	}

	if err := after.Dial("srv", srv.TCPAddr()); err != nil {
		t.Fatalf("healthy dial after the stalled peers: %v", err)
	}
	for _, cli := range []*Endpoint{before, after} {
		ping, err := protocol.EncodeFrame(&protocol.Ping{Nonce: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.SendFrame("srv", ping); err != nil {
			t.Fatal(err)
		}
	}
	for len(got) < 2 {
		if srv.PumpWait(10*wait) == 0 {
			t.Fatalf("server heard %d of 2 healthy peers", len(got))
		}
	}
	if a, b := <-got, <-got; a == b {
		t.Fatalf("both pings came from %q", a)
	}
	// A dropped conn leaves the tracked set just after its socket closes, which
	// is what the stalled peers above waited for: give the delete its moment.
	for deadline := time.Now().Add(10 * wait); tracked(srv) != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server tracks %d conns, want the 2 healthy ones", tracked(srv))
		}
	}

	// Close waits for every accept, handshake and read goroutine: returning is
	// the proof none was left behind.
	closed := make(chan error, 3)
	for _, e := range []*Endpoint{before, after, srv} {
		go func() { closed <- e.Close() }()
	}
	for range 3 {
		select {
		case err := <-closed:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * wait):
			t.Fatal("Close did not return: a handshake goroutine outlived its conn")
		}
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}

// TestHandshakeRefusesUnusableFirstFrames covers the handshake's refusals.
// On the accepting side a first frame that is not a usable Hello (a Ping, a
// Hello with no Name, a corrupt frame) closes the conn and registers
// nothing, and a healthy Dial still succeeds after them. On the dialing side
// a reply that is not a HelloAck fails Dial, which tracks no conn. No frame
// leaks, and each tracked set returns to its size before the refusal.
func TestHandshakeRefusesUnusableFirstFrames(t *testing.T) {
	live0 := protocol.LiveFrames()
	count := func(e *Endpoint) (tracked, registered int) {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.all), len(e.conns)
	}
	frame := func(msg protocol.Message) *protocol.Frame {
		t.Helper()
		f, err := protocol.EncodeFrame(msg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	srv, err := ListenEndpoint("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenEndpoint("cli", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	good := frame(&protocol.Hello{Name: "bad"})
	corrupt := append([]byte(nil), good.Bytes()...)
	good.Release()
	corrupt[len(corrupt)-1] ^= 0xff
	for _, tc := range []struct {
		name  string
		first *protocol.Frame
	}{
		{"a Ping", frame(&protocol.Ping{Nonce: 3})},
		{"a Hello with no Name", frame(&protocol.Hello{})},
		{"a corrupt Hello", protocol.CopyFrame(corrupt)},
	} {
		c, err := Dial(srv.TCPAddr())
		if err != nil {
			tc.first.Release()
			t.Fatal(err)
		}
		c.QueueFrame(tc.first)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		_ = c.c.SetReadDeadline(time.Now().Add(5 * time.Second)) // the test's own bound
		f, err := c.ReadFrame()
		if err == nil {
			f.Release()
		}
		_ = c.Close()
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("first frame %s: read err %v, want the endpoint to close the conn", tc.name, err)
		}
		// untrack closes the socket before it forgets the conn.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if tracked, registered := count(srv); tracked == 0 && registered == 0 {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("first frame %s: server tracks %d conns and registers %d, want 0 and 0", tc.name, tracked, registered)
			}
		}
	}
	if err := cli.Dial("srv", srv.TCPAddr()); err != nil {
		t.Fatalf("healthy dial after the refused peers: %v", err)
	}
	if _, registered := count(srv); registered != 1 {
		t.Fatalf("server registers %d peers after a healthy dial, want 1", registered)
	}

	// The dialing side: the listener answers the Hello with a Ping.
	wrong, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		nc, err := wrong.Accept()
		if err != nil {
			return
		}
		c := NewConn(nc)
		defer c.Close()
		f, err := c.ReadFrame()
		if err != nil {
			return
		}
		f.Release()
		if f, err = protocol.EncodeFrame(&protocol.Ping{Nonce: 4}); err == nil {
			c.QueueFrame(f)
			_ = c.Flush()
		}
		_, _ = c.ReadFrame() // hold the conn until the dialer drops it
	}()
	tracked0, _ := count(cli)
	if err := cli.Dial("wrong", wrong.Addr().String()); err == nil {
		t.Fatal("Dial returned routable after a Ping reply")
	}
	if tracked, registered := count(cli); tracked != tracked0 || registered != 1 {
		t.Fatalf("dialer tracks %d conns and registers %d after a refused reply, want %d and 1", tracked, registered, tracked0)
	}
	<-answered // its Ping is released once the dialer has closed the conn

	for _, e := range []*Endpoint{cli, srv} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}

// TestEndpointSendToUnknownPeerReleasesFrame pins the SendFrame ownership
// contract on the refusal path.
func TestEndpointSendToUnknownPeerReleasesFrame(t *testing.T) {
	live0 := protocol.LiveFrames()
	e, err := ListenEndpoint("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f, err := protocol.EncodeFrame(&protocol.Ping{Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SendFrame("nobody", f); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked on refused send", live-live0)
	}
}

// TestEndpointRoundTrip exercises the TCP mesh end to end without nodes:
// dial with a named handshake, send a pooled frame each way, pump it into a
// receiver, and close with balanced frame accounting.
func TestEndpointRoundTrip(t *testing.T) {
	live0 := protocol.LiveFrames()
	srv, err := ListenEndpoint("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := ListenEndpoint("cli", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Dial("srv", srv.TCPAddr()); err != nil {
		t.Fatal(err)
	}

	type rx struct {
		from endpoint.Addr
		typ  protocol.MsgType
	}
	var srvGot, cliGot []rx
	sink := func(out *[]rx) endpoint.Receiver {
		return recvFunc(func(from endpoint.Addr, payload []byte) {
			if m, _, err := protocol.Decode(payload); err == nil {
				*out = append(*out, rx{from, m.Type()})
			}
		})
	}
	if err := srv.Bind(sink(&srvGot)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Bind(sink(&cliGot)); err != nil {
		t.Fatal(err)
	}

	ping, err := protocol.EncodeFrame(&protocol.Ping{Nonce: 5, SentAt: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.SendFrame("srv", ping); err != nil {
		t.Fatal(err)
	}
	if srv.PumpWait(3*time.Second) == 0 {
		t.Fatal("server never received the ping")
	}
	pong, err := protocol.EncodeFrame(&protocol.Pong{Nonce: 5, SentAt: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SendFrame("cli", pong); err != nil {
		t.Fatal(err)
	}
	if cli.PumpWait(3*time.Second) == 0 {
		t.Fatal("client never received the pong")
	}
	if len(srvGot) != 1 || srvGot[0] != (rx{"cli", protocol.TypePing}) {
		t.Fatalf("server got %v", srvGot)
	}
	if len(cliGot) != 1 || cliGot[0] != (rx{"srv", protocol.TypePong}) {
		t.Fatalf("client got %v", cliGot)
	}

	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across the round trip", live-live0)
	}
}

// recvFunc adapts a function to endpoint.Receiver.
type recvFunc func(from endpoint.Addr, payload []byte)

func (f recvFunc) Receive(from endpoint.Addr, payload []byte) { f(from, payload) }

// TestLeaveWhileFramesQueuedReleasesFrames is the FrameAccounting regression
// gate for the leave-while-frames-queued race: a peer departs while a write
// batch is still queued on its connection. Whether the batch is flushed into
// a dead socket, dropped by closing the connection, or stranded by closing
// the whole endpoint mid-batch, every queued reference must be released
// exactly once.
func TestLeaveWhileFramesQueuedReleasesFrames(t *testing.T) {
	queueTwo := func(t *testing.T, srv *Endpoint) {
		t.Helper()
		srv.BeginBatch()
		for n := uint64(1); n <= 2; n++ {
			f, err := protocol.EncodeFrame(&protocol.Ping{Nonce: n})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.SendFrame("cli", f); err != nil {
				t.Fatal(err)
			}
		}
	}
	dialPair := func(t *testing.T) (srv, cli *Endpoint) {
		t.Helper()
		srv, err := ListenEndpoint("srv", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli, err = ListenEndpoint("cli", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Dial("srv", srv.TCPAddr()); err != nil {
			t.Fatal(err)
		}
		return srv, cli
	}

	t.Run("flush-after-peer-left", func(t *testing.T) {
		live0 := protocol.LiveFrames()
		srv, cli := dialPair(t)
		queueTwo(t, srv)
		// The peer leaves with the batch still queued; the flush either lands
		// in a dying socket or errors — both must release the batch.
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		_ = srv.FlushBatch()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if live := protocol.LiveFrames(); live != live0 {
			t.Fatalf("%d frames leaked flushing to a departed peer", live-live0)
		}
	})
	t.Run("close-with-batch-queued", func(t *testing.T) {
		live0 := protocol.LiveFrames()
		srv, cli := dialPair(t)
		queueTwo(t, srv)
		// No flush at all: endpoint shutdown must release the queued batch
		// via the connection teardown.
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		if live := protocol.LiveFrames(); live != live0 {
			t.Fatalf("%d frames leaked closing with a queued batch", live-live0)
		}
	})
}
