package transport

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/protocol"
)

// trail records what an endpoint dispatches, in dispatch order: "ping N from
// P" for each Ping frame and "gone P" for each departure.
type trail struct{ events []string }

func (tr *trail) Receive(from endpoint.Addr, payload []byte) {
	if m, _, err := protocol.Decode(payload); err == nil {
		if p, ok := m.(*protocol.Ping); ok {
			tr.events = append(tr.events, fmt.Sprintf("ping %d from %s", p.Nonce, from))
		}
	}
}

func (tr *trail) gone(peer endpoint.Addr) {
	tr.events = append(tr.events, "gone "+string(peer))
}

// departures counts the recorded departures.
func (tr *trail) departures() int {
	n := 0
	for _, ev := range tr.events {
		if strings.HasPrefix(ev, "gone ") {
			n++
		}
	}
	return n
}

// listenTrailed starts an endpoint that records its dispatches.
func listenTrailed(t *testing.T, name endpoint.Addr) (*Endpoint, *trail) {
	t.Helper()
	e, err := ListenEndpoint(name, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &trail{}
	if err := e.Bind(tr); err != nil {
		t.Fatal(err)
	}
	e.OnPeerGone(tr.gone)
	return e, tr
}

// pumpUntil pumps e until cond holds or the deadline passes, then pumps for
// a settle window more so a duplicate departure would show.
func pumpUntil(t *testing.T, e *Endpoint, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		e.PumpWait(10 * time.Millisecond)
	}
	for settle := time.Now().Add(50 * time.Millisecond); time.Now().Before(settle); {
		e.PumpWait(10 * time.Millisecond)
	}
}

// dialRaw completes the name handshake with e from a bare Conn, which then
// sits idle: it neither reads nor closes unless the test says so.
func dialRaw(t *testing.T, e *Endpoint, name string) *Conn {
	t.Helper()
	c, err := Dial(e.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := SendMsg(c, &protocol.Hello{Name: name}); err != nil {
		t.Fatal(err)
	}
	msg, err := RecvMsg(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*protocol.HelloAck); !ok {
		t.Fatalf("handshake reply %T", msg)
	}
	return c
}

func sendPing(t *testing.T, e *Endpoint, to endpoint.Addr, nonce uint64) error {
	t.Helper()
	f, err := protocol.EncodeFrame(&protocol.Ping{Nonce: nonce})
	if err != nil {
		t.Fatal(err)
	}
	return e.SendFrame(to, f)
}

// TestPeerDepartureFollowsItsFrames: a peer that sends N frames and closes is
// dispatched as those N frames, then exactly one departure.
func TestPeerDepartureFollowsItsFrames(t *testing.T) {
	live0 := protocol.LiveFrames()
	srv, tr := listenTrailed(t, "srv")
	cli, err := ListenEndpoint("cli", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Dial("srv", srv.TCPAddr()); err != nil {
		t.Fatal(err)
	}
	const n = 5
	var want []string
	for i := uint64(1); i <= n; i++ {
		if err := sendPing(t, cli, "srv", i); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("ping %d from cli", i))
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, srv, func() bool { return tr.departures() > 0 })
	want = append(want, "gone cli")
	if !reflect.DeepEqual(tr.events, want) {
		t.Fatalf("dispatched %q, want %q", tr.events, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}

// TestFlushFailureDepartsOnce: a flush that fails on the owner's side closes
// the conn, and its read loop reports exactly one departure.
func TestFlushFailureDepartsOnce(t *testing.T) {
	srv, tr := listenTrailed(t, "srv")
	defer srv.Close()
	peer := dialRaw(t, srv, "raw")
	defer peer.Close()
	// Shut our write half: the read half (and so the read loop) stays up,
	// and the next flush fails on our side.
	srv.mu.Lock()
	c := srv.conns["raw"]
	srv.mu.Unlock()
	if err := c.c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	srv.BeginBatch()
	if err := sendPing(t, srv, "raw", 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.FlushBatch(); err == nil {
		t.Fatal("flush into a shut write half succeeded")
	}
	pumpUntil(t, srv, func() bool { return tr.departures() > 0 })
	if want := []string{"gone raw"}; !reflect.DeepEqual(tr.events, want) {
		t.Fatalf("dispatched %q, want %q", tr.events, want)
	}
	if err := sendPing(t, srv, "raw", 2); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send after departure: %v, want ErrUnknownPeer", err)
	}
}

// TestClosePeerDepartsAfterItsFrames: ClosePeer ends the conn, and the
// departure follows the frames the peer had sent.
func TestClosePeerDepartsAfterItsFrames(t *testing.T) {
	srv, tr := listenTrailed(t, "srv")
	defer srv.Close()
	cli, err := ListenEndpoint("cli", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Dial("srv", srv.TCPAddr()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		if err := sendPing(t, cli, "srv", i); err != nil {
			t.Fatal(err)
		}
	}
	pumpUntil(t, srv, func() bool { return len(tr.events) == 2 })
	srv.ClosePeer("cli")
	pumpUntil(t, srv, func() bool { return tr.departures() > 0 })
	want := []string{"ping 1 from cli", "ping 2 from cli", "gone cli"}
	if !reflect.DeepEqual(tr.events, want) {
		t.Fatalf("dispatched %q, want %q", tr.events, want)
	}
}

// TestReplacedConnDeathTearsNothingDown: a second handshake under a name
// replaces the first conn; the old conn's death dispatches no departure and
// leaves the new registration routable, whose own death departs once.
func TestReplacedConnDeathTearsNothingDown(t *testing.T) {
	srv, tr := listenTrailed(t, "srv")
	defer srv.Close()
	old := dialRaw(t, srv, "dup")
	defer old.Close()
	cur := dialRaw(t, srv, "dup")
	// The replacement closed the old conn: its reader sees the end.
	if _, err := old.ReadFrame(); err == nil {
		t.Fatal("replaced conn still open")
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		srv.PumpWait(10 * time.Millisecond)
	}
	if len(tr.events) != 0 {
		t.Fatalf("replaced conn's death dispatched %q", tr.events)
	}
	if err := sendPing(t, srv, "dup", 7); err != nil {
		t.Fatal(err)
	}
	msg, err := RecvMsg(cur)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := msg.(*protocol.Ping); !ok || p.Nonce != 7 {
		t.Fatalf("replacement conn read %#v", msg)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	pumpUntil(t, srv, func() bool { return tr.departures() > 0 })
	if want := []string{"gone dup"}; !reflect.DeepEqual(tr.events, want) {
		t.Fatalf("dispatched %q, want %q", tr.events, want)
	}
}

// TestNoDepartureDispatchedAfterClose: a departure still queued when the
// endpoint closes is dropped with the inbox, not dispatched.
func TestNoDepartureDispatchedAfterClose(t *testing.T) {
	live0 := protocol.LiveFrames()
	srv, tr := listenTrailed(t, "srv")
	peer := dialRaw(t, srv, "raw")
	peer.QueueFrame(protocol.CopyFrame([]byte("not a message")))
	if err := peer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Close(); err != nil {
		t.Fatal(err)
	}
	// Wait for the read loop to queue the frame and the departure behind it.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.inbox) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("inbox holds %d entries, want 2", len(srv.inbox))
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Pump(); n != 0 {
		t.Fatalf("Pump after Close dispatched %d entries", n)
	}
	if len(tr.events) != 0 {
		t.Fatalf("dispatched %q after Close", tr.events)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}

// failingListener fails every Accept, as a listener out of descriptors does,
// until it is closed.
type failingListener struct {
	calls  atomic.Int64
	closed chan struct{}
	once   sync.Once
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
}

func (l *failingListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptBacksOffPersistentErrors: a listener that keeps failing is
// retried with a growing wait, not in a spin, and Close ends the wait.
func TestAcceptBacksOffPersistentErrors(t *testing.T) {
	ln := &failingListener{closed: make(chan struct{})}
	e := serve("srv", ln, false)
	time.Sleep(100 * time.Millisecond)
	// Waits of 5, 10, 20, 40 ms fit five calls into 100 ms.
	if calls := ln.calls.Load(); calls > 10 {
		t.Fatalf("Accept called %d times in 100ms", calls)
	}
	// By 400 ms the loop is in its 320 ms wait (from 315 ms to 635 ms).
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 150*time.Millisecond {
		t.Fatalf("Close took %v during an accept backoff", took)
	}
}
