package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// ErrUnknownPeer reports a send to an endpoint the mesh has no connection to.
var ErrUnknownPeer = errors.New("transport: no connection to peer")

// handshakeWait is how long a peer has to deliver the one message the name
// handshake waits for (the dialer's Hello, the listener's HelloAck), so a
// connection that opens and goes quiet costs a goroutine and a socket for
// this long and no longer.
const handshakeWait = 5 * time.Second

// acceptBackoffMin and acceptBackoffMax bound the wait after a failed Accept
// (EMFILE when descriptors run out): it starts at the minimum, doubles on
// each further failure up to the maximum, and resets after an accept.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// inbound is one entry queued for dispatch: a received frame, which Pump
// releases after the receiver returns, or — with a nil frame — the departure
// of the peer whose connection died, queued by its read loop behind the last
// frame it read.
type inbound struct {
	from  endpoint.Addr
	frame *protocol.Frame
}

// Endpoint is a TCP-backed endpoint.Transport: a listener plus a set of
// named peer connections carrying Conn's length-prefixed protocol frames,
// with the refcounted-frame ownership contract preserved on both sides of
// the socket (vectored writes share frame bytes out, pooled frames carry
// received bytes in).
//
// Peers learn each other's logical names with a one-message handshake: the
// dialing side announces itself with a Hello whose Name field carries its
// endpoint address. A client of an anonymous server skips it
// (DialAnonymous) and names the server itself.
//
// Receives are queued and dispatched by Pump/PumpWait on the caller's
// goroutine, honoring the single-threaded node contract — the same node code
// that runs on the simulation goroutine under netsim runs on the pumping
// goroutine here.
type Endpoint struct {
	addr endpoint.Addr
	ln   net.Listener
	// anon accepts connections without the Hello/HelloAck name handshake:
	// each accepted conn is registered under its remote TCP address and every
	// inbound message — the application-level Hello included — reaches the
	// bound receiver. Server endpoints whose peers are anonymous clients
	// (cmd/classroomd) listen this way and run their own admission on top.
	anon bool

	mu     sync.Mutex
	conns  map[endpoint.Addr]*Conn
	all    map[*Conn]struct{} // every live conn, named or mid-handshake
	closed bool
	hsWait time.Duration // handshakeWait; a field so a test can shorten it
	recv   endpoint.Receiver
	// recvFrames is recv's FrameReceiver view (nil if unsupported): inbound
	// frames are handed over retainably instead of as borrowed bytes.
	recvFrames endpoint.FrameReceiver
	// batching, when true, makes SendFrame queue without flushing; dirty
	// tracks the connections touched since BeginBatch, each flushed once by
	// FlushBatch (one vectored write per conn per tick).
	batching     bool
	dirty        map[endpoint.Addr]*Conn
	flushScratch []flushEntry
	onGone       func(endpoint.Addr) // OnPeerGone's handler

	inbox     chan inbound
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// ListenEndpoint binds a TCP listener (tcpAddr, e.g. "127.0.0.1:0") and
// returns the transport endpoint named name.
func ListenEndpoint(name endpoint.Addr, tcpAddr string) (*Endpoint, error) {
	return listen(name, tcpAddr, false)
}

// ListenAnonymous binds a TCP listener that accepts connections without the
// name handshake: each conn is registered under its remote TCP address and
// all of its traffic (Hello included) is dispatched to the bound receiver.
// Outbound Dial still handshakes as usual.
func ListenAnonymous(name endpoint.Addr, tcpAddr string) (*Endpoint, error) {
	return listen(name, tcpAddr, true)
}

func listen(name endpoint.Addr, tcpAddr string, anon bool) (*Endpoint, error) {
	ln, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", tcpAddr, err)
	}
	return serve(name, ln, anon), nil
}

// serve returns the endpoint named name accepting on ln.
func serve(name endpoint.Addr, ln net.Listener, anon bool) *Endpoint {
	e := &Endpoint{
		addr:   name,
		ln:     ln,
		anon:   anon,
		conns:  make(map[endpoint.Addr]*Conn),
		all:    make(map[*Conn]struct{}),
		hsWait: handshakeWait,
		dirty:  make(map[endpoint.Addr]*Conn),
		inbox:  make(chan inbound, 256),
		done:   make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e
}

// TCPAddr returns the bound listen address (for peers to dial).
func (e *Endpoint) TCPAddr() string { return e.ln.Addr().String() }

// Dial connects this endpoint to the peer named peer at tcpAddr, announcing
// our own name in the handshake. Dial returns only after the peer has
// acknowledged the handshake, so both sides are routable when it returns.
func (e *Endpoint) Dial(peer endpoint.Addr, tcpAddr string) error {
	c, err := Dial(tcpAddr)
	if err != nil {
		return err
	}
	if err := sendHandshake(c, &protocol.Hello{Name: string(e.addr)}); err != nil {
		_ = c.Close()
		return fmt.Errorf("transport: handshake with %s: %w", peer, err)
	}
	msg, err := e.recvHandshake(c)
	if err != nil {
		_ = c.Close()
		return fmt.Errorf("transport: handshake with %s: %w", peer, err)
	}
	if _, ok := msg.(*protocol.HelloAck); !ok {
		_ = c.Close()
		return fmt.Errorf("transport: handshake with %s: unexpected %T", peer, msg)
	}
	return e.adopt(peer, c)
}

// DialAnonymous connects this endpoint to the ListenAnonymous server at
// tcpAddr (cmd/classroomd) without the name handshake, registered as peer:
// the server names the conn by its TCP address, and the client joins with
// its own Hello.
func (e *Endpoint) DialAnonymous(peer endpoint.Addr, tcpAddr string) error {
	c, err := Dial(tcpAddr)
	if err != nil {
		return err
	}
	return e.adopt(peer, c)
}

// adopt tracks c, registers it as peer and starts its read loop (on a closed
// endpoint it closes c): every conn not named by the accept-side handshake.
func (e *Endpoint) adopt(peer endpoint.Addr, c *Conn) error {
	if !e.track(c) {
		_ = c.Close()
		return fmt.Errorf("transport: dial %s: endpoint closed", peer)
	}
	e.register(peer, c)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.readLoop(peer, c)
	}()
	return nil
}

// track records a live connection for shutdown, refusing once the endpoint
// has closed (so Close can reliably unblock every read/handshake goroutine).
func (e *Endpoint) track(c *Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.all[c] = struct{}{}
	return true
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	var backoff time.Duration
	for {
		nc, err := e.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Retrying at once would spin on a persistent failure and hold
			// a core the serving goroutine needs; Close ends the wait.
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			t := time.NewTimer(backoff)
			select {
			case <-e.done:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		c := NewConn(nc)
		if e.anon {
			if e.adopt(endpoint.Addr(nc.RemoteAddr().String()), c) != nil {
				return
			}
			continue
		}
		if !e.track(c) {
			_ = c.Close()
			return
		}
		e.wg.Add(1)
		go e.handshake(c)
	}
}

// sendHandshake writes one handshake message the way every frame is
// written: encoded into a pooled frame, queued and flushed.
func sendHandshake(c *Conn, msg protocol.Message) error {
	f, err := protocol.EncodeFrame(msg)
	if err != nil {
		return err
	}
	c.QueueFrame(f)
	return c.Flush()
}

// recvHandshake reads the one frame a handshake waits for under a read
// deadline of hsWait, lifts the deadline once the frame is whole (the read
// loop that follows waits on a quiet peer for as long as it is quiet), and
// decodes it with a Decoder of its own.
func (e *Endpoint) recvHandshake(c *Conn) (protocol.Message, error) {
	e.mu.Lock()
	wait := e.hsWait
	e.mu.Unlock()
	if err := c.c.SetReadDeadline(time.Now().Add(wait)); err != nil {
		return nil, err
	}
	f, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	defer f.Release()
	if err := c.c.SetReadDeadline(time.Time{}); err != nil {
		return nil, err
	}
	var dec protocol.Decoder
	msg, _, err := dec.Decode(f.Bytes())
	return msg, err
}

// handshake reads the peer's announcement, registers the connection under
// the announced name, and continues as its read loop. The connection is
// already tracked, so Close unblocks a stalled handshake read, and a peer
// that never finishes its Hello is dropped when the read deadline passes.
func (e *Endpoint) handshake(c *Conn) {
	defer e.wg.Done()
	msg, err := e.recvHandshake(c)
	if err != nil {
		e.untrack(c)
		return
	}
	hello, ok := msg.(*protocol.Hello)
	if !ok || hello.Name == "" {
		e.untrack(c)
		return
	}
	e.register(endpoint.Addr(hello.Name), c)
	if err := sendHandshake(c, &protocol.HelloAck{}); err != nil {
		_ = c.Close() // the read loop fails at once and drops the conn
	}
	e.readLoop(endpoint.Addr(hello.Name), c)
}

func (e *Endpoint) register(peer endpoint.Addr, c *Conn) {
	e.mu.Lock()
	if old, ok := e.conns[peer]; ok {
		_ = old.Close()
	}
	e.conns[peer] = c
	e.mu.Unlock()
}

// readLoop moves raw frames from the socket into the inbox until the
// connection or the endpoint closes. It is the one place a connection is
// dropped: everything else that ends a conn (a failed flush or handshake
// write, ClosePeer, a replacing registration, Close) only closes it, and the
// read fails here. When the conn held its peer's registration, the loop
// queues the peer's departure behind the last frame it read, so the
// teardown is dispatched on the pumping goroutine after all of them — and
// a replaced conn dying never tears down its successor.
func (e *Endpoint) readLoop(from endpoint.Addr, c *Conn) {
	for {
		f, err := c.ReadFrame()
		if err != nil && !e.dropConn(from, c) {
			return
		}
		select {
		case e.inbox <- inbound{from: from, frame: f}:
		case <-e.done:
			if f != nil {
				f.Release()
			}
			return
		}
		if err != nil {
			return
		}
	}
}

// dropConn closes and forgets c, reporting whether it held from's
// registration.
func (e *Endpoint) dropConn(from endpoint.Addr, c *Conn) bool {
	_ = c.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.all, c)
	if e.conns[from] != c {
		return false
	}
	delete(e.conns, from)
	return true
}

// OnPeerGone registers a handler for peer teardown: when a registered peer's
// connection dies, the handler runs during a later Pump, after every frame
// the peer's connection had read. Departures still queued when the endpoint
// closes are dropped. Set before traffic starts.
func (e *Endpoint) OnPeerGone(h func(peer endpoint.Addr)) {
	e.mu.Lock()
	e.onGone = h
	e.mu.Unlock()
}

// ClosePeer closes the named peer's connection. The read loop observes the
// close and the usual teardown (including the OnPeerGone notification)
// follows. Unknown peers are a no-op.
func (e *Endpoint) ClosePeer(peer endpoint.Addr) {
	e.mu.Lock()
	c := e.conns[peer]
	e.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// untrack closes and forgets a connection that never finished its handshake.
func (e *Endpoint) untrack(c *Conn) {
	_ = c.Close()
	e.mu.Lock()
	delete(e.all, c)
	e.mu.Unlock()
}

// LocalAddr implements endpoint.Transport.
func (e *Endpoint) LocalAddr() endpoint.Addr { return e.addr }

// Bind implements endpoint.Transport. Messages queued before Bind are
// dispatched to r at the next Pump.
func (e *Endpoint) Bind(r endpoint.Receiver) error {
	e.mu.Lock()
	e.recv = r
	e.recvFrames, _ = r.(endpoint.FrameReceiver)
	e.mu.Unlock()
	return nil
}

// SendFrame implements endpoint.Transport: the frame is queued on the peer's
// connection and flushed with a vectored write sharing the frame's bytes —
// no copy — consuming exactly one caller reference on every outcome. Inside
// a BeginBatch/FlushBatch window the flush is deferred, so a tick's whole
// fan-out (and a pump's burst of acks) hits each socket once.
func (e *Endpoint) SendFrame(to endpoint.Addr, f *protocol.Frame) error {
	e.mu.Lock()
	c := e.conns[to]
	batched := e.batching
	if c != nil && batched {
		e.dirty[to] = c
	}
	e.mu.Unlock()
	if c == nil {
		f.Release()
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	c.QueueFrame(f)
	if batched {
		return nil
	}
	if err := c.Flush(); err != nil {
		_ = c.Close() // its read loop drops it
		return err
	}
	return nil
}

// BeginBatch implements endpoint.Batcher: subsequent SendFrames queue
// without flushing until FlushBatch.
func (e *Endpoint) BeginBatch() {
	e.mu.Lock()
	e.batching = true
	e.mu.Unlock()
}

// FlushBatch implements endpoint.Batcher: every connection touched since
// BeginBatch is flushed with one vectored write; failing connections are
// closed, and their read loops drop them. Returns the first flush error.
func (e *Endpoint) FlushBatch() error {
	e.mu.Lock()
	e.batching = false
	if len(e.dirty) == 0 {
		e.mu.Unlock()
		return nil
	}
	scratch := e.flushScratch[:0]
	for to, c := range e.dirty {
		scratch = append(scratch, flushEntry{to: to, c: c})
		delete(e.dirty, to)
	}
	e.mu.Unlock()
	var first error
	for i, d := range scratch {
		if err := d.c.Flush(); err != nil {
			_ = d.c.Close()
			if first == nil {
				first = err
			}
		}
		scratch[i] = flushEntry{} // no conn refs parked in the scratch
	}
	e.mu.Lock()
	e.flushScratch = scratch[:0]
	e.mu.Unlock()
	return first
}

// flushEntry is one touched connection in a write batch.
type flushEntry struct {
	to endpoint.Addr
	c  *Conn
}

// Pump dispatches queued inbound entries — frames to the bound receiver,
// departures to the OnPeerGone handler — until the inbox is empty, returning
// the number dispatched. Call from the goroutine that owns the node. Replies
// sent while dispatching (acks, pongs, forwards, teardown traffic) are
// batched and flushed once per pump, not per message.
func (e *Endpoint) Pump() int {
	e.BeginBatch()
	n := 0
	for {
		select {
		case in := <-e.inbox:
			e.dispatch(in)
			n++
		default:
			_ = e.FlushBatch()
			return n
		}
	}
}

// PumpWait blocks up to timeout for at least one inbound entry, then drains
// the rest of the inbox, returning the number dispatched.
func (e *Endpoint) PumpWait(timeout time.Duration) int {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case in := <-e.inbox:
		// Open the batch window before the first dispatch so its replies
		// batch with the drain's; Pump re-arms the (idempotent) flag and
		// flushes everything queued since.
		e.BeginBatch()
		e.dispatch(in)
		return 1 + e.Pump()
	case <-t.C:
		return 0
	case <-e.done:
		return 0
	}
}

// Serve drives a node over this endpoint in real time until done closes: it
// pumps inbound traffic between ticks and advances sim one interval per
// wall-clock interval, so the node's tickers fire on the calling goroutine.
func (e *Endpoint) Serve(sim *vclock.Sim, interval time.Duration, done <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			_ = sim.Run(sim.Now() + interval)
		default:
			e.PumpWait(time.Millisecond)
		}
	}
}

func (e *Endpoint) dispatch(in inbound) {
	e.mu.Lock()
	r, fr, gone := e.recv, e.recvFrames, e.onGone
	e.mu.Unlock()
	if in.frame == nil {
		if gone != nil {
			gone(in.from)
		}
		return
	}
	switch {
	case fr != nil:
		// Retainable handle: the receiver may keep or forward the frame
		// zero-copy; our inbox reference is still released below.
		fr.ReceiveFrame(in.from, in.frame)
	case r != nil:
		r.Receive(in.from, in.frame.Bytes())
	}
	in.frame.Release()
}

// Close implements endpoint.Transport: it stops the listener and every
// connection, waits for the read loops, and releases any frames still queued
// in the inbox, dropping the departures queued among them.
func (e *Endpoint) Close() error {
	var err error
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		conns := make([]*Conn, 0, len(e.all))
		for c := range e.all {
			conns = append(conns, c)
		}
		e.mu.Unlock()
		close(e.done)
		err = e.ln.Close()
		// Closing every live conn — named or still mid-handshake — unblocks
		// the read and handshake goroutines wg.Wait depends on.
		for _, c := range conns {
			_ = c.Close()
		}
	})
	e.wg.Wait()
	for {
		select {
		case in := <-e.inbox:
			if in.frame != nil {
				in.frame.Release()
			}
		default:
			return err
		}
	}
}
