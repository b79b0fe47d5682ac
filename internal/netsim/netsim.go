// Package netsim is an event-driven network simulator substituting for the
// physical network fabric of the paper's architecture (Fig. 3): classroom
// WiFi between headsets and edge servers, the wired sensor network, the
// inter-campus real-time link, and the wide-area paths between remote
// learners and the cloud VR server.
//
// A Network owns a set of Hosts connected by unidirectional Links. A Link
// models propagation latency, random jitter, Bernoulli loss, and a serializing
// bandwidth queue (messages queue behind each other at line rate, which is how
// large video frames delay small pose updates on a shared uplink). Delivery is
// scheduled on the shared vclock.Sim, so end-to-end timings are deterministic.
//
// Wide-area paths are generated from a Region RTT model (see region.go in
// package region) with poor-peering penalties, reproducing the paper's
// "hundreds of milliseconds" claim for badly interconnected participants.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// Common errors.
var (
	ErrNoRoute       = errors.New("netsim: no link between hosts")
	ErrHostExists    = errors.New("netsim: host already registered")
	ErrUnknownHost   = errors.New("netsim: unknown host")
	ErrLinkExists    = errors.New("netsim: link already exists")
	ErrNetworkClosed = errors.New("netsim: network closed")
)

// Addr identifies a simulated host: the endpoint address itself, so nodes
// and the fabric name hosts with one type.
type Addr = endpoint.Addr

// HandlerFunc adapts a function to endpoint.Receiver. payload is borrowed for
// the duration of the call: the frame is recycled as soon as the function
// returns, so a handler that wants to keep bytes must copy them.
type HandlerFunc func(from Addr, payload []byte)

// Receive implements endpoint.Receiver.
func (f HandlerFunc) Receive(from Addr, payload []byte) { f(from, payload) }

// LinkConfig describes one direction of a point-to-point path.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) per message.
	Jitter time.Duration
	// LossRate is the independent per-message drop probability in [0,1].
	LossRate float64
	// Bandwidth is the line rate in bits per second; zero means infinite
	// (no serialization delay, no queue).
	Bandwidth int64
	// QueueLimit caps the bytes waiting in the serialization queue; messages
	// arriving at a full queue are dropped (tail drop). Zero means unlimited.
	QueueLimit int
}

// Validate reports configuration errors.
func (c LinkConfig) Validate() error {
	if c.Latency < 0 || c.Jitter < 0 {
		return fmt.Errorf("netsim: negative latency/jitter: %+v", c)
	}
	if !(c.LossRate >= 0 && c.LossRate <= 1) { // NaN fails both comparisons
		return fmt.Errorf("netsim: loss rate %v out of [0,1]", c.LossRate)
	}
	if c.Bandwidth < 0 {
		return fmt.Errorf("netsim: negative bandwidth %d", c.Bandwidth)
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("netsim: negative queue limit %d", c.QueueLimit)
	}
	return nil
}

// link is the runtime state of one direction of a path.
type link struct {
	cfg LinkConfig

	// busyUntil is the virtual time at which the serializer frees up.
	busyUntil time.Duration
	queued    int // bytes currently queued, for QueueLimit

	sent    metrics.Counter
	dropped metrics.Counter
	bytes   metrics.Counter
}

type host struct {
	addr Addr
	recv endpoint.Receiver
	// frames is recv's FrameReceiver view, asserted once at bind so the
	// per-delivery dispatch is a nil check, not a type switch.
	frames endpoint.FrameReceiver
	links  map[Addr]*link // destination -> link
}

func (h *host) bind(r endpoint.Receiver) {
	h.recv = r
	h.frames, _ = r.(endpoint.FrameReceiver)
}

// delivery is the in-flight state of one SendFrame, recycled through the
// network's freelist so steady-state traffic allocates neither a closure nor
// a timer event per message (vclock recycles the event behind AfterCall).
type delivery struct {
	n   *Network
	l   *link
	src Addr
	dst Addr
	// frame holds the message. The delivery holds one reference, taken at
	// frameGen, and releases it after the receiver returns — or without
	// delivering when the delivery is cancelled (host removal, link removal,
	// network close).
	frame    *protocol.Frame
	frameGen uint32
	sentAt   time.Duration
	size     int
	queued   bool // size was added to the link's serialization queue

	// timer is the clock event behind this delivery and idx its slot in the
	// network's in-flight index, so cancellation reclaims the event, the
	// frame reference, and the delivery object immediately — no waiting for
	// the simulation to advance past the due time.
	timer vclock.Timer
	idx   int
}

// runDelivery is the shared delivery callback: a package-level function
// (no capture), with the per-message state threaded through the argument.
func runDelivery(a any) {
	d := a.(*delivery)
	n := d.n
	n.untrack(d)
	if d.queued {
		d.l.queued -= d.size
	}
	n.deliver(d.src, d.dst, d.frame, d.sentAt)
	// The receiver has returned (or the destination is gone): the delivery's
	// reference — and with it the bytes — goes back. A receiver that retained
	// the frame keeps it alive past this point.
	d.frame.ReleaseGen(d.frameGen)
	n.recycle(d)
}

// untrack removes d from the in-flight index (swap with the tail, O(1)).
func (n *Network) untrack(d *delivery) {
	last := len(n.inflight) - 1
	tail := n.inflight[last]
	n.inflight[d.idx] = tail
	tail.idx = d.idx
	n.inflight[last] = nil
	n.inflight = n.inflight[:last]
}

// recycle clears a delivery's references and returns it to the freelist.
func (n *Network) recycle(d *delivery) {
	*d = delivery{} // never retain message bytes or frames in the pool
	n.freeDeliveries = append(n.freeDeliveries, d)
}

// cancel reclaims one in-flight delivery without delivering it: the timer
// event comes off the heap, the link's serialization queue is credited, and
// the frame reference is released — exactly the once the SendFrame contract
// owes. The destination receiver is never invoked.
func (n *Network) cancel(d *delivery) {
	n.sim.Cancel(d.timer)
	n.untrack(d)
	if d.queued {
		d.l.queued -= d.size
	}
	d.frame.ReleaseGen(d.frameGen)
	n.recycle(d)
}

// cancelMatching cancels every in-flight delivery for which match is true.
// It walks backward so the swap-with-tail removal never skips an entry.
func (n *Network) cancelMatching(match func(d *delivery) bool) {
	for i := len(n.inflight) - 1; i >= 0; i-- {
		if match(n.inflight[i]) {
			n.cancel(n.inflight[i])
		}
	}
}

// Network is the simulated fabric. Not safe for concurrent use; all calls
// must come from the simulation goroutine.
type Network struct {
	sim    *vclock.Sim
	hosts  map[Addr]*host
	closed bool

	delivered metrics.Counter
	latency   metrics.Histogram

	// inflight indexes every scheduled delivery (d.idx is its slot) so host
	// removal, link removal, and Close can reclaim queued traffic eagerly.
	inflight       []*delivery
	freeDeliveries []*delivery
	allocated      int // deliveries ever allocated (pool accounting)

	// Counters of links deleted by RemoveHost/Disconnect, so aggregate Stats
	// remain monotonic after topology shrinks.
	retiredDropped uint64
	retiredBytes   uint64
}

// New creates an empty network on the given simulator.
func New(sim *vclock.Sim) *Network {
	return &Network{sim: sim, hosts: make(map[Addr]*host)}
}

// AddHost registers a host. The receiver may be nil and set later with Bind
// (messages delivered to a nil receiver are discarded).
func (n *Network) AddHost(addr Addr, r endpoint.Receiver) error {
	if _, ok := n.hosts[addr]; ok {
		return fmt.Errorf("%w: %s", ErrHostExists, addr)
	}
	hst := &host{addr: addr, links: make(map[Addr]*link)}
	hst.bind(r)
	n.hosts[addr] = hst
	return nil
}

// Bind sets or replaces the receiver for addr.
func (n *Network) Bind(addr Addr, r endpoint.Receiver) error {
	hst, ok := n.hosts[addr]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, addr)
	}
	hst.bind(r)
	return nil
}

// HasHost reports whether addr is registered.
func (n *Network) HasHost(addr Addr) bool {
	_, ok := n.hosts[addr]
	return ok
}

// Connect creates a unidirectional link from src to dst. Use ConnectBoth for
// a symmetric path.
func (n *Network) Connect(src, dst Addr, cfg LinkConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s, ok := n.hosts[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	if _, ok := n.hosts[dst]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, dst)
	}
	if _, ok := s.links[dst]; ok {
		return fmt.Errorf("%w: %s->%s", ErrLinkExists, src, dst)
	}
	s.links[dst] = &link{cfg: cfg}
	return nil
}

// ConnectBoth creates symmetric links in both directions.
func (n *Network) ConnectBoth(a, b Addr, cfg LinkConfig) error {
	if err := n.Connect(a, b, cfg); err != nil {
		return err
	}
	return n.Connect(b, a, cfg)
}

// SetLink replaces the configuration of an existing link, e.g. to degrade a
// path mid-experiment (failure injection).
func (n *Network) SetLink(src, dst Addr, cfg LinkConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s, ok := n.hosts[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	l, ok := s.links[dst]
	if !ok {
		return fmt.Errorf("%w: %s->%s", ErrNoRoute, src, dst)
	}
	l.cfg = cfg
	return nil
}

// LinkConfigOf returns the current configuration of the src->dst link.
func (n *Network) LinkConfigOf(src, dst Addr) (LinkConfig, error) {
	s, ok := n.hosts[src]
	if !ok {
		return LinkConfig{}, fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	l, ok := s.links[dst]
	if !ok {
		return LinkConfig{}, fmt.Errorf("%w: %s->%s", ErrNoRoute, src, dst)
	}
	return l.cfg, nil
}

// SendFrame transmits f's bytes from src to dst over the direct link,
// consuming exactly one of the caller's references. The message is delivered
// (or dropped) asynchronously; SendFrame itself never blocks. Whether the
// message is delivered, lost at ingress, tail-dropped at the serialization
// queue, refused (closed network, unknown host, no route), or cancelled in
// flight (destination removed, link disconnected, network closed), the
// network releases that reference exactly once.
func (n *Network) SendFrame(src, dst Addr, f *protocol.Frame) error {
	size, gen := f.Len(), f.Gen()
	if n.closed {
		f.ReleaseGen(gen)
		return ErrNetworkClosed
	}
	s, ok := n.hosts[src]
	if !ok {
		f.ReleaseGen(gen)
		return fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	if _, ok := n.hosts[dst]; !ok {
		// A removed destination is unknown, not unrouted: the distinction
		// lets senders tell a departed peer from a topology gap.
		f.ReleaseGen(gen)
		return fmt.Errorf("%w: %s", ErrUnknownHost, dst)
	}
	l, ok := s.links[dst]
	if !ok {
		f.ReleaseGen(gen)
		return fmt.Errorf("%w: %s->%s", ErrNoRoute, src, dst)
	}

	// Bernoulli loss applies at ingress (models air interface / congestion).
	if l.cfg.LossRate > 0 && n.sim.Rand().Float64() < l.cfg.LossRate {
		l.dropped.Inc()
		f.ReleaseGen(gen)
		return nil
	}

	// Serialization: messages occupy the line back-to-back at Bandwidth bps.
	now := n.sim.Now()
	depart := now
	if l.cfg.Bandwidth > 0 {
		if l.cfg.QueueLimit > 0 && l.queued+size > l.cfg.QueueLimit {
			l.dropped.Inc()
			f.ReleaseGen(gen)
			return nil
		}
		txTime := time.Duration(float64(size*8) / float64(l.cfg.Bandwidth) * float64(time.Second))
		if l.busyUntil > now {
			depart = l.busyUntil
		}
		depart += txTime
		l.busyUntil = depart
		l.queued += size
	}

	delay := depart - now + l.cfg.Latency
	if l.cfg.Jitter > 0 {
		delay += time.Duration(n.sim.Rand().Float64() * float64(l.cfg.Jitter))
	}

	l.sent.Inc()
	l.bytes.Add(uint64(size))
	var d *delivery
	if k := len(n.freeDeliveries); k > 0 {
		d = n.freeDeliveries[k-1]
		n.freeDeliveries = n.freeDeliveries[:k-1]
	} else {
		d = &delivery{}
		n.allocated++
	}
	*d = delivery{
		n: n, l: l, src: src, dst: dst,
		frame: f, frameGen: gen,
		sentAt: now, size: size, queued: l.cfg.Bandwidth > 0,
	}
	d.timer = n.sim.AfterCall(delay, runDelivery, d)
	d.idx = len(n.inflight)
	n.inflight = append(n.inflight, d)
	return nil
}

// deliver hands f to dst's receiver: ReceiveFrame for a FrameReceiver, the
// frame's bytes to Receive otherwise. Either way f is borrowed for the call.
func (n *Network) deliver(src, dst Addr, f *protocol.Frame, sentAt time.Duration) {
	if n.closed {
		return
	}
	d, ok := n.hosts[dst]
	if !ok || d.recv == nil {
		return
	}
	n.delivered.Inc()
	n.latency.Observe(n.sim.Now() - sentAt)
	if d.frames != nil {
		d.frames.ReceiveFrame(src, f)
		return
	}
	d.recv.Receive(src, f.Bytes())
}

// retire folds a link's drop/byte counters into the network-level retired
// totals before the link is deleted, so aggregate Stats stay monotonic across
// host and link removal.
func (n *Network) retire(l *link) {
	n.retiredDropped += l.dropped.Value()
	n.retiredBytes += l.bytes.Value()
}

// RemoveHost unregisters addr and reclaims everything the fabric holds for
// it: every link to or from the host is deleted (their aggregate counters are
// folded into the network totals), and every delivery still in flight *to*
// the host is cancelled — its frame reference released exactly once, per the
// SendFrame contract, without invoking the stale receiver. Traffic the host
// already put on the wire toward live destinations still arrives. The
// address may be re-registered with AddHost afterwards; no ghost links
// survive the removal.
func (n *Network) RemoveHost(addr Addr) error {
	h, ok := n.hosts[addr]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, addr)
	}
	n.cancelMatching(func(d *delivery) bool { return d.dst == addr })
	for _, l := range h.links {
		n.retire(l)
	}
	for _, other := range n.hosts {
		if other == h {
			continue
		}
		if l, ok := other.links[addr]; ok {
			n.retire(l)
			delete(other.links, addr)
		}
	}
	delete(n.hosts, addr)
	return nil
}

// Disconnect removes the unidirectional src->dst link, cancelling any
// deliveries still in flight on it (frames released exactly once, receivers
// not invoked) and folding the link's counters into the network totals.
func (n *Network) Disconnect(src, dst Addr) error {
	s, ok := n.hosts[src]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	l, ok := s.links[dst]
	if !ok {
		return fmt.Errorf("%w: %s->%s", ErrNoRoute, src, dst)
	}
	n.cancelMatching(func(d *delivery) bool { return d.l == l })
	n.retire(l)
	delete(s.links, dst)
	return nil
}

// Close stops all future deliveries and eagerly cancels every delivery still
// in flight, releasing each frame reference immediately. A harness that
// closes the network and never advances the simulation again therefore leaks
// nothing — the release no longer waits for the delivery events to fire.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	n.cancelMatching(func(*delivery) bool { return true })
}

// Sim returns the simulator the network is scheduled on.
func (n *Network) Sim() *vclock.Sim { return n.sim }

// Stats describes aggregate network activity.
type Stats struct {
	Delivered uint64
	Dropped   uint64
	SentBytes uint64
	Latency   metrics.Histogram
}

// Stats returns aggregate counters across all links, including links since
// removed by RemoveHost or Disconnect.
func (n *Network) Stats() Stats {
	st := Stats{
		Delivered: n.delivered.Value(),
		Dropped:   n.retiredDropped,
		SentBytes: n.retiredBytes,
		Latency:   n.latency,
	}
	for _, h := range n.hosts {
		for _, l := range h.links {
			st.Dropped += l.dropped.Value()
			st.SentBytes += l.bytes.Value()
		}
	}
	return st
}

// Tables is a point-in-time snapshot of the network's internal table sizes.
// Leak gates use it to assert a drained fabric returned to baseline: after
// churn plus drain, Hosts/Links should match the pre-churn topology,
// Inflight should be zero, and PooledDeliveries should equal
// DeliveriesAllocated (every delivery object ever created is back in the
// pool — none captive in the event queue or lost).
type Tables struct {
	Hosts               int
	Links               int
	Inflight            int
	PooledDeliveries    int
	DeliveriesAllocated int
}

// Tables returns the current table sizes.
func (n *Network) Tables() Tables {
	t := Tables{
		Hosts:               len(n.hosts),
		Inflight:            len(n.inflight),
		PooledDeliveries:    len(n.freeDeliveries),
		DeliveriesAllocated: n.allocated,
	}
	for _, h := range n.hosts {
		t.Links += len(h.links)
	}
	return t
}

// LinkStats describes one link's counters.
type LinkStats struct {
	Sent    uint64
	Dropped uint64
	Bytes   uint64
}

// StatsOf returns counters for the src->dst link.
func (n *Network) StatsOf(src, dst Addr) (LinkStats, error) {
	s, ok := n.hosts[src]
	if !ok {
		return LinkStats{}, fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	l, ok := s.links[dst]
	if !ok {
		return LinkStats{}, fmt.Errorf("%w: %s->%s", ErrNoRoute, src, dst)
	}
	return LinkStats{Sent: l.sent.Value(), Dropped: l.dropped.Value(), Bytes: l.bytes.Value()}, nil
}
