package rig

import (
	"errors"
	"fmt"
	"sort"

	"metaclass/internal/endpoint"
	"metaclass/internal/netsim"
	"metaclass/internal/transport"
)

// Fabric abstracts the network substrate a Rig stands its topology on: named
// transport endpoints plus point-to-point links between them. The two
// implementations — NetsimFabric over the deterministic simulated fabric and
// TCPFabric over real loopback sockets — make the same deployment code run
// identically on both backends, which is what the cross-backend parity gate
// exercises. A Fabric wrapping another is the seam for tapping a deployment.
//
// Link configurations carry netsim semantics (latency, jitter, loss); the
// TCP fabric ignores them — a real network imposes its own — but accepts
// them so callers stay backend-agnostic.
type Fabric interface {
	// Transport creates the named endpoint. A name in use is refused: handing
	// the live endpoint out again would let the new node's Bind hijack it.
	Transport(name endpoint.Addr) (endpoint.Transport, error)
	// Link establishes bidirectional connectivity between two endpoints that
	// are not linked (the rig links a pair once: at join, relay deploy, or
	// handoff to a server the session is not on).
	Link(a, b endpoint.Addr, cfg netsim.LinkConfig) error
	// Unlink cuts connectivity between two endpoints, cancelling whatever the
	// fabric still holds in flight between them (netsim releases the frames
	// eagerly; TCP closes the connection and lets the sockets drain). Unknown
	// pairs are a no-op: handoff teardown must be idempotent.
	Unlink(a, b endpoint.Addr) error
	// Remove reclaims an endpoint and every link touching it; its name is
	// free again. Unknown names are a no-op.
	Remove(name endpoint.Addr) error
}

// ErrAddrInUse is Fabric.Transport's refusal of a name that has an endpoint.
var ErrAddrInUse = errors.New("rig: address already in use")

// NetsimFabric adapts a netsim.Network to the Fabric surface.
type NetsimFabric struct {
	Net *netsim.Network
}

// Transport returns the simulated host's endpoint (registered on first Bind).
func (f *NetsimFabric) Transport(name endpoint.Addr) (endpoint.Transport, error) {
	if f.Net.HasHost(name) {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, name)
	}
	return f.Net.Endpoint(name), nil
}

// Link connects both directions of a<->b.
func (f *NetsimFabric) Link(a, b endpoint.Addr, cfg netsim.LinkConfig) error {
	return f.Net.ConnectBoth(a, b, cfg)
}

// Unlink disconnects both directions, cancelling in-flight deliveries.
// Directions that do not exist are skipped.
func (f *NetsimFabric) Unlink(a, b endpoint.Addr) error {
	for _, dir := range [2][2]endpoint.Addr{{a, b}, {b, a}} {
		if _, err := f.Net.LinkConfigOf(dir[0], dir[1]); err != nil {
			continue
		}
		if err := f.Net.Disconnect(dir[0], dir[1]); err != nil {
			return err
		}
	}
	return nil
}

// Remove reclaims the host: links retired, in-flight deliveries cancelled.
func (f *NetsimFabric) Remove(name endpoint.Addr) error {
	if !f.Net.HasHost(name) {
		return nil // never bound (or already removed): nothing to reclaim
	}
	return f.Net.RemoveHost(name)
}

// TCPFabric is the real-socket Fabric: every Transport is a
// transport.ListenEndpoint on a loopback port, and Link dials the mesh
// connection between two endpoints. Link configurations are accepted and
// ignored — latency here is whatever the kernel provides.
//
// TCP endpoints deliver into inboxes, so the owning goroutine must call
// Pump() to dispatch inbound traffic — the same single-threaded discipline
// the rest of the node stack runs under.
type TCPFabric struct {
	eps map[endpoint.Addr]*transport.Endpoint
}

// NewTCPFabric creates an empty TCP fabric.
func NewTCPFabric() *TCPFabric {
	return &TCPFabric{eps: make(map[endpoint.Addr]*transport.Endpoint)}
}

// Transport starts the named endpoint listening on a loopback port.
func (f *TCPFabric) Transport(name endpoint.Addr) (endpoint.Transport, error) {
	if _, ok := f.eps[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, name)
	}
	ep, err := transport.ListenEndpoint(name, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.eps[name] = ep
	return ep, nil
}

// Link dials the mesh connection a->b; the handshake makes the pair mutually
// routable before Link returns (latency shaping does not apply here).
func (f *TCPFabric) Link(a, b endpoint.Addr, _ netsim.LinkConfig) error {
	ea, ok := f.eps[a]
	if !ok {
		return fmt.Errorf("rig: tcp fabric: unknown endpoint %s", a)
	}
	eb, ok := f.eps[b]
	if !ok {
		return fmt.Errorf("rig: tcp fabric: unknown endpoint %s", b)
	}
	return ea.Dial(b, eb.TCPAddr())
}

// Unlink closes the pair's connection from both sides (ClosePeer tolerates
// peers that are already gone; teardown completes asynchronously).
func (f *TCPFabric) Unlink(a, b endpoint.Addr) error {
	if ea, ok := f.eps[a]; ok {
		ea.ClosePeer(b)
	}
	if eb, ok := f.eps[b]; ok {
		eb.ClosePeer(a)
	}
	return nil
}

// Remove closes the named endpoint and with it every connection it holds.
func (f *TCPFabric) Remove(name endpoint.Addr) error {
	ep, ok := f.eps[name]
	if !ok {
		return nil
	}
	delete(f.eps, name)
	return ep.Close()
}

// Pump dispatches every endpoint's queued inbound traffic (ascending name
// order, so cross-run behavior is reproducible) and returns the number of
// messages handled.
func (f *TCPFabric) Pump() int {
	names := make([]endpoint.Addr, 0, len(f.eps))
	for n := range f.eps {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	total := 0
	for _, n := range names {
		total += f.eps[n].Pump()
	}
	return total
}

// Close tears every endpoint down.
func (f *TCPFabric) Close() {
	for name, ep := range f.eps {
		_ = ep.Close()
		delete(f.eps, name)
	}
}
