package netsim

import (
	"metaclass/internal/endpoint"
	"metaclass/internal/protocol"
)

// Endpoint adapts one simulated host to the endpoint.Transport interface, so
// nodes written against the transport-agnostic endpoint API run on the
// deterministic fabric. The frame refcount contract is inherited from
// Network.SendFrame: exactly one caller reference is consumed on every
// outcome (delivery, Bernoulli loss, queue tail-drop, route errors, closed
// network).
type Endpoint struct {
	n    *Network
	addr Addr
}

// Endpoint returns the transport endpoint for addr. The host is registered
// on first Bind; creating the endpoint itself has no side effects.
func (n *Network) Endpoint(addr Addr) *Endpoint {
	return &Endpoint{n: n, addr: addr}
}

// LocalAddr implements endpoint.Transport.
func (e *Endpoint) LocalAddr() Addr { return e.addr }

// SendFrame implements endpoint.Transport, consuming one of f's references
// on every outcome.
func (e *Endpoint) SendFrame(to Addr, f *protocol.Frame) error {
	return e.n.SendFrame(e.addr, to, f)
}

// Bind implements endpoint.Transport: it registers (or rebinds) the host
// with r as its receiver, under the borrowed-payload contract of deliver.
func (e *Endpoint) Bind(r endpoint.Receiver) error {
	if !e.n.HasHost(e.addr) {
		return e.n.AddHost(e.addr, r)
	}
	return e.n.Bind(e.addr, r)
}

// Close implements endpoint.Transport by detaching the receiver: subsequent
// deliveries to this host are discarded by the network, and their frames are
// released by the delivery events as usual.
func (e *Endpoint) Close() error {
	if !e.n.HasHost(e.addr) {
		return nil
	}
	return e.n.Bind(e.addr, nil)
}
