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
func (e *Endpoint) LocalAddr() endpoint.Addr { return endpoint.Addr(e.addr) }

// SendFrame implements endpoint.Transport, consuming one of f's references
// on every outcome.
func (e *Endpoint) SendFrame(to endpoint.Addr, f *protocol.Frame) error {
	return e.n.SendFrame(e.addr, Addr(to), f)
}

// receiverHandler adapts an endpoint.Receiver to the fabric's Handler
// surface. When the receiver understands frames, deliveries are handed over
// with the retainable handle; plain receivers keep the borrowed-payload path.
type receiverHandler struct {
	r  endpoint.Receiver
	fr endpoint.FrameReceiver // r's FrameReceiver view, nil if unsupported
}

func (h *receiverHandler) HandleMessage(from Addr, payload []byte) {
	h.r.Receive(endpoint.Addr(from), payload)
}

func (h *receiverHandler) HandleFrame(from Addr, f *protocol.Frame) {
	if h.fr != nil {
		h.fr.ReceiveFrame(endpoint.Addr(from), f)
		return
	}
	h.r.Receive(endpoint.Addr(from), f.Bytes())
}

// Bind implements endpoint.Transport: it registers (or rebinds) the host and
// forwards deliveries to r with the borrowed-payload contract unchanged.
func (e *Endpoint) Bind(r endpoint.Receiver) error {
	h := &receiverHandler{r: r}
	h.fr, _ = r.(endpoint.FrameReceiver)
	if !e.n.HasHost(e.addr) {
		return e.n.AddHost(e.addr, h)
	}
	return e.n.Bind(e.addr, h)
}

// Close implements endpoint.Transport by detaching the handler: subsequent
// deliveries to this host are counted and discarded by the network, and
// their frames are released by the delivery events as usual.
func (e *Endpoint) Close() error {
	if !e.n.HasHost(e.addr) {
		return nil
	}
	return e.n.Bind(e.addr, nil)
}
