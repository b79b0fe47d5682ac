// Package endpoint is the transport-agnostic node API of the platform: one
// Transport abstraction for moving refcounted protocol frames between named
// endpoints, and one Dispatcher for receiving, routing, and answering them.
// The cloud, relay, edge, and client nodes are written once against this
// surface and run unchanged over the deterministic netsim fabric
// (netsim.Network.Endpoint) or real TCP sockets (transport.ListenEndpoint) —
// the paper's simulated multi-campus topologies and its real classroom over
// sockets are the same wiring with a different backend.
package endpoint

import "metaclass/internal/protocol"

// Addr names an endpoint. It is opaque to nodes — only the transport backing
// a deployment interprets it (a netsim host name, a TCP mesh peer) — and
// comparable, so nodes key their peer tables by it.
type Addr string

// Receiver consumes inbound messages from a transport. The payload bytes are
// borrowed for the duration of the call: transports recycle frame-backed
// payloads as soon as Receive returns, so an implementation that wants to
// keep bytes must copy them (e.g. into a protocol.CopyFrame).
type Receiver interface {
	Receive(from Addr, payload []byte)
}

// FrameReceiver is an optional Receiver extension for transports that hold
// inbound bytes in refcounted frames (netsim SendFrame deliveries, the TCP
// read path). The frame is borrowed exactly like a Receive payload — the
// transport releases its reference when the call returns — but the receiver
// may Retain it to keep or forward the bytes without a copy. This is the
// retainable receive-frame handle the relay's zero-copy upstream forward
// rides on.
type FrameReceiver interface {
	Receiver
	ReceiveFrame(from Addr, f *protocol.Frame)
}

// Batcher is an optional Transport extension for backends with a per-peer
// write queue (the TCP mesh). Between BeginBatch and FlushBatch, SendFrame
// queues frames instead of flushing each one to its socket; FlushBatch
// drains every touched connection with one vectored write each — one flush
// per tick per conn. Transports without the extension flush per send as
// before, and callers must tolerate both.
type Batcher interface {
	BeginBatch()
	FlushBatch() error
}

// Transport moves encoded protocol frames between endpoints.
//
// Frame ownership at this boundary follows one rule: SendFrame consumes
// exactly one of the caller's references on every outcome — delivered,
// dropped in transit, or refused with an error — so the caller never
// releases a frame it has handed to a transport, and never double-pays when
// a send fails. (PERFORMANCE.md "endpoint API" documents the full contract.)
type Transport interface {
	// SendFrame transmits f's bytes to the named endpoint, consuming one
	// reference.
	SendFrame(to Addr, f *protocol.Frame) error
	// LocalAddr returns this endpoint's own name.
	LocalAddr() Addr
	// Bind attaches the inbound receiver. Messages arriving before Bind are
	// transport-defined (netsim discards them; the TCP mesh queues them).
	Bind(r Receiver) error
	// Close detaches the endpoint from its fabric. In-flight frames are
	// released by the transport, never leaked.
	Close() error
}
