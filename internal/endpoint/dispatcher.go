package endpoint

import (
	"time"

	"metaclass/internal/core"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// Config parameterizes a Dispatcher.
type Config struct {
	// Now is the node's clock, used to timestamp replica applies (required
	// when OnSync is registered; defaults to a zero clock).
	Now func() time.Duration
	// AckParticipant, when nonzero, stamps auto-acks with the node's own
	// participant ID (clients set it; servers ack anonymously).
	AckParticipant protocol.ParticipantID
	// CountRecv maintains the sync.msgs.recv counter per decoded message
	// (the cloud/edge server convention; relays and clients leave it off).
	CountRecv bool
	// AutoPong answers Ping frames with a Pong echoing nonce and send time
	// (server endpoints; clients count stray pings as unhandled instead).
	AutoPong bool
	// Pool is unused: the plan's frames are built and checksummed by the
	// replicator's pool (core.ReplConfig.Pool), and Fanout only sends. It
	// remains for callers in bench/, like ReleaseFrames.
	Pool *work.Pool
}

// Dispatcher is the shared receive/reply surface of every node: it owns the
// pooled protocol.Decoder, the tick's send walk, the ack/pong reply scratch,
// and the recv-side metric family — so the four node
// types carry no decode switch, no scratch duplication, and no drifting
// counter names of their own.
//
// Shared metric names:
//
//	recv.decode_errors   undecodable frames
//	recv.unknown_peer    sync/ack from an unknown source
//	recv.gaps            replica rejected the update
//	recv.unhandled       no handler for the message type
//	sync.msgs.recv       decoded messages (CountRecv)
//	encode.errors, sync.msgs.sent, sync.bytes.sent, send.errors   (Fanout)
//
// A Dispatcher is single-threaded, like the nodes it serves: Receive must be
// called from the goroutine that owns the node (the simulation goroutine, or
// the goroutine pumping a TCP endpoint).
type Dispatcher struct {
	tr      Transport
	batcher Batcher // tr's Batcher view, nil when the transport has none
	reg     *metrics.Registry
	cfg     Config

	dec         protocol.Decoder
	ackScratch  protocol.Ack
	pongScratch protocol.Pong
	// recvFrame is the refcounted frame backing the payload currently being
	// dispatched (nil for frameless receives). Forward retains it to push the
	// exact bytes onward without a copy.
	recvFrame *protocol.Frame

	mMsgsRecv     *metrics.Counter
	mDecodeErrors *metrics.Counter
	mUnknownPeer  *metrics.Counter
	mGaps         *metrics.Counter
	mUnhandled    *metrics.Counter
	mEncodeErrors *metrics.Counter
	mMsgsSent     *metrics.Counter
	mBytesSent    *metrics.Counter
	mSendErrors   *metrics.Counter

	replicaFor func(from Addr) *core.Replica
	onApplied  func(from Addr, ackTick uint64)
	onAck      func(from Addr, m *protocol.Ack) error
	onPose     func(from Addr, m *protocol.PoseUpdate)
	onExpr     func(from Addr, m *protocol.ExpressionUpdate)
	onPong     func(from Addr, m *protocol.Pong)
	fallback   func(from Addr, payload []byte, msg protocol.Message)
}

// NewDispatcher creates a dispatcher over tr, registers the shared metric
// family in reg, and binds itself as the transport's receiver.
func NewDispatcher(tr Transport, reg *metrics.Registry, cfg Config) (*Dispatcher, error) {
	if cfg.Now == nil {
		cfg.Now = func() time.Duration { return 0 }
	}
	d := &Dispatcher{tr: tr, reg: reg, cfg: cfg}
	d.batcher, _ = tr.(Batcher)
	d.mDecodeErrors = reg.Counter("recv.decode_errors")
	d.mUnknownPeer = reg.Counter("recv.unknown_peer")
	d.mGaps = reg.Counter("recv.gaps")
	d.mUnhandled = reg.Counter("recv.unhandled")
	if cfg.CountRecv {
		d.mMsgsRecv = reg.Counter("sync.msgs.recv")
	}
	d.mEncodeErrors = reg.Counter("encode.errors")
	d.mMsgsSent = reg.Counter("sync.msgs.sent")
	d.mBytesSent = reg.Counter("sync.bytes.sent")
	d.mSendErrors = reg.Counter("send.errors")
	if err := tr.Bind(d); err != nil {
		return nil, err
	}
	return d, nil
}

// OnSync registers the replication ingest path, shared by Snapshot and Delta
// frames (the OnSnapshot/OnDelta pair collapses into one hook because every
// node treats them identically). resolve maps a sender to the replica
// mirroring it; applied updates are auto-acked back to the sender and gaps
// count recv.gaps. A nil resolution routes to the fallback when one is
// registered (a relay forwards traffic it does not mirror) and counts
// recv.unknown_peer otherwise. applied, when non-nil, runs after a
// successful apply and before the ack (clients count recv.updates here).
func (d *Dispatcher) OnSync(resolve func(from Addr) *core.Replica, applied func(from Addr, ackTick uint64)) {
	d.replicaFor = resolve
	d.onApplied = applied
}

// OnAck registers the ack ingest hook; a non-nil error counts
// recv.unknown_peer (the replicator did not know the acking peer).
func (d *Dispatcher) OnAck(h func(from Addr, m *protocol.Ack) error) { d.onAck = h }

// OnPose registers the pose-stream ingest hook.
func (d *Dispatcher) OnPose(h func(from Addr, m *protocol.PoseUpdate)) { d.onPose = h }

// OnExpression registers the expression-stream ingest hook.
func (d *Dispatcher) OnExpression(h func(from Addr, m *protocol.ExpressionUpdate)) { d.onExpr = h }

// OnPong registers the pong (RTT probe reply) hook.
func (d *Dispatcher) OnPong(h func(from Addr, m *protocol.Pong)) { d.onPong = h }

// OnFallback registers the handler for messages no typed hook claims. The
// payload is borrowed for the duration of the call (forwarders must re-own
// it, e.g. via Forward). Without a fallback such messages count
// recv.unhandled.
func (d *Dispatcher) OnFallback(h func(from Addr, payload []byte, msg protocol.Message)) {
	d.fallback = h
}

// CountUnhandled records one unhandled message; fallback handlers call it
// for traffic they decline (keeping the shared counter authoritative).
func (d *Dispatcher) CountUnhandled() { d.mUnhandled.Inc() }

// ReceiveFrame implements FrameReceiver: the transport hands over the
// refcounted frame backing the payload, so a Forward issued from inside the
// dispatch retains the frame instead of copying its bytes. The frame is
// borrowed — the transport still releases its reference when this returns.
func (d *Dispatcher) ReceiveFrame(from Addr, f *protocol.Frame) {
	d.recvFrame = f
	d.Receive(from, f.Bytes())
	d.recvFrame = nil
}

// Receive implements Receiver: decode, count, route, and auto-reply.
func (d *Dispatcher) Receive(from Addr, payload []byte) {
	msg, _, err := d.dec.Decode(payload)
	if err != nil {
		d.mDecodeErrors.Inc()
		return
	}
	if d.mMsgsRecv != nil {
		d.mMsgsRecv.Inc()
	}
	switch m := msg.(type) {
	case *protocol.Snapshot, *protocol.Delta:
		if d.replicaFor == nil {
			d.unhandled(from, payload, msg)
			return
		}
		rep := d.replicaFor(from)
		if rep == nil {
			if d.fallback != nil {
				d.fallback(from, payload, msg)
				return
			}
			d.mUnknownPeer.Inc()
			return
		}
		ackTick, applied := rep.Apply(msg, d.cfg.Now())
		if !applied {
			d.mGaps.Inc()
			return
		}
		if d.onApplied != nil {
			d.onApplied(from, ackTick)
		}
		d.ackScratch = protocol.Ack{Participant: d.cfg.AckParticipant, Tick: ackTick}
		d.reply(from, &d.ackScratch)
	case *protocol.Ack:
		if d.onAck == nil {
			d.unhandled(from, payload, msg)
			return
		}
		if err := d.onAck(from, m); err != nil {
			d.mUnknownPeer.Inc()
		}
	case *protocol.PoseUpdate:
		if d.onPose == nil {
			d.unhandled(from, payload, msg)
			return
		}
		d.onPose(from, m)
	case *protocol.ExpressionUpdate:
		if d.onExpr == nil {
			d.unhandled(from, payload, msg)
			return
		}
		d.onExpr(from, m)
	case *protocol.Ping:
		if !d.cfg.AutoPong {
			d.unhandled(from, payload, msg)
			return
		}
		d.pongScratch = protocol.Pong{Nonce: m.Nonce, SentAt: m.SentAt}
		d.reply(from, &d.pongScratch)
	case *protocol.Pong:
		if d.onPong == nil {
			d.unhandled(from, payload, msg)
			return
		}
		d.onPong(from, m)
	default:
		d.unhandled(from, payload, msg)
	}
}

func (d *Dispatcher) unhandled(from Addr, payload []byte, msg protocol.Message) {
	if d.fallback != nil {
		d.fallback(from, payload, msg)
		return
	}
	d.mUnhandled.Inc()
}

// reply encodes a pooled auto-reply (ack, pong) and sends it; the transport
// consumes the frame's reference on every outcome.
func (d *Dispatcher) reply(to Addr, msg protocol.Message) {
	if frame, err := protocol.EncodeFrame(msg); err == nil {
		_ = d.tr.SendFrame(to, frame)
	}
}

// Fanout transmits one tick's replication plan, in plan order: each entry's
// frame, built and checksummed by PlanTick, has its one reference handed to
// the transport, which consumes it on delivery, loss, drop, or error. Call
// once per tick with the node's PlanTick result. Fanout encodes nothing; an
// entry without a frame (its message exceeded protocol.MaxPayload) counts
// encode.errors. Each entry is zeroed as it is taken and zero entries are
// skipped, so a plan fanned out twice is sent once. On a batching transport
// the whole plan is queued and flushed with one vectored write per touched
// connection — one flush per tick per conn — instead of one flush per send.
func (d *Dispatcher) Fanout(plan []core.PeerMessage) {
	if d.batcher != nil {
		d.batcher.BeginBatch()
	}
	for i := range plan {
		pm := plan[i]
		if pm == (core.PeerMessage{}) {
			continue // taken by an earlier Fanout
		}
		plan[i] = core.PeerMessage{}
		if pm.Msg == nil {
			d.mEncodeErrors.Inc()
			continue
		}
		d.mMsgsSent.Inc()
		d.mBytesSent.Add(uint64(pm.Msg.Len()))
		if err := d.tr.SendFrame(Addr(pm.Peer), pm.Msg); err != nil {
			d.mSendErrors.Inc()
		}
	}
	if d.batcher != nil {
		if err := d.batcher.FlushBatch(); err != nil {
			d.mSendErrors.Inc()
		}
	}
}

// ReleaseFrames does nothing: Fanout hands every frame's only reference to
// the transport, and a plan's untaken frames are the replicator's to release
// (core.Replicator.ReleasePlan). It remains for callers written against the
// earlier shared-frame fan-out.
func (d *Dispatcher) ReleaseFrames() {}

// Send encodes msg into a pooled frame and transmits it — the one-off path
// outside the tick fan-out (pose publishes, pings). The frame's reference is
// consumed on every outcome.
func (d *Dispatcher) Send(to Addr, msg protocol.Message) error {
	frame, err := protocol.EncodeFrame(msg)
	if err != nil {
		return err
	}
	return d.tr.SendFrame(to, frame)
}

// Forward pushes a borrowed payload onward (a relay sending client traffic
// upstream from inside a receive callback, where the borrow dies on return).
// When the payload is backed by the receive frame currently being dispatched
// — the common case on both netsim and TCP — the frame is retained and sent
// as-is: zero payload copies, with the transport consuming the forwarded
// reference as usual. Payloads from frameless receives fall back to
// re-owning the bytes in a pooled frame.
func (d *Dispatcher) Forward(to Addr, payload []byte) error {
	if f := d.recvFrame; f != nil {
		if b := f.Bytes(); len(payload) == len(b) && (len(b) == 0 || &payload[0] == &b[0]) {
			f.Retain()
			return d.tr.SendFrame(to, f)
		}
	}
	return d.tr.SendFrame(to, protocol.CopyFrame(payload))
}
