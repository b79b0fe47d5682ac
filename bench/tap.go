package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/protocol"
)

// spanKind names a layer boundary. The benchmark records spans only from its
// own files, around the calls into each layer: the driver's step, the
// Receiver of every node, the backing transport's SendFrame and FlushBatch,
// and the lock-step wait of the TCP workload.
type spanKind uint8

const (
	spanStep spanKind = iota
	spanRecvClient
	spanRecvServer
	spanSend
	spanFlush
	spanSettle
	spanKinds
)

var spanNames = [spanKinds]string{"step", "endpoint.recv_client", "endpoint.recv_server", "transport.send", "transport.flush", "transport.settle_wait"}

// span is one boundary crossing as written to the trace file. Times are
// nanoseconds since the tracer's epoch; Parent indexes the enclosing span in
// the same file (-1 for a step).
type span struct {
	Name   string `json:"name"`
	Node   string `json:"node"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

type openSpan struct {
	kind  spanKind
	node  string
	start time.Time
	child time.Duration
	index int // slot in tracer.spans, -1 when the span is not retained
}

// traceKeepSteps bounds the spans retained for the trace file; self times and
// counts are aggregated over every traced step.
const traceKeepSteps = 32

// tracer records spans on the driver goroutine. Every traced call nests
// inside the step that caused it, so a stack gives each span its parent and
// lets self time (duration minus children) accumulate as spans close.
type tracer struct {
	on    bool
	epoch time.Time
	step  int
	kept  int // traced steps whose spans were retained
	stack []openSpan
	spans []span

	selfNs [spanKinds]time.Duration
}

func (t *tracer) begin(kind spanKind, node string) {
	if !t.on {
		return
	}
	o := openSpan{kind: kind, node: node, index: -1}
	if t.kept <= traceKeepSteps {
		o.index = len(t.spans)
		t.spans = append(t.spans, span{})
	}
	o.start = time.Now()
	t.stack = append(t.stack, o)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	now := time.Now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now.Sub(o.start)
	t.selfNs[o.kind] += d - o.child
	parent := -1
	if n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].index
	}
	if o.index >= 0 {
		t.spans[o.index] = span{
			Name: spanNames[o.kind], Node: o.node, Step: t.step,
			Start: o.start.Sub(t.epoch).Nanoseconds(), End: now.Sub(t.epoch).Nanoseconds(),
			Parent: parent,
		}
	}
}

// write stores the retained spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// receiverState is what the benchmark remembers about one receiver so that
// captured frames can be turned into pose ages after the timed region: the
// newest capture stamp seen per entity (an update is fresh when it carries a
// newer stamp than any before it), and the session — or, where sessions are
// entities, the per-entity sessions — whose first sync this receiver decides.
type receiverState struct {
	lastSeen map[protocol.ParticipantID]time.Duration
	sess     *session
	entities map[protocol.ParticipantID]*session
	// onMsg, when set, sees every decoded replication message (the direct
	// workload's learners apply it to their shadow stores).
	onMsg func(protocol.Message)
}

func newReceiverState() *receiverState {
	return &receiverState{lastSeen: make(map[protocol.ParticipantID]time.Duration)}
}

// capture is one replication frame held past the receive call (with its own
// reference) for decoding outside the timed region.
type capture struct {
	f   *protocol.Frame
	now time.Duration
	rs  *receiverState
}

// tap decorates one node's endpoint.Transport and, through Bind, its
// Receiver. It never touches frame references on the send path — the backing
// transport still consumes exactly one on every outcome — and it forwards
// every call unchanged, so tracing may cost time but never changes work.
type tap struct {
	inner   endpoint.Transport
	col     *collector
	node    string
	client  bool           // receive spans are recv_client, not recv_server
	serving bool           // sends count towards wire_bytes_per_update
	state   *receiverState // nil: received updates are not sampled
	bound   tapReceiver

	syncRecv, otherRecv uint64 // received frames, by replication vs the rest
}

// batchTap is a tap over a transport with a write queue: it forwards the
// Batcher extension too, so the dispatcher keeps its one-flush-per-tick path.
type batchTap struct {
	*tap
	batcher endpoint.Batcher
}

// wrap decorates tr. The result implements endpoint.Batcher exactly when tr
// does.
func (c *collector) wrap(tr endpoint.Transport, client, serving bool, state *receiverState) endpoint.Transport {
	t := &tap{inner: tr, col: c, node: string(tr.LocalAddr()), client: client, serving: serving, state: state}
	if b, ok := tr.(endpoint.Batcher); ok {
		return &batchTap{tap: t, batcher: b}
	}
	return t
}

// tapOf returns the tap behind a transport that wrap returned.
func tapOf(tr endpoint.Transport) *tap {
	if b, ok := tr.(*batchTap); ok {
		return b.tap
	}
	return tr.(*tap)
}

// msgType reads a frame's type from its header (magic, version, type).
func msgType(b []byte) protocol.MsgType {
	if len(b) < 4 {
		return 0
	}
	return protocol.MsgType(b[3])
}

// isSync reports whether a frame carries replication (a snapshot or a delta).
func isSync(b []byte) bool {
	t := msgType(b)
	return t == protocol.TypeSnapshot || t == protocol.TypeDelta
}

func (t *tap) SendFrame(to endpoint.Addr, f *protocol.Frame) error {
	c := t.col
	b := f.Bytes()
	c.framesSent++
	c.bytesSent += uint64(len(b))
	if t.serving {
		c.servedBytes += uint64(len(b))
	}
	switch msgType(b) {
	case protocol.TypeSnapshot:
		c.snapshotsSent++
	case protocol.TypeDelta:
		c.deltasSent++
	}
	if c.layers {
		c.distinct[f] = struct{}{}
		if len(c.ring) < frameRingSize && isSync(b) {
			c.ring = append(c.ring, append([]byte(nil), b...))
		}
	}
	c.tr.begin(spanSend, t.node)
	err := t.inner.SendFrame(to, f)
	c.tr.end()
	if c.transit != nil && c.tr.on {
		k := [2]endpoint.Addr{endpoint.Addr(t.node), to}
		c.transit[k] = append(c.transit[k], time.Now())
	}
	return err
}

func (t *tap) LocalAddr() endpoint.Addr { return t.inner.LocalAddr() }

func (t *tap) Bind(r endpoint.Receiver) error {
	t.bound = tapReceiver{t: t, r: r}
	t.bound.fr, _ = r.(endpoint.FrameReceiver)
	return t.inner.Bind(&t.bound)
}

func (t *tap) Close() error { return t.inner.Close() }

func (b *batchTap) BeginBatch() { b.batcher.BeginBatch() }

func (b *batchTap) FlushBatch() error {
	b.col.tr.begin(spanFlush, b.node)
	err := b.batcher.FlushBatch()
	b.col.tr.end()
	return err
}

// tapReceiver is the Receiver a tap binds in place of the node's own. It
// always offers the FrameReceiver view and falls back to the borrowed-bytes
// call when the node's receiver has none, exactly as the transports do.
type tapReceiver struct {
	t  *tap
	r  endpoint.Receiver
	fr endpoint.FrameReceiver
}

func (r *tapReceiver) Receive(from endpoint.Addr, payload []byte) {
	r.note(from, payload)
	r.t.col.tr.begin(r.kind(), r.t.node)
	r.r.Receive(from, payload)
	r.t.col.tr.end()
}

func (r *tapReceiver) ReceiveFrame(from endpoint.Addr, f *protocol.Frame) {
	b := f.Bytes()
	if r.note(from, b) && r.t.state != nil {
		f.Retain()
		c := r.t.col
		c.captured = append(c.captured, capture{f: f, now: c.now(), rs: r.t.state})
	}
	r.t.col.tr.begin(r.kind(), r.t.node)
	if r.fr != nil {
		r.fr.ReceiveFrame(from, f)
	} else {
		r.r.Receive(from, b)
	}
	r.t.col.tr.end()
}

func (r *tapReceiver) kind() spanKind {
	if r.t.client {
		return spanRecvClient
	}
	return spanRecvServer
}

// note counts one inbound frame and reports whether it carries replication.
func (r *tapReceiver) note(from endpoint.Addr, b []byte) bool {
	t := r.t
	c := t.col
	c.msgsRecv++
	if c.transit != nil && c.tr.on {
		k := [2]endpoint.Addr{from, endpoint.Addr(t.node)}
		if q := c.transit[k]; len(q) > 0 {
			c.transitNs = append(c.transitNs, float64(time.Since(q[0]).Nanoseconds()))
			c.transit[k] = q[1:]
		}
	}
	if isSync(b) {
		t.syncRecv++
		return true
	}
	t.otherRecv++
	return false
}
