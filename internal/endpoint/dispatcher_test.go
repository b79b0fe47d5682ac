package endpoint_test

import (
	"errors"
	"testing"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// sinkTransport is an in-memory endpoint.Transport that records every sent
// message (decoded) and releases each frame, honoring the one-reference
// contract.
type sinkTransport struct {
	addr endpoint.Addr
	sent []protocol.Message
	to   []endpoint.Addr
	fail error // when set, SendFrame refuses (after releasing)
}

func (s *sinkTransport) SendFrame(to endpoint.Addr, f *protocol.Frame) error {
	defer f.Release()
	if s.fail != nil {
		return s.fail
	}
	if m, _, err := protocol.Decode(f.Bytes()); err == nil {
		s.sent = append(s.sent, m)
		s.to = append(s.to, to)
	}
	return nil
}

func (s *sinkTransport) LocalAddr() endpoint.Addr       { return s.addr }
func (s *sinkTransport) Bind(r endpoint.Receiver) error { return nil }
func (s *sinkTransport) Close() error                   { return nil }

func encodeMsg(t testing.TB, msg protocol.Message) []byte {
	t.Helper()
	b, err := protocol.AppendEncode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestDispatcher(t *testing.T, cfg endpoint.Config) (*endpoint.Dispatcher, *sinkTransport, *metrics.Registry) {
	t.Helper()
	tr := &sinkTransport{addr: "node"}
	reg := metrics.NewRegistry("node")
	d, err := endpoint.NewDispatcher(tr, reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, tr, reg
}

func TestDispatcherSyncAppliesAndAcks(t *testing.T) {
	now := 500 * time.Millisecond
	d, tr, reg := newTestDispatcher(t, endpoint.Config{
		Now:            func() time.Duration { return now },
		AckParticipant: 9,
	})
	rep := core.NewReplica(0, pose.Linear{})
	var appliedFrom endpoint.Addr
	d.OnSync(
		func(from endpoint.Addr) *core.Replica {
			if from == "peer" {
				return rep
			}
			return nil
		},
		func(from endpoint.Addr, _ uint64) { appliedFrom = from },
	)

	snap := &protocol.Snapshot{Tick: 4, Entities: []protocol.EntityState{{Participant: 1}}}
	d.Receive("peer", encodeMsg(t, snap))
	if appliedFrom != "peer" {
		t.Fatalf("applied hook from = %q", appliedFrom)
	}
	if len(tr.sent) != 1 {
		t.Fatalf("sent %d messages, want 1 ack", len(tr.sent))
	}
	ack, ok := tr.sent[0].(*protocol.Ack)
	if !ok || ack.Tick != 4 || ack.Participant != 9 || tr.to[0] != "peer" {
		t.Fatalf("auto-ack = %+v to %q", tr.sent[0], tr.to[0])
	}

	// Unknown source with no fallback counts recv.unknown_peer, no ack.
	d.Receive("stranger", encodeMsg(t, snap))
	if got := reg.Counter("recv.unknown_peer").Value(); got != 1 {
		t.Fatalf("recv.unknown_peer = %d", got)
	}
	// A stale delta (gap) counts recv.gaps and is not acked.
	gap := &protocol.Delta{BaseTick: 90, Tick: 91}
	d.Receive("peer", encodeMsg(t, gap))
	if got := reg.Counter("recv.gaps").Value(); got != 1 {
		t.Fatalf("recv.gaps = %d", got)
	}
	if len(tr.sent) != 1 {
		t.Fatalf("gap or unknown-peer sync was acked: %d sends", len(tr.sent))
	}
}

func TestDispatcherAutoPongAndTypedHooks(t *testing.T) {
	d, tr, reg := newTestDispatcher(t, endpoint.Config{})
	var ackErr error
	var poses int
	d.OnAck(func(endpoint.Addr, *protocol.Ack) error { return ackErr })
	d.OnPose(func(endpoint.Addr, *protocol.PoseUpdate) { poses++ })

	d.Receive("c", encodeMsg(t, &protocol.Ping{Nonce: 7, SentAt: time.Second}))
	if len(tr.sent) != 1 {
		t.Fatal("ping not answered")
	}
	pong, ok := tr.sent[0].(*protocol.Pong)
	if !ok || pong.Nonce != 7 || pong.SentAt != time.Second {
		t.Fatalf("auto-pong = %+v", tr.sent[0])
	}
	d.Receive("c", encodeMsg(t, &protocol.PoseUpdate{Participant: 1, Seq: 1}))
	d.Receive("c", encodeMsg(t, &protocol.PoseUpdate{Participant: 1, Seq: 2}))
	if poses != 2 {
		t.Fatalf("poses = %d, want 2", poses)
	}
	d.Receive("c", encodeMsg(t, &protocol.Ack{Tick: 3}))
	if got := reg.Counter("recv.unknown_peer").Value(); got != 0 {
		t.Fatalf("healthy ack counted unknown: %d", got)
	}
	ackErr = errors.New("who?")
	d.Receive("c", encodeMsg(t, &protocol.Ack{Tick: 4}))
	if got := reg.Counter("recv.unknown_peer").Value(); got != 1 {
		t.Fatalf("failed ack not counted: %d", got)
	}
	// Every decoded message counted.
	if got := reg.Counter("sync.msgs.recv").Value(); got != 5 {
		t.Fatalf("sync.msgs.recv = %d, want 5", got)
	}
	// Garbage counts a decode error.
	d.Receive("c", []byte{0xde, 0xad, 0xbe, 0xef})
	if reg.Counter("recv.decode_errors").Value() != 1 {
		t.Fatal("decode error not counted")
	}
}

func TestDispatcherUnhandledAndFallback(t *testing.T) {
	d, _, reg := newTestDispatcher(t, endpoint.Config{})
	d.Receive("c", encodeMsg(t, &protocol.Leave{Participant: 1, Reason: "left"}))
	if got := reg.Counter("recv.unhandled").Value(); got != 1 {
		t.Fatalf("recv.unhandled = %d, want 1", got)
	}

	// With a fallback, unclaimed traffic routes there instead.
	d2, _, reg2 := newTestDispatcher(t, endpoint.Config{})
	var fell []protocol.MsgType
	d2.OnFallback(func(_ endpoint.Addr, _ []byte, msg protocol.Message) {
		fell = append(fell, msg.Type())
	})
	d2.OnSync(func(endpoint.Addr) *core.Replica { return nil }, nil)
	d2.Receive("c", encodeMsg(t, &protocol.PoseUpdate{Participant: 2, Seq: 1}))
	d2.Receive("c", encodeMsg(t, &protocol.Snapshot{Tick: 1}))
	if len(fell) != 2 || fell[0] != protocol.TypePoseUpdate || fell[1] != protocol.TypeSnapshot {
		t.Fatalf("fallback saw %v", fell)
	}
	if reg2.Counter("recv.unhandled").Value() != 0 || reg2.Counter("recv.unknown_peer").Value() != 0 {
		t.Fatal("fallback-routed traffic was also counted")
	}
}

func TestDispatcherSendConsumesFrameOnFailure(t *testing.T) {
	live0 := protocol.LiveFrames()
	tr := &sinkTransport{addr: "node", fail: errors.New("down")}
	d, err := endpoint.NewDispatcher(tr, metrics.NewRegistry("node"), endpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Send("peer", &protocol.Ping{Nonce: 1}); err == nil {
		t.Fatal("send error swallowed")
	}
	if err := d.Forward("peer", []byte{1, 2, 3}); err == nil {
		t.Fatal("forward error swallowed")
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked on refused sends", live-live0)
	}
}
