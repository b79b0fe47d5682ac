package endpoint_test

import (
	"testing"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// fuzzSink consumes sends without keeping anything, releasing each frame.
type fuzzSink struct{ sent int }

func (s *fuzzSink) SendFrame(_ endpoint.Addr, f *protocol.Frame) error {
	f.Release()
	s.sent++
	return nil
}
func (s *fuzzSink) LocalAddr() endpoint.Addr       { return "fuzz" }
func (s *fuzzSink) Bind(r endpoint.Receiver) error { return nil }
func (s *fuzzSink) Close() error                   { return nil }

// FuzzDispatch feeds arbitrary frames through a fully-wired Dispatcher — the
// exact receive surface every node exposes to the network — and asserts no
// panic and zero frame leaks on any input: valid sync traffic (which mints
// ack frames), pings (pong frames), strays, and garbage all must leave the
// frame accounting balanced.
func FuzzDispatch(f *testing.F) {
	seeds := []protocol.Message{
		&protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{{Participant: 1}}},
		&protocol.Delta{BaseTick: 1, Tick: 2, Changed: []protocol.EntityState{{Participant: 1}}},
		&protocol.Ack{Participant: 3, Tick: 7},
		&protocol.Ping{Nonce: 42, SentAt: time.Second},
		&protocol.Pong{Nonce: 42, SentAt: time.Second},
		&protocol.PoseUpdate{Participant: 2, Seq: 1},
		&protocol.Leave{Participant: 2, Reason: "left"},
		// TCP-mesh handshake traffic: a Hello/HelloAck that leaks onto a
		// bound endpoint must route through the fallback/unhandled path
		// without panicking or leaking frames.
		&protocol.Hello{Participant: 5, Role: protocol.RoleLearner, Name: "edge-a"},
		&protocol.HelloAck{Participant: 5, TickRateHz: 30, ServerTick: 7},
	}
	for _, msg := range seeds {
		frame, err := protocol.AppendEncode(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0x4D, 0x43, 1, 0xFF})

	tr := &fuzzSink{}
	reg := metrics.NewRegistry("fuzz")
	rep := core.NewReplica(0, pose.Linear{})
	now := time.Duration(0)
	d, err := endpoint.NewDispatcher(tr, reg, endpoint.Config{
		Now: func() time.Duration { return now },
	})
	if err != nil {
		f.Fatal(err)
	}
	d.OnSync(func(from endpoint.Addr) *core.Replica {
		if from == "stranger" {
			return nil
		}
		return rep
	}, nil)
	d.OnAck(func(endpoint.Addr, *protocol.Ack) error { return nil })
	d.OnPose(func(endpoint.Addr, *protocol.PoseUpdate) {})

	f.Fuzz(func(t *testing.T, frame []byte) {
		now += time.Millisecond
		live0 := protocol.LiveFrames()
		d.Receive("peer", frame)
		d.Receive("stranger", frame)
		if live := protocol.LiveFrames(); live != live0 {
			t.Fatalf("dispatch of %d-byte frame leaked %d frames", len(frame), live-live0)
		}
	})
}
