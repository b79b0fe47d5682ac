package endpoint_test

import (
	"testing"

	"metaclass/internal/endpoint"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
)

// frameRecorder is a Transport that keeps the exact *Frame pointers it is
// handed (retaining its own reference per the SendFrame contract), so tests
// can assert pointer identity across a forward.
type frameRecorder struct {
	addr   endpoint.Addr
	frames []*protocol.Frame
	to     []endpoint.Addr
}

func (r *frameRecorder) SendFrame(to endpoint.Addr, f *protocol.Frame) error {
	// Keep the caller's reference; the test releases it.
	r.frames = append(r.frames, f)
	r.to = append(r.to, to)
	return nil
}
func (r *frameRecorder) LocalAddr() endpoint.Addr       { return r.addr }
func (r *frameRecorder) Bind(_ endpoint.Receiver) error { return nil }
func (r *frameRecorder) Close() error                   { return nil }

// TestForwardZeroCopyRetainsReceiveFrame pins the relay's hot-spot fix: a
// Forward issued while dispatching a frame-backed receive must send the
// *same* pooled frame — retained, byte-for-byte, no copy — and the
// accounting must balance once the forwarded reference is released.
func TestForwardZeroCopyRetainsReceiveFrame(t *testing.T) {
	live0 := protocol.LiveFrames()
	tr := &frameRecorder{addr: "relay"}
	d, err := endpoint.NewDispatcher(tr, metrics.NewRegistry("relay"), endpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.OnFallback(func(_ endpoint.Addr, payload []byte, _ protocol.Message) {
		if err := d.Forward("cloud", payload); err != nil {
			t.Fatal(err)
		}
	})

	in, err := protocol.EncodeFrame(&protocol.PoseUpdate{Participant: 9, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	acq0, _ := protocol.FrameAccounting()
	d.ReceiveFrame("client", in) // transport would release its ref after this
	acq1, _ := protocol.FrameAccounting()
	if acq1 != acq0 {
		t.Fatalf("forward acquired %d new frames, want 0 (zero-copy)", acq1-acq0)
	}
	if len(tr.frames) != 1 || tr.to[0] != "cloud" {
		t.Fatalf("forwarded %d frames to %v", len(tr.frames), tr.to)
	}
	if tr.frames[0] != in {
		t.Fatal("forward sent a different frame than the received one (copied)")
	}
	if got := in.Refs(); got != 2 {
		t.Fatalf("frame refs = %d, want 2 (receive + forwarded)", got)
	}
	tr.frames[0].Release() // the transport's forwarded reference
	in.Release()           // the receive reference
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across the zero-copy forward", live-live0)
	}

	// A frameless receive still forwards correctly, by re-owning the bytes.
	raw, err := protocol.AppendEncode(nil, &protocol.PoseUpdate{Participant: 9, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Receive("client", raw)
	if len(tr.frames) != 2 {
		t.Fatalf("frameless forward did not send (got %d sends)", len(tr.frames))
	}
	if string(tr.frames[1].Bytes()) != string(raw) {
		t.Fatal("frameless forward corrupted the payload")
	}
	tr.frames[1].Release()
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across the copying forward", live-live0)
	}
}
