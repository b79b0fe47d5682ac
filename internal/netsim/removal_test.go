package netsim

import (
	"errors"
	"testing"
	"time"

	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// TestCloseMidFlightNeverAdvance: the harness shutdown pattern the old Close
// leaked under — close the network with deliveries in flight and never pump
// the simulation again. Close must eagerly cancel and release everything.
func TestCloseMidFlightNeverAdvance(t *testing.T) {
	live0 := protocol.LiveFrames()
	_, n, delivered := leakNet(t, LinkConfig{Latency: 10 * time.Millisecond})
	sendFrames(t, n, 40)
	if tb := n.Tables(); tb.Inflight != 40 {
		t.Fatalf("inflight = %d before close, want 40", tb.Inflight)
	}
	n.Close()
	// Deliberately no sim.Run: the release must have happened at Close.
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked after close without advancing the sim", live-live0)
	}
	if *delivered != 0 {
		t.Fatalf("closed network delivered %d messages", *delivered)
	}
	tb := n.Tables()
	if tb.Inflight != 0 {
		t.Fatalf("inflight = %d after close, want 0", tb.Inflight)
	}
	if tb.PooledDeliveries != tb.DeliveriesAllocated {
		t.Fatalf("pool holds %d of %d allocated deliveries; rest are captive",
			tb.PooledDeliveries, tb.DeliveriesAllocated)
	}
}

// TestSendToRemovedHost: Send/SendFrame to a removed destination fail with
// ErrUnknownHost and consume exactly one caller reference.
func TestSendToRemovedHost(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, n, _ := leakNet(t, LinkConfig{Latency: time.Millisecond})
	if err := n.RemoveHost("b"); err != nil {
		t.Fatal(err)
	}
	f, err := protocol.EncodeFrame(&protocol.Ping{Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SendFrame("a", "b", f); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("SendFrame to removed host: %v, want ErrUnknownHost", err)
	}
	if err := n.SendFrame("a", "b", protocol.CopyFrame([]byte{1})); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("Send to removed host: %v, want ErrUnknownHost", err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked sending to removed host", live-live0)
	}
}

// TestRemoveHostCancelsInFlight: deliveries in flight *to* a removed host
// are cancelled at removal — frame released once, stale handler never
// invoked, even if the same address is re-registered with a new handler
// before the old due times pass.
func TestRemoveHostCancelsInFlight(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, n, delivered := leakNet(t, LinkConfig{Latency: 10 * time.Millisecond})
	sendFrames(t, n, 20)
	if err := n.RemoveHost("b"); err != nil {
		t.Fatal(err)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames still live right after RemoveHost", live-live0)
	}
	// Re-register the address before the cancelled deliveries' due times:
	// none of them may reach the new incarnation.
	ghosted := 0
	if err := n.AddHost("b", HandlerFunc(func(Addr, []byte) { ghosted++ })); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if *delivered != 0 || ghosted != 0 {
		t.Fatalf("removed host received traffic: old handler %d, new handler %d", *delivered, ghosted)
	}
}

// TestRemovedHostAccessorsError: SetLink/LinkConfigOf/StatsOf involving a
// removed host error cleanly instead of resurrecting state.
func TestRemovedHostAccessorsError(t *testing.T) {
	_, n, _ := leakNet(t, LinkConfig{Latency: time.Millisecond})
	if err := n.RemoveHost("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLink("b", "a", LinkConfig{}); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("SetLink from removed host: %v", err)
	}
	// The a->b link was deleted with b, so access from the surviving side
	// reports no route rather than finding a ghost link.
	if err := n.SetLink("a", "b", LinkConfig{}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("SetLink to removed host: %v", err)
	}
	if _, err := n.LinkConfigOf("a", "b"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("LinkConfigOf to removed host: %v", err)
	}
	if _, err := n.StatsOf("b", "a"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("StatsOf from removed host: %v", err)
	}
	if err := n.RemoveHost("b"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("double RemoveHost: %v", err)
	}
}

// TestRemoveThenReAdd: the address is reusable after removal, with no ghost
// links — the re-added host starts fully disconnected and can be rewired.
func TestRemoveThenReAdd(t *testing.T) {
	sim, n, _ := leakNet(t, LinkConfig{Latency: time.Millisecond})
	base := n.Tables()
	if err := n.RemoveHost("b"); err != nil {
		t.Fatal(err)
	}
	if tb := n.Tables(); tb.Hosts != base.Hosts-1 || tb.Links != 0 {
		t.Fatalf("after removal: %d hosts, %d links; want %d hosts, 0 links",
			tb.Hosts, tb.Links, base.Hosts-1)
	}
	got := 0
	if err := n.AddHost("b", HandlerFunc(func(Addr, []byte) { got++ })); err != nil {
		t.Fatal(err)
	}
	// No ghost link: the old a->b path is gone until reconnected.
	if err := n.SendFrame("a", "b", protocol.CopyFrame([]byte{1})); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("send over ghost link: %v, want ErrNoRoute", err)
	}
	if err := n.Connect("a", "b", LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.SendFrame("a", "b", protocol.CopyFrame([]byte{1})); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("re-added host received %d messages, want 1", got)
	}
	if tb := n.Tables(); tb.Hosts != base.Hosts || tb.Links != base.Links {
		t.Fatalf("after re-add: %d hosts %d links, want baseline %d/%d",
			tb.Hosts, tb.Links, base.Hosts, base.Links)
	}
}

// TestRemoveHostKeepsOutboundInFlight: traffic a host already put on the
// wire toward live destinations still arrives after the sender is removed —
// only deliveries *to* the removed host are cancelled.
func TestRemoveHostKeepsOutboundInFlight(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim := vclock.New(2)
	n := New(sim)
	got := 0
	if err := n.AddHost("learner", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddHost("cloud", HandlerFunc(func(Addr, []byte) { got++ })); err != nil {
		t.Fatal(err)
	}
	if err := n.ConnectBoth("learner", "cloud", LinkConfig{Latency: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f, err := protocol.EncodeFrame(&protocol.Ping{Nonce: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SendFrame("learner", "cloud", f); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.RemoveHost("learner"); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("cloud received %d of 5 in-flight messages from removed sender", got)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}

// TestDisconnectCancelsLinkInFlight: Disconnect reclaims one direction only,
// cancelling exactly that link's in-flight deliveries.
func TestDisconnectCancelsLinkInFlight(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim := vclock.New(2)
	n := New(sim)
	fromA, fromB := 0, 0
	_ = n.AddHost("a", HandlerFunc(func(Addr, []byte) { fromB++ }))
	_ = n.AddHost("b", HandlerFunc(func(Addr, []byte) { fromA++ }))
	if err := n.ConnectBoth("a", "b", LinkConfig{Latency: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fa, err := protocol.EncodeFrame(&protocol.Ping{Nonce: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SendFrame("a", "b", fa); err != nil {
			t.Fatal(err)
		}
		fb, err := protocol.EncodeFrame(&protocol.Ping{Nonce: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SendFrame("b", "a", fb); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Disconnect("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Disconnect("a", "b"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("double Disconnect: %v", err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fromA != 0 {
		t.Fatalf("disconnected a->b link delivered %d messages", fromA)
	}
	if fromB != 3 {
		t.Fatalf("surviving b->a link delivered %d of 3", fromB)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across Disconnect", live-live0)
	}
}

// TestStatsSurviveRemoval: aggregate Stats stay monotonic when links are
// retired by RemoveHost — history is folded in, not dropped with the table
// entries.
func TestStatsSurviveRemoval(t *testing.T) {
	sim, n, delivered := leakNet(t, LinkConfig{Latency: time.Millisecond})
	sendFrames(t, n, 10)
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	before := n.Stats()
	if *delivered != 10 || before.SentBytes == 0 {
		t.Fatalf("setup: delivered %d, sent %d bytes", *delivered, before.SentBytes)
	}
	if err := n.RemoveHost("b"); err != nil {
		t.Fatal(err)
	}
	after := n.Stats()
	if after.SentBytes != before.SentBytes || after.Dropped != before.Dropped || after.Delivered != before.Delivered {
		t.Fatalf("Stats regressed across removal: before %+v, after %+v", before, after)
	}
}
