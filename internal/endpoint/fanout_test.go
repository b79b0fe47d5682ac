package endpoint_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

func fanoutEntity(id protocol.ParticipantID, x float64) protocol.EntityState {
	return protocol.EntityState{
		Participant: id,
		Pose:        protocol.QuantizePose(mathx.V3(x, 0, 0), mathx.QuatIdentity()),
	}
}

// TestFrameCacheRefcountsMatchRecipients is the fan-out frame ownership
// property test: for random store churn, peer populations (filtered and
// unfiltered), and ack patterns (one peer acking so rarely that it falls past
// the delta window into keyframes), every frame Fanout hands a recording
// transport is its own frame holding exactly one reference — the
// transport's — with the plan entry's bytes, and once the transport releases
// them no frame is live.
func TestFrameCacheRefcountsMatchRecipients(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	live0 := protocol.LiveFrames()

	s := core.NewStore()
	repl := core.NewReplicator(s, core.ReplConfig{})
	tr := &frameRecorder{addr: "node"}
	d, err := endpoint.NewDispatcher(tr, metrics.NewRegistry("node"), endpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nPeers := 0
	addPeer := func() {
		id := fmt.Sprintf("peer-%03d", nPeers)
		var filter core.FilterFunc
		if nPeers%3 == 0 { // every third peer is interest-filtered
			filter = func(eid protocol.ParticipantID, _ uint64) bool { return eid%2 == 0 }
		}
		if err := repl.AddPeer(id, filter); err != nil {
			t.Fatal(err)
		}
		nPeers++
	}
	for i := 0; i < 8; i++ {
		addPeer()
	}

	const slowPeer = "peer-001" // acks once every 200 ticks
	var peerScratch []string
	sent, keyframes := 0, 0
	for tick := 0; tick < 420; tick++ {
		s.BeginTick()
		for i := 0; i < 4; i++ {
			id := protocol.ParticipantID(rng.Intn(40) + 1)
			if rng.Float64() < 0.1 {
				s.Remove(id)
			} else {
				s.Upsert(fanoutEntity(id, rng.Float64()*10))
			}
		}
		if tick%17 == 0 {
			addPeer()
		}

		acked := map[string]bool{}
		for _, id := range repl.PeersAppend(peerScratch[:0]) {
			st, _ := repl.StatsOf(id)
			acked[id] = st.Acked
		}
		plan := repl.PlanTick()
		// What each entry must carry: its message, decoded and encoded again.
		peers, wants := make([]string, len(plan)), make([][]byte, len(plan))
		for i, pm := range plan {
			msg, _, err := protocol.Decode(pm.Msg.Bytes())
			if err != nil {
				t.Fatalf("tick %d: planned frame to %s does not decode: %v", tick, pm.Peer, err)
			}
			if msg.Type() == protocol.TypeSnapshot && acked[pm.Peer] {
				keyframes++ // an acked peer gets a snapshot only past the delta window
			}
			peers[i], wants[i] = pm.Peer, encodeMsg(t, msg)
		}
		tr.frames, tr.to = tr.frames[:0], tr.to[:0]
		d.Fanout(plan)
		if len(tr.frames) != len(plan) {
			t.Fatalf("tick %d: transport got %d frames for %d plan entries", tick, len(tr.frames), len(plan))
		}
		seen := map[*protocol.Frame]bool{}
		for i, f := range tr.frames {
			if seen[f] {
				t.Fatalf("tick %d: one frame handed to two recipients", tick)
			}
			seen[f] = true
			if got := f.Refs(); got != 1 {
				t.Fatalf("tick %d: frame to %s holds %d references, want 1", tick, tr.to[i], got)
			}
			if tr.to[i] != endpoint.Addr(peers[i]) || !bytes.Equal(f.Bytes(), wants[i]) {
				t.Fatalf("tick %d: entry %d to %s does not carry %s's message", tick, i, tr.to[i], peers[i])
			}
		}
		// Consume the transport's references, as delivery would.
		for _, f := range tr.frames {
			f.Release()
		}
		sent += len(plan)
		// Random subset of peers ack, creating mixed baselines next tick.
		peerScratch = repl.PeersAppend(peerScratch[:0])
		for _, id := range peerScratch {
			if id == slowPeer {
				if tick%200 == 0 {
					_ = repl.Ack(id, s.Tick())
				}
			} else if rng.Float64() < 0.6 {
				_ = repl.Ack(id, s.Tick())
			}
		}
	}
	if sent == 0 {
		t.Fatal("test drove no fan-out")
	}
	if keyframes == 0 {
		t.Fatal("no acked peer fell past the delta window")
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across random plans", live-live0)
	}
}

// TestParallelEncodeFailureLeaksNoFrames plans at widths 1 and 4 a tick where
// one peer's payload exceeds protocol.MaxPayload, and fans it out: that entry
// must count one encode error and send nothing, the healthy entries must
// still go out, and no pooled frame may leak.
func TestParallelEncodeFailureLeaksNoFrames(t *testing.T) {
	for _, workers := range []int{1, 4} {
		live0 := protocol.LiveFrames()
		pool := work.New(workers)
		s := core.NewStore()
		r := core.NewReplicator(s, core.ReplConfig{Pool: pool})
		// Peer "big" is filtered onto the oversized entity only, so its
		// message fails to encode while the others succeed.
		onlyBig := func(id protocol.ParticipantID, _ uint64) bool { return id == 999 }
		notBig := func(id protocol.ParticipantID, _ uint64) bool { return id != 999 }
		if err := r.AddPeer("big", onlyBig); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b", "c"} {
			if err := r.AddPeer(id, notBig); err != nil {
				t.Fatal(err)
			}
		}

		s.BeginTick()
		s.Upsert(fanoutEntity(1, 0))
		huge := fanoutEntity(999, 1)
		huge.Expression = make([]byte, protocol.MaxPayload+1)
		s.Upsert(huge)

		plan := r.PlanTick()
		if len(plan) != 4 {
			t.Fatalf("workers=%d: planned %d messages, want 4", workers, len(plan))
		}
		tr := &frameRecorder{addr: "node"}
		reg := metrics.NewRegistry("node")
		d, err := endpoint.NewDispatcher(tr, reg, endpoint.Config{Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		d.Fanout(plan)
		if got := reg.Counter("encode.errors").Value(); got != 1 {
			t.Fatalf("workers=%d: encode.errors = %d, want 1", workers, got)
		}
		if len(tr.frames) != 3 {
			t.Fatalf("workers=%d: sent %d frames, want 3", workers, len(tr.frames))
		}
		for i, f := range tr.frames {
			if tr.to[i] == "big" {
				t.Fatalf("workers=%d: oversized message was sent", workers)
			}
			f.Release() // the transport's reference
		}
		pool.Close()
		if live := protocol.LiveFrames(); live != live0 {
			t.Fatalf("workers=%d: %d frames leaked across a failed parallel encode", workers, live-live0)
		}
	}
}

// TestParallelFanoutFramesMatchLazy plans the same tick at width 4 and at
// width 1 (inline on the caller), where the frames are built and
// checksummed, fans each plan out, and checks the transport receives
// identical wire bytes, frame for frame, in the same order.
func TestParallelFanoutFramesMatchLazy(t *testing.T) {
	live0 := protocol.LiveFrames()
	evens := func(id protocol.ParticipantID, _ uint64) bool { return id%2 == 0 }
	fanout := func(workers int) *frameRecorder {
		pool := work.New(workers)
		defer pool.Close()
		s := core.NewStore()
		r := core.NewReplicator(s, core.ReplConfig{Pool: pool})
		for i := 0; i < 6; i++ {
			var f core.FilterFunc
			if i%3 == 0 {
				f = evens
			}
			if err := r.AddPeer(fmt.Sprintf("peer-%d", i), f); err != nil {
				t.Fatal(err)
			}
		}
		s.BeginTick()
		for i := 1; i <= 9; i++ {
			s.Upsert(fanoutEntity(protocol.ParticipantID(i), float64(i)))
		}
		tr := &frameRecorder{addr: "node"}
		d, err := endpoint.NewDispatcher(tr, metrics.NewRegistry("node"), endpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		d.Fanout(r.PlanTick())
		return tr
	}
	wide, inline := fanout(4), fanout(1)
	if len(wide.frames) != 6 || len(inline.frames) != 6 {
		t.Fatalf("sent %d (width 4) and %d (width 1) frames, want one per peer", len(wide.frames), len(inline.frames))
	}
	for i := range wide.frames {
		if wide.to[i] != inline.to[i] || !bytes.Equal(wide.frames[i].Bytes(), inline.frames[i].Bytes()) {
			t.Fatalf("width-4 frame %d to %s differs from the width-1 fan-out", i, wide.to[i])
		}
		wide.frames[i].Release()
		inline.frames[i].Release()
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}
