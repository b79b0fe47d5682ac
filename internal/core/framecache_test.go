package core

import (
	"fmt"
	"math/rand"
	"testing"

	"metaclass/internal/protocol"
)

// TestFrameCacheRefcountsMatchRecipients is the cohort fan-out refcount
// property test: for random store churn, peer populations (filtered and
// unfiltered), and ack patterns, after materializing a PlanTick result
// through the cache every distinct cohort frame's refcount must be exactly
// 1 (the cache's base reference) + its recipient count, and releasing the
// recipient references plus Reset must leave zero live frames.
func TestFrameCacheRefcountsMatchRecipients(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	live0 := protocol.LiveFrames()

	s := NewStore()
	repl := NewReplicator(s, ReplConfig{MaxDeltaWindow: 20, SnapshotEvery: 37})
	nPeers := 0
	addPeer := func() {
		id := fmt.Sprintf("peer-%03d", nPeers)
		var filter FilterFunc
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

	var cache FrameCache
	var peerScratch []string
	for tick := 0; tick < 120; tick++ {
		s.BeginTick()
		for i := 0; i < 4; i++ {
			id := protocol.ParticipantID(rng.Intn(40) + 1)
			if rng.Float64() < 0.1 {
				s.Remove(id)
			} else {
				s.Upsert(ent(id, rng.Float64()*10))
			}
		}
		if tick%17 == 0 {
			addPeer()
		}

		plan := repl.PlanTick()
		cache.EncodePlan(plan, nil)
		recipients := map[*protocol.Frame]int{}
		var order []*protocol.Frame
		for _, pm := range plan {
			f := cache.FrameFor(pm)
			if f == nil {
				t.Fatalf("tick %d: encode failed for cohort %d", tick, pm.Cohort)
			}
			if recipients[f] == 0 {
				order = append(order, f)
			}
			recipients[f]++
		}
		for _, f := range order {
			if got, want := f.Refs(), int32(recipients[f]+1); got != want {
				t.Fatalf("tick %d: cohort frame refs = %d, want %d (recipients %d + cache base)",
					tick, got, want, recipients[f])
			}
		}
		// Consume the recipient references (what SendFrame would do).
		for _, f := range order {
			for i := 0; i < recipients[f]; i++ {
				f.Release()
			}
		}
		// Random subset of peers ack, creating mixed baselines next tick.
		peerScratch = repl.PeersAppend(peerScratch[:0])
		for _, id := range peerScratch {
			if rng.Float64() < 0.6 {
				_ = repl.Ack(id, s.Tick())
			}
		}
	}
	cache.Reset()
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across random plans", live-live0)
	}
}

// TestFrameCacheEncodeOncePerCohort: cohort mates must receive the very
// same frame value, encoded exactly once.
func TestFrameCacheEncodeOncePerCohort(t *testing.T) {
	live0 := protocol.LiveFrames()
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	for _, id := range []string{"a", "b", "c"} {
		if err := r.AddPeer(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.BeginTick()
	s.Upsert(ent(1, 0))
	plan := r.PlanTick()
	if len(plan) != 3 {
		t.Fatalf("planned %d, want 3", len(plan))
	}
	acq0, _ := protocol.FrameAccounting()
	var cache FrameCache
	cache.EncodePlan(plan, nil)
	f0 := cache.FrameFor(plan[0])
	f1 := cache.FrameFor(plan[1])
	f2 := cache.FrameFor(plan[2])
	if f0 != f1 || f1 != f2 {
		t.Fatal("cohort mates got different frames")
	}
	if acq, _ := protocol.FrameAccounting(); acq-acq0 != 1 {
		t.Fatalf("acquired %d frames for one cohort, want 1", acq-acq0)
	}
	if f0.Refs() != 4 {
		t.Fatalf("refs = %d, want 4 (3 recipients + cache)", f0.Refs())
	}
	f0.Release()
	f1.Release()
	f2.Release()
	cache.Reset()
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked", live-live0)
	}
}
