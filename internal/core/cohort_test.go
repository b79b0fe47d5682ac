package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"metaclass/internal/protocol"
)

// referencePlanTick reimplements the seed's per-peer planner (one Delta or
// Snapshot built independently for every peer, no cohorts) against a shadow
// of the peer table. The cohort planner must emit byte-identical frames in
// the same peer order.
type refPeer struct {
	ackTick uint64
	acked   bool
}

// refMessage is one entry of the reference plan: the message, not its frame.
type refMessage struct {
	Peer string
	Msg  protocol.Message
}

// referencePlanTick returns the tick's reference plan and how many of its
// snapshots went to acked peers that had fallen past the delta window.
func referencePlanTick(s *Store, peers map[string]*refPeer, order []string) ([]refMessage, int) {
	tick := s.Tick()
	var out []refMessage
	pastWindow := 0
	for _, id := range order {
		p := peers[id]
		if !p.acked || tick-p.ackTick > maxDeltaWindow {
			if p.acked {
				pastWindow++
			}
			out = append(out, refMessage{Peer: id, Msg: snapshotOf(s, nil)})
			continue
		}
		delta := deltaOf(s, p.ackTick, nil)
		if len(delta.Changed) == 0 && len(delta.Removed) == 0 {
			continue
		}
		out = append(out, refMessage{Peer: id, Msg: delta})
	}
	return out, pastWindow
}

// TestCohortPlanMatchesPerPeerPlanBroadcast churns a store for hundreds of
// ticks while peers ack at different cadences (including one that never
// acks and one that falls past the delta window between acks), and asserts
// every tick that the cohort planner sends exactly the frames — and
// therefore exactly the sync.bytes.sent — the seed's per-peer planner would
// have sent.
func TestCohortPlanMatchesPerPeerPlanBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	src := NewStore()
	repl := NewReplicator(src, ReplConfig{})
	shadow := NewStore()
	refPeers := make(map[string]*refPeer)
	var order []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("peer-%02d", i)
		if err := repl.AddPeer(id, nil); err != nil {
			t.Fatal(err)
		}
		refPeers[id] = &refPeer{}
		order = append(order, id)
	}

	var cohortBytes, refBytes uint64
	pastWindow := 0
	for tick := 0; tick < 400; tick++ {
		// Identical mutations on both stores.
		mutate := func(s *Store) {
			s.BeginTick()
			for i := 0; i < 5; i++ {
				id := protocol.ParticipantID(rng.Intn(30))
				switch {
				case rng.Float64() < 0.1:
					s.Remove(id)
				default:
					s.Upsert(ent(id, rng.Float64()*10))
				}
			}
		}
		seed := rng.Int63()
		rng = rand.New(rand.NewSource(seed))
		mutate(src)
		rng = rand.New(rand.NewSource(seed))
		mutate(shadow)

		plan := repl.PlanTick()
		ref, past := referencePlanTick(shadow, refPeers, order)
		pastWindow += past
		if len(plan) != len(ref) {
			t.Fatalf("tick %d: cohort planned %d messages, reference %d", tick, len(plan), len(ref))
		}
		for i := range plan {
			if plan[i].Peer != ref[i].Peer {
				t.Fatalf("tick %d: message %d to %s, reference to %s", tick, i, plan[i].Peer, ref[i].Peer)
			}
			got := plan[i].Msg.Bytes()
			want, err := protocol.Encode(ref[i].Msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("tick %d: frame to %s diverged from per-peer planning", tick, plan[i].Peer)
			}
			cohortBytes += uint64(len(got))
			refBytes += uint64(len(want))
		}

		// Peers ack at mixed cadences; peer-00 never acks, exercising the
		// un-acked snapshot path alongside delta cohorts, and the last peer
		// acks less often than the delta window spans.
		for i, id := range order {
			if i == 0 {
				continue
			}
			cadence := i + 1
			if i == len(order)-1 {
				cadence = maxDeltaWindow + 30
			}
			if tick%cadence == 0 {
				if err := repl.Ack(id, src.Tick()); err != nil {
					t.Fatal(err)
				}
				refPeers[id].ackTick = shadow.Tick()
				refPeers[id].acked = true
			}
		}
	}
	if cohortBytes != refBytes {
		t.Fatalf("sync.bytes.sent diverged: cohort=%d per-peer=%d", cohortBytes, refBytes)
	}
	if cohortBytes == 0 {
		t.Fatal("test drove no replication traffic")
	}
	if pastWindow == 0 {
		t.Fatal("no acked peer fell past the delta window")
	}
}

// TestPlanReuseInvalidation: the plan scratch and cached peer list must
// stay correct across peer membership changes.
func TestPlanReuseInvalidation(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("a", nil)
	_ = r.AddPeer("b", nil)
	s.BeginTick()
	s.Upsert(ent(1, 0))
	if got := len(r.PlanTick()); got != 2 {
		t.Fatalf("planned %d, want 2", got)
	}
	if err := r.RemovePeer("a"); err != nil {
		t.Fatal(err)
	}
	_ = r.AddPeer("z", nil)
	s.BeginTick()
	s.Upsert(ent(1, 1))
	plan := r.PlanTick()
	var peers []string
	for _, pm := range plan {
		peers = append(peers, pm.Peer)
	}
	if len(peers) != 2 || peers[0] != "b" || peers[1] != "z" {
		t.Fatalf("plan peers = %v, want [b z]", peers)
	}
	if got := r.Peers(); len(got) != 2 || got[0] != "b" || got[1] != "z" {
		t.Fatalf("Peers() = %v, want [b z]", got)
	}
}

// BenchmarkPlanTickBroadcast100Peers measures 100 unfiltered peers sharing
// one ack baseline: one delta build each.
func BenchmarkPlanTickBroadcast100Peers(b *testing.B) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	for i := 0; i < 100; i++ {
		_ = r.AddPeer(fmt.Sprintf("peer-%03d", i), nil)
	}
	s.BeginTick()
	for i := 0; i < 100; i++ {
		s.Upsert(ent(protocol.ParticipantID(i), float64(i)))
	}
	_ = r.PlanTick()
	for _, p := range r.Peers() {
		_ = r.Ack(p, s.Tick())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginTick()
		s.Upsert(ent(protocol.ParticipantID(i%100), float64(i)))
		msgs := r.PlanTick()
		for _, m := range msgs {
			_ = r.Ack(m.Peer, s.Tick())
		}
	}
}
