package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"metaclass/internal/protocol"
)

// decoded is what the receiver of a planned frame gets: a *protocol.Snapshot
// or *protocol.Delta of the caller's own.
func decoded(t testing.TB, f *protocol.Frame) protocol.Message {
	t.Helper()
	msg, _, err := protocol.Decode(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestReplicatorFirstContactIsSnapshot(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	if err := r.AddPeer("edge2", nil); err != nil {
		t.Fatal(err)
	}
	s.BeginTick()
	s.Upsert(ent(1, 0))
	msgs := r.PlanTick()
	if len(msgs) != 1 {
		t.Fatalf("msgs = %d", len(msgs))
	}
	if _, ok := decoded(t, msgs[0].Msg).(*protocol.Snapshot); !ok {
		t.Fatalf("first message = %T, want Snapshot", msgs[0].Msg)
	}
}

func TestReplicatorDeltaAfterAck(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("p", nil)
	s.BeginTick()
	s.Upsert(ent(1, 0))
	_ = r.PlanTick()
	if err := r.Ack("p", s.Tick()); err != nil {
		t.Fatal(err)
	}
	s.BeginTick()
	s.Upsert(ent(1, 5))
	msgs := r.PlanTick()
	if len(msgs) != 1 {
		t.Fatalf("msgs = %d", len(msgs))
	}
	d, ok := decoded(t, msgs[0].Msg).(*protocol.Delta)
	if !ok {
		t.Fatalf("message = %T, want Delta", msgs[0].Msg)
	}
	if len(d.Changed) != 1 || d.BaseTick != 1 {
		t.Errorf("delta = %+v", d)
	}
}

func TestReplicatorQuiescentSendsNothing(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("p", nil)
	s.BeginTick()
	s.Upsert(ent(1, 0))
	_ = r.PlanTick()
	_ = r.Ack("p", s.Tick())
	s.BeginTick() // nothing changed
	if msgs := r.PlanTick(); len(msgs) != 0 {
		t.Errorf("quiescent tick sent %d messages", len(msgs))
	}
}

func TestReplicatorStaleAckFallsBackToSnapshot(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("p", nil)
	s.BeginTick()
	s.Upsert(ent(1, 0))
	_ = r.PlanTick()
	_ = r.Ack("p", 1)
	for i := 0; i < maxDeltaWindow+10; i++ {
		s.BeginTick()
		s.Upsert(ent(1, float64(i)))
	}
	msgs := r.PlanTick()
	if _, ok := decoded(t, msgs[0].Msg).(*protocol.Snapshot); !ok {
		t.Fatalf("stale peer got %T, want Snapshot", msgs[0].Msg)
	}
}

func TestReplicatorAckRegression(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("p", nil)
	for i := 0; i < 10; i++ {
		s.BeginTick()
	}
	_ = r.Ack("p", 8)
	_ = r.Ack("p", 3) // reordered old ack must not regress the floor
	st, err := r.StatsOf("p")
	if err != nil {
		t.Fatal(err)
	}
	if st.AckTick != 8 {
		t.Errorf("ack floor = %d, want 8", st.AckTick)
	}
}

// TestAckRegressionDoesNotSchedulePrune: an ignored stale ack leaves the
// baseline — and therefore the prune floor — untouched, so it must not mark
// the removal log dirty (one reordered ack per tick would otherwise buy an
// O(peers) min-scan for nothing).
func TestAckRegressionDoesNotSchedulePrune(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("p", nil)
	for i := 0; i < 10; i++ {
		s.BeginTick()
	}
	if err := r.Ack("p", 8); err != nil {
		t.Fatal(err)
	}
	if !r.pruneDirty {
		t.Fatal("advancing ack did not schedule a prune")
	}
	_ = r.PlanTick() // runs and clears the pending prune
	if r.pruneDirty {
		t.Fatal("PlanTick left the prune pending")
	}
	if err := r.Ack("p", 3); err != nil { // ignored regression
		t.Fatal(err)
	}
	if r.pruneDirty {
		t.Error("ignored ack regression scheduled a prune scan")
	}
	if err := r.Ack("p", 9); err != nil {
		t.Fatal(err)
	}
	if !r.pruneDirty {
		t.Error("advancing ack after a regression did not schedule a prune")
	}
}

func TestReplicatorPeerManagement(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	if err := r.AddPeer("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPeer("a", nil); !errors.Is(err, ErrPeerExists) {
		t.Errorf("dup add err = %v", err)
	}
	if !r.HasPeer("a") {
		t.Error("HasPeer false")
	}
	if err := r.RemovePeer("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemovePeer("a"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("double remove err = %v", err)
	}
	if err := r.Ack("ghost", 1); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("ack unknown err = %v", err)
	}
	if _, err := r.StatsOf("ghost"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("stats unknown err = %v", err)
	}
}

func TestReplicatorInterestFilter(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	// Peer only interested in even participant IDs.
	_ = r.AddPeer("p", func(id protocol.ParticipantID, _ uint64) bool { return id%2 == 0 })
	s.BeginTick()
	for i := 1; i <= 4; i++ {
		s.Upsert(ent(protocol.ParticipantID(i), 0))
	}
	msgs := r.PlanTick()
	snap := decoded(t, msgs[0].Msg).(*protocol.Snapshot)
	if len(snap.Entities) != 2 {
		t.Fatalf("filtered snapshot = %d entities, want 2", len(snap.Entities))
	}
	for _, e := range snap.Entities {
		if e.Participant%2 != 0 {
			t.Errorf("odd entity %d leaked", e.Participant)
		}
	}
}

func TestReplicatorRemovalsBypassFilter(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("p", func(id protocol.ParticipantID, _ uint64) bool { return false })
	s.BeginTick()
	s.Upsert(ent(1, 0))
	_ = r.PlanTick()
	_ = r.Ack("p", s.Tick())
	s.BeginTick()
	s.Remove(1)
	msgs := r.PlanTick()
	if len(msgs) != 1 {
		t.Fatalf("msgs = %d", len(msgs))
	}
	d := decoded(t, msgs[0].Msg).(*protocol.Delta)
	if len(d.Removed) != 1 {
		t.Error("removal filtered out")
	}
}

func TestReplicatorPruneBoundedByUnackedPeer(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	_ = r.AddPeer("fast", nil)
	_ = r.AddPeer("slow", nil) // never acks
	s.BeginTick()
	s.Upsert(ent(1, 0))
	s.BeginTick()
	s.Remove(1)
	_ = r.Ack("fast", s.Tick())
	_ = r.PlanTick() // pruning is lazy: it runs once per PlanTick, not per Ack
	if s.RemovalLogLen() != 1 {
		t.Errorf("removal log pruned despite un-acked peer: %d", s.RemovalLogLen())
	}
	_ = r.Ack("slow", s.Tick())
	_ = r.PlanTick()
	if s.RemovalLogLen() != 0 {
		t.Errorf("removal log not pruned after all acks: %d", s.RemovalLogLen())
	}
}

// TestEndToEndConvergence drives a lossy link: every delta has a 30% chance
// of being lost; acks flow only for applied messages. The receiving store
// must converge to the source state once the link quiets down.
func TestEndToEndConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	src := NewStore()
	repl := NewReplicator(src, ReplConfig{})
	_ = repl.AddPeer("rx", nil)
	rx := NewStore()

	deliver := func() {
		for _, pm := range repl.PlanTick() {
			if rng.Float64() < 0.3 {
				continue // lost
			}
			switch m := decoded(t, pm.Msg).(type) {
			case *protocol.Snapshot:
				rx.ApplySnapshot(m)
				_ = repl.Ack("rx", m.Tick)
			case *protocol.Delta:
				if rx.ApplyDelta(m) {
					_ = repl.Ack("rx", m.Tick)
				}
			}
		}
	}

	// Chaotic phase: upserts, removals, loss.
	for i := 0; i < 300; i++ {
		src.BeginTick()
		id := protocol.ParticipantID(rng.Intn(20))
		if rng.Float64() < 0.15 {
			src.Remove(id)
		} else {
			src.Upsert(ent(id, rng.Float64()*10))
		}
		deliver()
	}
	// Quiet phase: no new mutations; loss-free delivery to settle.
	rngZero := rand.New(rand.NewSource(1))
	_ = rngZero
	for i := 0; i < 40; i++ {
		src.BeginTick()
		for _, pm := range repl.PlanTick() {
			switch m := decoded(t, pm.Msg).(type) {
			case *protocol.Snapshot:
				rx.ApplySnapshot(m)
				_ = repl.Ack("rx", m.Tick)
			case *protocol.Delta:
				if rx.ApplyDelta(m) {
					_ = repl.Ack("rx", m.Tick)
				}
			}
		}
	}

	if src.Len() != rx.Len() {
		t.Fatalf("entity counts diverged: src=%d rx=%d", src.Len(), rx.Len())
	}
	for _, id := range src.IDs() {
		want, _ := src.Get(id)
		got, ok := rx.Get(id)
		if !ok {
			t.Fatalf("entity %d missing at receiver", id)
		}
		if want.Pose != got.Pose {
			t.Fatalf("entity %d state diverged", id)
		}
	}
}

func BenchmarkPlanTick100Entities10Peers(b *testing.B) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	for i := 0; i < 10; i++ {
		_ = r.AddPeer(string(rune('a'+i)), nil)
	}
	s.BeginTick()
	for i := 0; i < 100; i++ {
		s.Upsert(ent(protocol.ParticipantID(i), float64(i)))
	}
	for _, p := range r.Peers() {
		_ = r.Ack(p, 1)
	}
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

// TestPeersAppendAllocationFree pins the PeersAppend contract: with a
// reused buffer of sufficient capacity, a per-tick peer sweep costs zero
// allocations (Peers, by contrast, copies per call).
func TestPeersAppendAllocationFree(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	for i := 0; i < 16; i++ {
		if err := r.AddPeer(fmt.Sprintf("peer-%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	buf := r.PeersAppend(nil)
	if len(buf) != 16 {
		t.Fatalf("PeersAppend returned %d peers, want 16", len(buf))
	}
	for i := 1; i < len(buf); i++ {
		if buf[i-1] >= buf[i] {
			t.Fatalf("PeersAppend not sorted: %v", buf)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { buf = r.PeersAppend(buf[:0]) })
	if allocs > 0 {
		t.Errorf("PeersAppend allocated %v per call with a warm buffer, want 0", allocs)
	}
	if got := r.Peers(); len(got) != 16 {
		t.Fatalf("Peers() returned %d, want 16", len(got))
	}
}
