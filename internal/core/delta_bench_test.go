package core

import (
	"fmt"
	"testing"
	"time"

	"metaclass/internal/protocol"
)

// benchStorePop builds a store with pop live entities, warmed past the dirty
// ring so steady-state behavior is measured.
func benchStorePop(pop int) *Store {
	s := NewStore()
	s.BeginTick()
	for i := 0; i < pop; i++ {
		s.Upsert(protocol.EntityState{
			Participant: protocol.ParticipantID(i + 1),
			CapturedAt:  time.Duration(i),
		})
	}
	return s
}

// BenchmarkDeltaSinceChurn measures DeltaSince cost against population size
// with a fixed churn of 16 changed entities per tick. With the dirty-ring
// index the cost tracks the churn, not the population: the per-op time must
// stay flat as pop grows 100 → 10,000 (the full-scan seed grew linearly).
func BenchmarkDeltaSinceChurn(b *testing.B) {
	const churn = 16
	for _, pop := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("pop%d", pop), func(b *testing.B) {
			s := benchStorePop(pop)
			var msg protocol.Delta
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := s.Tick()
				s.BeginTick()
				for k := 0; k < churn; k++ {
					id := protocol.ParticipantID((i*churn+k)%pop + 1)
					s.Upsert(protocol.EntityState{
						Participant: id,
						CapturedAt:  time.Duration(i),
					})
				}
				s.DeltaSinceInto(base, nil, &msg)
				if len(msg.Changed) != churn {
					b.Fatalf("delta carried %d changes, want %d", len(msg.Changed), churn)
				}
			}
		})
	}
}

// BenchmarkDeltaSinceFullScanFallback pins the cost of the pre-index
// behavior: a baseline older than the ring forces the full population scan,
// for comparison against BenchmarkDeltaSinceChurn.
func BenchmarkDeltaSinceFullScanFallback(b *testing.B) {
	const pop = 10000
	s := benchStorePop(pop)
	// Age the store far past the ring so tick-1 baselines must full-scan.
	for t := 0; t < dirtyRingCap+8; t++ {
		s.BeginTick()
	}
	var msg protocol.Delta
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DeltaSinceInto(1, nil, &msg)
	}
}

// BenchmarkAckStormPrune measures a fully-acking classroom: every peer acks
// every tick. With lazy once-per-PlanTick pruning this is O(peers) per tick;
// the seed's per-Ack prune made it O(peers²).
func BenchmarkAckStormPrune(b *testing.B) {
	const peers = 1000
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	ids := make([]string, peers)
	for i := range ids {
		ids[i] = fmt.Sprintf("peer-%04d", i)
		if err := r.AddPeer(ids[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	s.BeginTick()
	s.Upsert(protocol.EntityState{Participant: 1})
	_ = r.PlanTick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginTick()
		s.Upsert(protocol.EntityState{Participant: 1, CapturedAt: time.Duration(i)})
		for _, id := range ids {
			if err := r.Ack(id, s.Tick()-1); err != nil {
				b.Fatal(err)
			}
		}
		_ = r.PlanTick()
	}
}

// BenchmarkOwedAckStorm is the venue's owed regime on one filtered peer: 256
// entities that all change every tick, a filter that admits an eighth of them
// per tick (an ambient-tier crowd), so nearly the whole world is owed all the
// time, and the exact ack of each message arriving two ticks behind. One op
// is one tick: the ingest, the ack's settle pass and the filtered build.
func BenchmarkOwedAckStorm(b *testing.B) {
	const pop = 256
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	due := func(id protocol.ParticipantID, tick uint64) bool { return (uint64(id)^tick)&7 == 0 }
	if err := r.AddPeer("p", due); err != nil {
		b.Fatal(err)
	}
	step := func() {
		tick := s.BeginTick()
		for i := 1; i <= pop; i++ {
			s.Upsert(protocol.EntityState{Participant: protocol.ParticipantID(i), CapturedAt: time.Duration(tick)})
		}
		if tick > 2 {
			if err := r.Ack("p", tick-2); err != nil {
				b.Fatal(err)
			}
		}
		_ = r.PlanTick()
	}
	for i := 0; i < 2*dirtyRingCap; i++ {
		step()
	}
	if st, _ := r.StatsOf("p"); st.Owed < pop/2 {
		b.Fatalf("only %d of %d entities owed: not the regime this measures", st.Owed, pop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
