package core

import (
	"fmt"
	"testing"
	"time"

	"metaclass/internal/protocol"
)

// benchStorePop builds a store with pop live entities at tick 1.
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

// BenchmarkDeltaSince measures one tick of the unfiltered delta build — the
// tick's re-authoring plus DeltaSinceInto into a reused message — against
// population size in two regimes: dense is the one every workload runs (two
// thirds of the population re-authored per tick, the ack four ticks behind,
// so the delta carries everyone), sparse16 re-authors 16 entities a tick and
// acks the tick before (no workload does; the build still walks everyone).
func BenchmarkDeltaSince(b *testing.B) {
	regimes := []struct {
		name  string
		churn func(pop int) int
		lag   uint64
	}{
		{"sparse16", func(int) int { return 16 }, 1},
		{"dense", func(pop int) int { return pop * 2 / 3 }, 4},
	}
	for _, rg := range regimes {
		for _, pop := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/pop%d", rg.name, pop), func(b *testing.B) {
				s := benchStorePop(pop)
				churn := rg.churn(pop)
				var msg protocol.Delta
				next := 0
				step := func() {
					tick := s.BeginTick()
					for k := 0; k < churn; k++ {
						s.Upsert(protocol.EntityState{
							Participant: protocol.ParticipantID(next%pop + 1),
							CapturedAt:  time.Duration(tick),
						})
						next++
					}
					s.DeltaSinceInto(tick-rg.lag, nil, &msg)
				}
				for i := 0; i < 8; i++ {
					step()
				}
				want := min(pop, churn*int(rg.lag))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
					if len(msg.Changed) != want {
						b.Fatalf("delta carried %d changes, want %d", len(msg.Changed), want)
					}
				}
			})
		}
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
	for i := 0; i < 512; i++ {
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
