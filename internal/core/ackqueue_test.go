package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"metaclass/internal/protocol"
)

// TestAckFloodKeepsQueueBoundedAndMatchesEagerSettle drives two replicators
// through one decimated schedule — 64 entities, about a third of them moving
// each tick, a peer that admits an eighth of them per tick, so entities go
// quiet with their last change owed, the owed sweep carries them and exact
// acks settle them — and then sends each 1,000 acks between two plans: an
// exact ack of the newest plan, then one of the plan before, which must
// settle nothing, then regressed ones. One replicator leaves its acks
// queued for the next build; the other settles each at once, as AckDrop did
// before it queued. The queue must never hold more than maxQueuedAcks (and
// must reach it), every plan must be byte-identical, and the two owed sets
// must be equal entry for entry after the next build.
func TestAckFloodKeepsQueueBoundedAndMatchesEagerSettle(t *testing.T) {
	const pop = 64
	due := func(id protocol.ParticipantID, tick uint64) bool { return (uint64(id)^tick)&7 == 0 }
	lazyStore, eagerStore := NewStore(), NewStore()
	lazy, eager := NewReplicator(lazyStore, ReplConfig{}), NewReplicator(eagerStore, ReplConfig{})
	for _, r := range []*Replicator{lazy, eager} {
		if err := r.AddPeer("p", due); err != nil {
			t.Fatal(err)
		}
	}
	lazyOwed, eagerOwed := &lazy.peers["p"].owed, &eager.peers["p"].owed
	settled := 0 // debts eager settling dropped: the schedule must make settling matter
	owing := func(o *OwedSet) (n int) {
		for _, e := range o.ents {
			if e.owed {
				n++
			}
		}
		return n
	}
	ack := func(tick uint64) {
		t.Helper()
		if err := lazy.Ack("p", tick); err != nil {
			t.Fatal(err)
		}
		if err := eager.Ack("p", tick); err != nil {
			t.Fatal(err)
		}
		before := owing(eagerOwed)
		eagerOwed.settle()
		settled += before - owing(eagerOwed)
	}
	rng := rand.New(rand.NewSource(5))
	plan := func() {
		t.Helper()
		moving := rng.Int63()
		for _, s := range []*Store{lazyStore, eagerStore} {
			tick := s.BeginTick()
			mr := rand.New(rand.NewSource(moving))
			for i := 1; i <= pop; i++ {
				if tick < 3 || mr.Intn(3) == 0 {
					s.Upsert(protocol.EntityState{Participant: protocol.ParticipantID(i), CapturedAt: time.Duration(tick)})
				}
			}
		}
		got, want := lazy.PlanTick(), eager.PlanTick()
		if len(got) != len(want) {
			t.Fatalf("tick %d: queued settling planned %d messages, eager %d", lazyStore.Tick(), len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Msg.Bytes(), want[i].Msg.Bytes()) {
				t.Fatalf("tick %d: queued settling planned other bytes than eager settling", lazyStore.Tick())
			}
		}
	}
	same := func(when string) {
		t.Helper()
		if got, want := lazyOwed.ids(lazyStore), eagerOwed.ids(eagerStore); !slices.Equal(got, want) {
			t.Fatalf("%s: owed %v, eager %v", when, got, want)
		}
		if !slices.Equal(lazyOwed.ents, eagerOwed.ents) || !slices.Equal(lazyOwed.sent, eagerOwed.sent) {
			t.Fatalf("%s: owed entries or send records differ from eager settling", when)
		}
	}

	for i := 0; i < 60; i++ {
		plan()
		if tick := lazyStore.Tick(); tick > 2 {
			ack(tick - 2)
		}
	}
	same("before the flood")
	if settled == 0 {
		t.Fatal("no ack settled a debt: the schedule does not exercise settling")
	}

	top, deepest := lazyStore.Tick(), 0
	for i := 0; i < 1000; i++ {
		tick := 1 + uint64(rng.Intn(int(top)-3)) // regressed: below every record
		switch i {
		case 0:
			tick = top // settles the newest plan's carriers and drops every record
		case 1:
			tick = top - 1 // arrives after top's ack: its records are gone
		}
		ack(tick)
		if n := len(lazyOwed.acks); n > maxQueuedAcks {
			t.Fatalf("ack %d: %d acks queued, bound %d", i, n, maxQueuedAcks)
		} else if n > deepest {
			deepest = n
		}
	}
	if deepest != maxQueuedAcks {
		t.Fatalf("the queue peaked at %d acks, never at its bound %d: the flood did not exercise it", deepest, maxQueuedAcks)
	}
	plan() // the lazy build settles the queue first
	same("after the flood and a build")
	for i := 0; i < 4; i++ {
		plan()
		ack(lazyStore.Tick() - 1)
		plan()
		same("after the next plans")
	}
}
