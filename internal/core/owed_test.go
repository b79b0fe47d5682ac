package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metaclass/internal/protocol"
)

// decimationFilter mimics the interest tier gate: id's updates are admitted
// only on ticks where tick % divisor(id) == id % divisor(id). Divisor 0
// rejects always (culled).
func decimationFilter(divisor func(protocol.ParticipantID) uint64) FilterFunc {
	return func(id protocol.ParticipantID, tick uint64) bool {
		d := divisor(id)
		if d == 0 {
			return false
		}
		return tick%d == uint64(id)%d
	}
}

// TestDecimatedChangeEventuallyDelivered is the regression test for the
// headline decimation bug: an entity whose only change lands on a tick where
// its tier is decimated must still reach the receiver. Without owed-change
// tracking the peer's ack (advanced by other traffic) passes the change
// before the filter ever admits it, and DeltaSince(ack) never surfaces it
// again — the receiver stays stale forever.
func TestDecimatedChangeEventuallyDelivered(t *testing.T) {
	const (
		mover   = protocol.ParticipantID(1) // focus-tier: admitted every tick
		sleeper = protocol.ParticipantID(8) // ambient-tier: admitted on tick%8 == 0
	)
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	filter := decimationFilter(func(id protocol.ParticipantID) uint64 {
		if id == mover {
			return 1
		}
		return 8
	})
	if err := repl.AddPeer("recv", filter); err != nil {
		t.Fatal(err)
	}
	recv := NewStore()

	deliver := func() {
		for _, pm := range repl.PlanTick() {
			switch m := decoded(t, pm.Msg).(type) {
			case *protocol.Snapshot:
				recv.ApplySnapshot(m)
			case *protocol.Delta:
				if !recv.ApplyDelta(m) {
					t.Fatalf("delta gap at tick %d", store.Tick())
				}
			}
			if err := repl.Ack("recv", store.Tick()); err != nil {
				t.Fatal(err)
			}
		}
	}

	ent := func(id protocol.ParticipantID, v int32) protocol.EntityState {
		return protocol.EntityState{Participant: id, Pose: protocol.WirePose{PosMM: [3]int64{int64(v), 0, 0}}}
	}

	// Warm up: both entities known to the receiver.
	store.BeginTick() // tick 1
	store.Upsert(ent(mover, 1))
	store.Upsert(ent(sleeper, 0))
	deliver() // unacked peer: snapshot carries everything

	// The sleeper's one and only change lands on a decimated tick (any tick
	// with tick%8 != 0), while the mover keeps the delta stream — and with it
	// the peer's ack — advancing every tick.
	changed := false
	for store.BeginTick(); store.Tick() <= 40; store.BeginTick() {
		tick := store.Tick()
		store.Upsert(ent(mover, int32(tick)))
		if !changed && tick%8 == 3 {
			store.Upsert(ent(sleeper, 777))
			changed = true
		}
		deliver()
	}

	got, ok := recv.Get(sleeper)
	if !ok {
		t.Fatal("sleeper missing at receiver")
	}
	want, _ := store.Get(sleeper)
	if !entityEqual(got, want) {
		t.Fatalf("receiver stale: sleeper = %+v, want %+v (change on a decimated tick was dropped)", got, want)
	}
	// The debt must be settled, not perpetually re-sent: once delivered and
	// acked, the sleeper leaves the owed set.
	st, err := repl.StatsOf("recv")
	if err != nil {
		t.Fatal(err)
	}
	if st.Owed != 0 {
		t.Errorf("owed backlog = %d after convergence, want 0", st.Owed)
	}
}

// TestOwedConvergenceProperty drives the full filtered-replication pipeline
// — decimation, loss, ack reordering, keyframes, removals — against a
// naive full-history receiver (a plain map applying every delivered message)
// and asserts two properties:
//
//  1. Invariant (every tick): any sometimes-admissible entity that is stale
//     at the receiver while the ack baseline has already passed its change
//     is owed — the candidate walk can never surface it again, so only the
//     owed set stands between it and permanent staleness.
//  2. Convergence: once mutations stop and the link turns lossless, every
//     sometimes-admissible live entity reaches its authoritative state and
//     the owed backlog drains to zero.
//
// On even seeds every ack is lost for longer than the delta window spans, so
// the peer falls past it and gets filtered keyframes (the owes-omitted path).
func TestOwedConvergenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const n = 40
			divisor := func(id protocol.ParticipantID) uint64 {
				switch id % 5 {
				case 0:
					return 1
				case 1:
					return 2
				case 2:
					return 4
				case 3:
					return 8
				default:
					return 0 // culled: never admitted
				}
			}

			store := NewStore()
			repl := NewReplicator(store, ReplConfig{})
			if err := repl.AddPeer("recv", decimationFilter(divisor)); err != nil {
				t.Fatal(err)
			}
			peer := repl.peers["recv"]

			// The naive reference receiver: the full history of delivered
			// messages applied to a plain map, nothing cleverer.
			recvState := map[protocol.ParticipantID]protocol.EntityState{}
			recvTick := uint64(0)
			var pendingAcks []uint64 // delivered-but-not-yet-acked message ticks
			muted := false           // every ack is lost
			keyframes := 0           // snapshots planned to a peer that had acked

			deliver := func(lossy bool) {
				st, _ := repl.StatsOf("recv")
				for _, pm := range repl.PlanTick() {
					msg := decoded(t, pm.Msg)
					if _, ok := msg.(*protocol.Snapshot); ok && st.Acked {
						keyframes++
					}
					if lossy && rng.Float64() < 0.3 {
						continue // the frame never arrives
					}
					switch m := msg.(type) {
					case *protocol.Snapshot:
						clear(recvState)
						for _, e := range m.Entities {
							recvState[e.Participant] = e
						}
						recvTick = m.Tick
					case *protocol.Delta:
						if m.BaseTick > recvTick {
							continue // gap: the receiver cannot apply, sends no ack
						}
						if m.Tick <= recvTick {
							continue // stale duplicate
						}
						for _, id := range m.Removed {
							delete(recvState, id)
						}
						for _, e := range m.Changed {
							recvState[e.Participant] = e
						}
						recvTick = m.Tick
					}
					pendingAcks = append(pendingAcks, store.Tick())
				}
				// Acks arrive out of order and sometimes not at all.
				rng.Shuffle(len(pendingAcks), func(i, j int) {
					pendingAcks[i], pendingAcks[j] = pendingAcks[j], pendingAcks[i]
				})
				kept := pendingAcks[:0]
				for _, ack := range pendingAcks {
					switch {
					case muted || lossy && rng.Float64() < 0.2:
						// lost
					case lossy && rng.Float64() < 0.3:
						kept = append(kept, ack) // delayed to a later tick
					default:
						if err := repl.Ack("recv", ack); err != nil {
							t.Fatal(err)
						}
					}
				}
				pendingAcks = kept
			}

			checkInvariant := func() {
				st, _ := repl.StatsOf("recv")
				store.Range(func(id protocol.ParticipantID, e protocol.EntityState) {
					if divisor(id) == 0 {
						return
					}
					stale := !entityEqual(recvState[id], e)
					r := store.recs[store.slots[id]]
					if stale && st.Acked && r.changedTick <= st.AckTick && !peer.owed.Owes(store, id) {
						t.Fatalf("tick %d: entity %d stale at receiver, change tick %d already inside ack %d, and not owed — permanently lost",
							store.Tick(), id, r.changedTick, st.AckTick)
					}
				})
			}

			ent := func(id protocol.ParticipantID, tick uint64) protocol.EntityState {
				return protocol.EntityState{
					Participant: id,
					Pose:        protocol.WirePose{PosMM: [3]int64{int64(tick), int64(id), int64(rng.Int31n(1000))}},
				}
			}

			// Churn phase: random upserts/removes/touches over a lossy link.
			for i := 0; i < 300; i++ {
				muted = seed%2 == 0 && i >= 100 && i < 120+maxDeltaWindow
				tick := store.BeginTick()
				for k := 0; k < 1+rng.Intn(4); k++ {
					id := protocol.ParticipantID(rng.Intn(n))
					switch rng.Intn(10) {
					case 0:
						store.Remove(id)
					case 1:
						store.Touch(id)
					default:
						store.Upsert(ent(id, tick))
					}
				}
				deliver(true)
				checkInvariant()
			}

			// Settle phase: no more mutations, lossless link.
			for i := 0; i < 64; i++ {
				store.BeginTick()
				deliver(false)
				checkInvariant()
			}

			if seed%2 == 0 && keyframes == 0 {
				t.Fatal("the peer fell past the delta window but was planned no filtered snapshot")
			}

			// Convergence: every sometimes-admissible live entity matches.
			store.Range(func(id protocol.ParticipantID, e protocol.EntityState) {
				if divisor(id) == 0 {
					return
				}
				if got := recvState[id]; !entityEqual(got, e) {
					t.Errorf("entity %d did not converge: receiver %+v, authoritative %+v", id, got, e)
				}
			})
			// And the receiver holds nothing the authority removed.
			for id := range recvState {
				if _, live := store.Get(id); !live {
					t.Errorf("entity %d removed from authority but still at receiver", id)
				}
			}
			// The backlog must drain except for permanently-culled entities
			// (they stay owed by design: the filter never admits them, and
			// conservatively keeping the debt is what makes an entity that
			// LATER enters interest range deliverable at all).
			culled := 0
			store.Range(func(id protocol.ParticipantID, _ protocol.EntityState) {
				if divisor(id) == 0 && peer.owed.Owes(store, id) {
					culled++
				}
			})
			if st, _ := repl.StatsOf("recv"); st.Owed != culled {
				t.Errorf("owed backlog %d after settle, want %d (only permanently-culled entities)", st.Owed, culled)
			}
		})
	}
}

// TestFilteredSnapshotOwesOmitted pins the keyframe rule: a filtered
// snapshot resets the peer's baseline past every entity's changedTick, so
// each omitted live entity must become owed — and be delivered by a later
// delta once the filter admits it, even though it is no longer a candidate.
func TestFilteredSnapshotOwesOmitted(t *testing.T) {
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	admitOdd := false
	filter := func(id protocol.ParticipantID, tick uint64) bool {
		return id%2 == 0 || admitOdd
	}
	if err := repl.AddPeer("recv", filter); err != nil {
		t.Fatal(err)
	}

	store.BeginTick()
	for id := protocol.ParticipantID(1); id <= 6; id++ {
		store.Upsert(protocol.EntityState{Participant: id})
	}
	plan := repl.PlanTick() // never acked: filtered snapshot
	if len(plan) != 1 {
		t.Fatalf("plan = %d messages, want 1", len(plan))
	}
	snap, ok := decoded(t, plan[0].Msg).(*protocol.Snapshot)
	if !ok {
		t.Fatalf("planned %T, want snapshot", plan[0].Msg)
	}
	if len(snap.Entities) != 3 {
		t.Fatalf("snapshot carried %d entities, want 3 (evens)", len(snap.Entities))
	}
	if err := repl.Ack("recv", store.Tick()); err != nil {
		t.Fatal(err)
	}
	if st, _ := repl.StatsOf("recv"); st.Owed != 3 {
		t.Fatalf("owed = %d after filtered snapshot, want 3 (omitted odds)", st.Owed)
	}

	// Nothing changes, but once the odd entities have sat settled the filter
	// starts admitting them (they "entered interest range"). The next delta
	// must carry their state even though their changedTick sits at or before
	// the ack baseline. (This pins the owes-omitted bookkeeping, not the
	// settle delay: see TestOwedSettleGate.)
	for store.Tick() < 1+owedSettleTicks {
		store.BeginTick()
	}
	admitOdd = true
	plan = repl.PlanTick()
	if len(plan) != 1 {
		t.Fatalf("plan = %d messages, want 1", len(plan))
	}
	delta, ok := decoded(t, plan[0].Msg).(*protocol.Delta)
	if !ok {
		t.Fatalf("planned %T, want delta", plan[0].Msg)
	}
	var got []protocol.ParticipantID
	for _, e := range delta.Changed {
		got = append(got, e.Participant)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("owed sweep delivered %v, want [1 3 5]", got)
	}
	if err := repl.Ack("recv", store.Tick()); err != nil {
		t.Fatal(err)
	}
	if st, _ := repl.StatsOf("recv"); st.Owed != 0 {
		t.Errorf("owed = %d after delivery+ack, want 0", st.Owed)
	}
}

// TestOwedAckExactMatchOnly pins the loss-safety rule: an ack settles an
// owed entity only when its tick exactly matches the message that carried it
// — a later ack proves nothing about an earlier, possibly-lost frame — and
// an unmatched owed entity is retransmitted once the ack floor passes its
// send tick.
func TestOwedAckExactMatchOnly(t *testing.T) {
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	admit := false
	sleeper := protocol.ParticipantID(7)
	filter := func(id protocol.ParticipantID, tick uint64) bool {
		if id == sleeper {
			return admit
		}
		return true
	}
	if err := repl.AddPeer("recv", filter); err != nil {
		t.Fatal(err)
	}
	peer := repl.peers["recv"]

	store.BeginTick() // tick 1: snapshot baseline, sleeper omitted
	store.Upsert(protocol.EntityState{Participant: 1})
	store.Upsert(protocol.EntityState{Participant: sleeper})
	repl.PlanTick()
	if err := repl.Ack("recv", 1); err != nil {
		t.Fatal(err)
	}
	if !peer.owed.Owes(store, sleeper) {
		t.Fatal("omitted sleeper not owed after filtered snapshot")
	}
	// Quiet ticks until the sleeper has sat settled, so the send, the loss
	// and the retransmit below land on consecutive ticks t0, t0+1 and t0+2.
	for store.Tick() < owedSettleTicks {
		store.BeginTick()
	}
	t0 := uint64(1 + owedSettleTicks)

	// Tick t0: filter admits; the owed sweep sends the sleeper... and the
	// frame is lost (no ack for tick t0).
	store.BeginTick()
	admit = true
	store.Upsert(protocol.EntityState{Participant: 1}) // keep the stream non-empty
	plan := repl.PlanTick()
	d := decoded(t, plan[0].Msg).(*protocol.Delta)
	if len(d.Changed) != 2 {
		t.Fatalf("tick-%d delta carried %d entities, want 2 (mover + owed sleeper)", t0, len(d.Changed))
	}

	// Tick t0+1: the tick-t0 frame is in flight as far as the replicator
	// knows (ack floor still 1 < send tick t0), so the sweep must NOT burn
	// bandwidth re-sending the sleeper.
	store.BeginTick()
	store.Upsert(protocol.EntityState{Participant: 1})
	plan = repl.PlanTick()
	d = decoded(t, plan[0].Msg).(*protocol.Delta)
	if len(d.Changed) != 1 {
		t.Fatalf("tick-%d delta carried %d entities, want 1 (no premature retransmit)", t0+1, len(d.Changed))
	}
	// The tick-t0+1 ack arrives; tick t0's never does. An exact-match rule
	// keeps the debt open — ack t0+1 does not prove receipt of frame t0.
	if err := repl.Ack("recv", t0+1); err != nil {
		t.Fatal(err)
	}
	if !peer.owed.Owes(store, sleeper) {
		t.Fatalf("ack for tick %d settled a tick-%d send — lost frame forgotten", t0+1, t0)
	}

	// Tick t0+2: ack floor (t0+1) has passed the send tick (t0) with no exact
	// ack — the frame is presumed lost and the sleeper is retransmitted.
	store.BeginTick()
	store.Upsert(protocol.EntityState{Participant: 1})
	plan = repl.PlanTick()
	d = decoded(t, plan[0].Msg).(*protocol.Delta)
	if len(d.Changed) != 2 {
		t.Fatalf("tick-%d delta carried %d entities, want 2 (sleeper retransmitted)", t0+2, len(d.Changed))
	}
	if err := repl.Ack("recv", t0+2); err != nil {
		t.Fatal(err)
	}
	if peer.owed.Owes(store, sleeper) {
		t.Error("exact ack for the retransmit tick did not settle the debt")
	}
}

// TestOwedSettleGate pins the bandwidth half of the owed contract: while an
// entity keeps changing, the sweep must NOT deliver its suppressed changes —
// every phase-tick send supersedes them, so an eager sweep would only
// duplicate traffic (at E4 scale it re-inflated egress by a third). Only
// once the entity sits quiet for owedSettleTicks may the sweep deliver, and
// then exactly once.
func TestOwedSettleGate(t *testing.T) {
	const (
		mover   = protocol.ParticipantID(1) // admitted every tick
		sleeper = protocol.ParticipantID(3) // admitted on odd ticks only
	)
	store := NewStore()
	repl := NewReplicator(store, ReplConfig{})
	filter := decimationFilter(func(id protocol.ParticipantID) uint64 {
		if id == mover {
			return 1
		}
		return 2
	})
	if err := repl.AddPeer("recv", filter); err != nil {
		t.Fatal(err)
	}

	carried := func(plan []PeerMessage, id protocol.ParticipantID) bool {
		for _, pm := range plan {
			d, ok := decoded(t, pm.Msg).(*protocol.Delta)
			if !ok {
				continue
			}
			for _, e := range d.Changed {
				if e.Participant == id {
					return true
				}
			}
		}
		return false
	}

	store.BeginTick() // tick 1
	store.Upsert(protocol.EntityState{Participant: mover})
	store.Upsert(protocol.EntityState{Participant: sleeper})
	repl.PlanTick()
	if err := repl.Ack("recv", 1); err != nil {
		t.Fatal(err)
	}

	// Phase A: the sleeper changes every tick. Even (decimated) ticks owe it;
	// odd ticks admit it as a candidate. The sweep must never add extra sends:
	// the sleeper appears exactly on its phase ticks.
	for store.BeginTick(); store.Tick() <= 9; store.BeginTick() {
		tick := store.Tick()
		store.Upsert(protocol.EntityState{Participant: mover, Home: protocol.ClassroomID(tick)})
		store.Upsert(protocol.EntityState{Participant: sleeper, Home: protocol.ClassroomID(tick)})
		plan := repl.PlanTick()
		if got, want := carried(plan, sleeper), tick%2 == 1; got != want {
			t.Fatalf("tick %d (moving): sleeper carried=%v, want %v (phase ticks only)", tick, got, want)
		}
		if err := repl.Ack("recv", tick); err != nil {
			t.Fatal(err)
		}
	}

	// Phase B: the sleeper's last change landed on tick 9... make one final
	// change on a decimated tick (10) and go quiet. Admitted odd ticks 11
	// through 17 fall inside the settle window — no sweep. Tick 19 is the
	// first admitted tick with 19-10 >= owedSettleTicks: delivered there,
	// exactly once.
	store.Upsert(protocol.EntityState{Participant: sleeper, Home: 999}) // tick 10
	deliveredAt := uint64(0)
	for tick := store.Tick(); tick <= 20; tick = store.BeginTick() {
		store.Upsert(protocol.EntityState{Participant: mover, Home: protocol.ClassroomID(tick)})
		plan := repl.PlanTick()
		if carried(plan, sleeper) {
			if deliveredAt != 0 {
				t.Fatalf("sleeper delivered twice (ticks %d and %d)", deliveredAt, tick)
			}
			deliveredAt = tick
		}
		if err := repl.Ack("recv", tick); err != nil {
			t.Fatal(err)
		}
	}
	if deliveredAt != 19 {
		t.Fatalf("quiet sleeper delivered at tick %d, want 19 (first admitted tick past the settle window)", deliveredAt)
	}
	if st, _ := repl.StatsOf("recv"); st.Owed != 0 {
		t.Errorf("owed backlog = %d after settled delivery+ack, want 0", st.Owed)
	}
}

// TestUnfilteredPeerCarriesDebt pins the one contract for a peer registered
// without a filter: debt marked by Owe is re-sent by the settled sweep, and a
// handed-off baseline with owed IDs resumes as a delta that carries them, not
// as a snapshot.
func TestUnfilteredPeerCarriesDebt(t *testing.T) {
	store := NewStore()
	store.BeginTick() // tick 1
	for id := protocol.ParticipantID(1); id <= 3; id++ {
		store.Upsert(protocol.EntityState{Participant: id})
	}
	repl := NewReplicator(store, ReplConfig{})
	if err := repl.AddPeer("srv", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded(t, repl.PlanTick()[0].Msg).(*protocol.Snapshot); !ok {
		t.Fatal("first contact is not a snapshot")
	}
	if err := repl.Ack("srv", 1); err != nil {
		t.Fatal(err)
	}

	// Tick t0: entity 2 has sat unchanged since tick 1 for the settle time.
	t0 := uint64(1 + owedSettleTicks)
	for store.Tick() < t0 {
		store.BeginTick()
	}
	store.Upsert(protocol.EntityState{Participant: 1})
	if err := repl.Owe("srv", 2); err != nil {
		t.Fatal(err)
	}
	if st, _ := repl.StatsOf("srv"); st.Owed != 1 {
		t.Fatalf("owed = %d after Owe, want 1", st.Owed)
	}
	d := decoded(t, repl.PlanTick()[0].Msg).(*protocol.Delta)
	if got := ids(d.Changed); !slices.Equal(got, []protocol.ParticipantID{1, 2}) {
		t.Fatalf("delta after Owe carried %v, want [1 2] (the owed entity swept)", got)
	}
	if err := repl.Ack("srv", t0); err != nil {
		t.Fatal(err)
	}
	if st, _ := repl.StatsOf("srv"); st.Owed != 0 {
		t.Errorf("owed = %d after the carrier's ack, want 0", st.Owed)
	}

	// Handoff: a fresh unfiltered peer imports a covered floor with debt.
	for store.Tick() < t0+3 {
		store.BeginTick()
	}
	store.Upsert(protocol.EntityState{Participant: 3})
	if err := repl.AddPeer("next", nil); err != nil {
		t.Fatal(err)
	}
	if err := repl.ImportBaseline("next", PeerBaseline{AckTick: t0 + 2, Acked: true, Owed: []protocol.ParticipantID{2}}); err != nil {
		t.Fatal(err)
	}
	for _, m := range repl.PlanTick() {
		if m.Peer != "next" {
			continue
		}
		d, ok := decoded(t, m.Msg).(*protocol.Delta)
		if !ok {
			t.Fatalf("import with a covered floor and debt planned %T, want a delta", m.Msg)
		}
		if d.BaseTick != t0+2 || !slices.Equal(ids(d.Changed), []protocol.ParticipantID{2, 3}) {
			t.Fatalf("imported delta from %d carried %v, want base %d and [2 3]", d.BaseTick, ids(d.Changed), t0+2)
		}
		return
	}
	t.Fatal("no message planned for the importing peer")
}
