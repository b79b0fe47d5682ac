package core

import (
	"testing"

	"metaclass/internal/protocol"
)

// TestAckFloor pins what Replicator.Ack does to a peer's delta baseline for
// every shape of ack the send log distinguishes. Each step authors a change
// and plans `plan` ticks (so every tick sends a message), then acks `ack`
// (0 = no ack), then optionally re-imports the peer's own baseline; `want`
// is the floor StatsOf must report afterwards.
func TestAckFloor(t *testing.T) {
	type step struct {
		plan   int
		ack    uint64
		reseed bool
		want   uint64
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name:  "in-order acks advance the floor to the acked tick",
			steps: []step{{plan: 1, ack: 1, want: 1}, {plan: 1, ack: 2, want: 2}, {plan: 1, ack: 3, want: 3}},
		},
		{
			// Deltas 2 and 3 share base 1; ack 2 moves the floor to 2, so
			// delta 4 is built on base 2. Its ack skips delta 3, whose window
			// (1,3] is the only one that carried late stamp-2 content: the
			// floor falls back to 1, below where it stood.
			name: "skipping a delta with an older base regresses the floor below itself",
			steps: []step{
				{plan: 1, ack: 1, want: 1}, {plan: 2, ack: 2, want: 2},
				{plan: 1, ack: 4, want: 1},
				// A replica that then sees delta 3 arrive stale re-acks 4, and
				// delta 3's own ack may trail in: neither undoes the repair.
				{ack: 4, want: 1}, {ack: 3, want: 1},
				{plan: 1, ack: 5, want: 5}, // the re-cover delta's ack closes the window
			},
		},
		{
			// Delta 3 re-carries everything delta 2 did: nothing to repair.
			name:  "skipping a delta that shares the acked base does not regress",
			steps: []step{{plan: 1, ack: 1, want: 1}, {plan: 2, ack: 3, want: 3}},
		},
		{
			// Ticks 4 through maxDeltaWindow+3 go unacked, so the last of them
			// lies past the window and is a keyframe; a snapshot proves
			// everything below it whatever was skipped. Had it been a delta on
			// base 2, skipping delta 3 (base 1) would regress the floor to 1.
			name: "a snapshot ack covers every skipped delta",
			steps: []step{
				{plan: 1, ack: 1, want: 1}, {plan: 2, ack: 2, want: 2},
				{plan: maxDeltaWindow, want: 2},
				{ack: maxDeltaWindow + 3, want: maxDeltaWindow + 3},
			},
		},
		{
			name: "duplicate and regressed acks leave the floor alone",
			steps: []step{
				{plan: 1, ack: 1, want: 1}, {plan: 1, ack: 2, want: 2},
				{ack: 2, want: 2}, {ack: 1, want: 2},
			},
		},
		{
			// The peer goes silent for more ticks than the log holds; the ack
			// of an evicted tick is a plain advance, and the ack of the newest
			// tick still resolves against the surviving records.
			name: "an ack for a tick evicted from the send log still advances",
			steps: []step{
				{plan: 1, ack: 1, want: 1},
				{plan: maxSentLog + 100, ack: 50, want: 50},
				{ack: maxSentLog + 101, want: maxSentLog + 101},
			},
		},
		{
			// Same traffic as the regression case, but the baseline is
			// re-imported before ack 4: the log is gone, so nothing regresses.
			name: "ImportBaseline clears the send log",
			steps: []step{
				{plan: 1, ack: 1, want: 1}, {plan: 2, ack: 2, want: 2},
				{plan: 1, want: 2}, {reseed: true, want: 2},
				{ack: 4, want: 4},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			r := NewReplicator(s, ReplConfig{})
			if err := r.AddPeer("p", nil); err != nil {
				t.Fatal(err)
			}
			for i, st := range tc.steps {
				for n := 0; n < st.plan; n++ {
					s.Upsert(ent(1, float64(s.BeginTick())))
					if got := len(r.PlanTick()); got != 1 {
						t.Fatalf("step %d: tick %d planned %d messages, want 1", i, s.Tick(), got)
					}
				}
				if st.ack != 0 {
					if err := r.Ack("p", st.ack); err != nil {
						t.Fatal(err)
					}
				}
				if st.reseed {
					b, err := r.ExportBaseline("p")
					if err != nil {
						t.Fatal(err)
					}
					if err := r.ImportBaseline("p", b); err != nil {
						t.Fatal(err)
					}
					if n := len(r.peers["p"].sent); n != 0 {
						t.Fatalf("step %d: %d send records survived ImportBaseline", i, n)
					}
				}
				got, err := r.StatsOf("p")
				if err != nil {
					t.Fatal(err)
				}
				if !got.Acked || got.AckTick != st.want {
					t.Fatalf("step %d: floor = %d (acked %v), want %d", i, got.AckTick, got.Acked, st.want)
				}
				if n := len(r.peers["p"].sent); n > maxSentLog {
					t.Fatalf("step %d: send log holds %d records, bound is %d", i, n, maxSentLog)
				}
			}
		})
	}
}

// TestLostCarrierConverges takes away the one delta that carries a change
// authored between two ticks — lost outright, or delayed past the next delta
// so the replica drops it as stale. Acks run one tick behind the plan, as
// they do on any link with latency, so the change — stamped with the
// already-planned tick — lies above the next delta's base and at the base of
// every delta after it. Later deltas apply cleanly and keep being acked; only
// the floor regression on the ack that skips the carrier sends the change
// again.
func TestLostCarrierConverges(t *testing.T) {
	for _, delayed := range []bool{false, true} {
		name := "lost"
		if delayed {
			name = "delayed past the next delta"
		}
		t.Run(name, func(t *testing.T) {
			src := NewStore()
			repl := NewReplicator(src, ReplConfig{})
			if err := repl.AddPeer("rx", nil); err != nil {
				t.Fatal(err)
			}
			rx := NewReplica(0, nil)
			var inFlight []uint64 // acks that reach the replicator after its next plan
			apply := func(m protocol.Message) {
				if ack, ok := rx.Apply(m, 0); ok {
					inFlight = append(inFlight, ack)
				}
			}
			// tick plans one message and returns it undelivered when hold is set.
			tick := func(hold bool) protocol.Message {
				src.Upsert(ent(1, float64(src.BeginTick())))
				plan := repl.PlanTick()
				for _, ack := range inFlight {
					if err := repl.Ack("rx", ack); err != nil {
						t.Fatal(err)
					}
				}
				inFlight = inFlight[:0]
				if len(plan) != 1 {
					t.Fatalf("tick %d planned %d messages, want 1", src.Tick(), len(plan))
				}
				if hold {
					return decoded(t, plan[0].Msg)
				}
				apply(decoded(t, plan[0].Msg))
				return nil
			}
			for i := 0; i < 5; i++ {
				tick(false)
			}
			late := ent(2, 7)
			src.Upsert(late)      // after the plan, before the next BeginTick
			carrier := tick(true) // the only delta whose window holds the change
			tick(false)
			if delayed {
				apply(carrier) // stale by now: the replica re-acks its current tick
			}
			for i := 0; i < 5; i++ {
				tick(false)
			}
			got, ok := rx.Store().Get(2)
			if !ok || !entityEqual(got, late) {
				t.Fatalf("replica never received the change its carrier delta held: got %+v (present %v)", got, ok)
			}
			if st := rx.Stats(); st.Rejected != 0 {
				t.Fatalf("replica rejected %d messages; the loss must be invisible to it", st.Rejected)
			}
		})
	}
}

// TestStaleRemovalDoesNotEraseReAdd: an entity is removed and re-added
// inside a filtered peer's delta window. The tick the filter admits it, the
// delta carries the removal and the re-add, and its ack settles the debt.
// The next tick is built on the same base (the ack is still in flight) and
// the filter rejects the entity: the logged removal must stay home, or the
// replica deletes an entity nothing will ever send again.
func TestStaleRemovalDoesNotEraseReAdd(t *testing.T) {
	src := NewStore()
	repl := NewReplicator(src, ReplConfig{})
	admit := true
	filter := func(id protocol.ParticipantID, _ uint64) bool { return id != 2 || admit }
	if err := repl.AddPeer("rx", filter); err != nil {
		t.Fatal(err)
	}
	rx := NewReplica(0, nil)
	// deliver plans the current tick and applies it, returning the ack.
	deliver := func() uint64 {
		t.Helper()
		plan := repl.PlanTick()
		if len(plan) != 1 {
			t.Fatalf("tick %d planned %d messages, want 1", src.Tick(), len(plan))
		}
		ack, ok := rx.Apply(decoded(t, plan[0].Msg), 0)
		if !ok {
			t.Fatalf("tick %d message rejected", src.Tick())
		}
		return ack
	}

	src.BeginTick()
	src.Upsert(ent(1, 0))
	src.Upsert(ent(2, 0))
	if err := repl.Ack("rx", deliver()); err != nil { // snapshot: the base every delta below shares
		t.Fatal(err)
	}
	// next opens a tick whose delta is never empty, with entity 2 admitted or not.
	next := func(admit2 bool) {
		admit = admit2
		src.Upsert(ent(1, float64(src.BeginTick())))
	}

	next(false)
	src.Remove(2)
	deliver()
	next(false)
	readd := ent(2, 5)
	src.Upsert(readd)
	deliver() // suppressed: owed
	next(true)
	ackAdmitted := deliver() // Removed=[2], Changed=[1,2]
	next(false)
	ackRejected := deliver() // same base; a bare Removed=[2] here erases the re-add

	for _, ack := range []uint64{ackAdmitted, ackRejected} {
		if err := repl.Ack("rx", ack); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := repl.StatsOf("rx"); st.Owed != 0 {
		t.Fatalf("owed = %d, want 0: the admitted tick's ack settled the debt", st.Owed)
	}
	if got, ok := rx.Store().Get(2); !ok || !entityEqual(got, readd) {
		t.Fatalf("replica lost the re-added entity: got %+v (present %v)", got, ok)
	}
}
