package core

import (
	"testing"

	"metaclass/internal/protocol"
)

// TestReorderedKeyframeDoesNotRewind pins the reordered-keyframe hole
// (PERFORMANCE.md "The ack contract / Still open"): snapshot 1, snapshot 2
// and a delta on base 2 are built from one store, and the replica receives
// snapshot 2, then snapshot 1 — reordered behind the newer keyframe — then
// the delta. Replica.Apply applies any Snapshot, so snapshot 1 puts the
// replica back at tick 1 and the delta is refused as a gap. It is skipped
// until the model says which keyframes a replica may refuse: handoff relies
// on applying a keyframe whose tick is below the replica's.
func TestReorderedKeyframeDoesNotRewind(t *testing.T) {
	t.Skip("reordered keyframe: Replica.Apply applies a Snapshot older than the replica, and the next delta is a gap")
	s := NewStore()
	s.BeginTick()
	s.Upsert(ent(1, 1))
	snap1 := snapshotOf(s, nil)
	s.BeginTick()
	s.Upsert(ent(1, 2))
	snap2 := snapshotOf(s, nil)
	s.BeginTick()
	s.Upsert(ent(1, 3))
	delta := deltaOf(s, 2, nil)

	rx := NewReplica(0, nil)
	rx.Apply(snap2, 0)
	rx.Apply(snap1, 0)
	if tick, ok := rx.Apply(delta, 0); !ok || tick != 3 {
		t.Fatalf("delta on base 2 after a reordered keyframe: ack %d, applied %v; want 3, true", tick, ok)
	}
	if got, _ := rx.Store().Get(1); !entityEqual(got, ent(1, 3)) {
		t.Fatalf("replica holds %+v, want the delta's state", got)
	}
}

// TestWriteAfterPlanOfOwedEntityIsDelivered pins the owed-stamping hole
// (PERFORMANCE.md "The ack contract / Still open"). One peer refuses entity 1
// on ticks 1–8 and on tick 10, over a one-tick link: each plan is applied and
// acked only after the next PlanTick. Entity 1 is written at tick 1, and the
// owed sweep carries that state at tick 9. A second write lands after plan 9,
// so it is stamped 9. Tick 10 refuses the entity, and OwedSet.owe takes the
// tick-9 stamp for state plan 9 carried; the ack of 9 then settles the debt,
// and no later delta since 9 holds the write. The replica keeps the first
// state forever. Without the tick-10 refusal it converges.
func TestWriteAfterPlanOfOwedEntityIsDelivered(t *testing.T) {
	t.Skip("owed stamping: a write after plan T of an entity refused at T+1 is taken as carried by plan T")
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	refused := func(tick uint64) []uint64 {
		if slot, ok := s.slots[1]; ok && (tick <= 8 || tick == 10) {
			return []uint64{1 << slot}
		}
		return nil
	}
	if err := r.AddPeerRefusing("p", refused); err != nil {
		t.Fatal(err)
	}
	rx := NewReplica(0, nil)
	var inflight []protocol.Message
	for s.BeginTick(); s.Tick() <= 40; s.BeginTick() {
		if s.Tick() == 1 {
			s.Upsert(ent(1, 1))
		}
		plan := r.PlanTick()
		for _, m := range inflight {
			if tick, ok := rx.Apply(m, 0); ok {
				if err := r.Ack("p", tick); err != nil {
					t.Fatal(err)
				}
			}
		}
		inflight = inflight[:0]
		for _, pm := range plan {
			inflight = append(inflight, decoded(t, pm.Msg))
		}
		if s.Tick() == 9 {
			s.Upsert(ent(1, 2))
		}
	}
	got, _ := rx.Store().Get(1)
	want, _ := s.Get(1)
	if !entityEqual(got, want) {
		t.Fatalf("replica holds PosMM[0]=%d, store holds %d", got.Pose.PosMM[0], want.Pose.PosMM[0])
	}
}
