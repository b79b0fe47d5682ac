package core

import (
	"math/rand"
	"slices"
	"testing"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

func ent(id protocol.ParticipantID, x float64) protocol.EntityState {
	return protocol.EntityState{
		Participant: id,
		Pose:        protocol.QuantizePose(mathx.V3(x, 0, 0), mathx.QuatIdentity()),
	}
}

// snapshotOf and deltaOf build the reference messages into fresh ones.
func snapshotOf(s *Store, filter func(protocol.ParticipantID) bool) *protocol.Snapshot {
	msg := &protocol.Snapshot{}
	s.SnapshotInto(filter, msg)
	return msg
}

func deltaOf(s *Store, base uint64, filter func(protocol.ParticipantID) bool) *protocol.Delta {
	msg := &protocol.Delta{}
	s.DeltaSinceInto(base, filter, msg)
	return msg
}

func TestStoreUpsertGet(t *testing.T) {
	s := NewStore()
	s.BeginTick()
	s.Upsert(ent(1, 1))
	got, ok := s.Get(1)
	if !ok || got.Participant != 1 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if _, ok := s.Get(2); ok {
		t.Error("absent entity found")
	}
}

func TestStoreRemoveLogsRemoval(t *testing.T) {
	s := NewStore()
	s.BeginTick()
	s.Upsert(ent(1, 0))
	s.BeginTick()
	if !s.Remove(1) {
		t.Fatal("remove failed")
	}
	if s.Remove(1) {
		t.Error("double remove succeeded")
	}
	d := deltaOf(s, 1, nil)
	if len(d.Removed) != 1 || d.Removed[0] != 1 {
		t.Errorf("delta removals = %v", d.Removed)
	}
	// A peer already past the removal tick doesn't see it.
	d = deltaOf(s, 2, nil)
	if len(d.Removed) != 0 {
		t.Errorf("stale removal leaked: %v", d.Removed)
	}
}

// TestStoreIDsSorted holds the server side's walk order to a map model: 2,000
// seeded Upsert / UpsertIfChanged / Remove calls over a pool of 64 IDs, re-adds
// landing in recycled slots included, and after every call ordered() must be
// the model's sorted keys, each entry naming the slot the ID→slot map holds.
func TestStoreIDsSorted(t *testing.T) {
	s := NewStore()
	s.BeginTick()
	for _, id := range []protocol.ParticipantID{9, 2, 7, 1} {
		s.Upsert(ent(id, 0))
	}
	ids := s.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}

	s = NewStore()
	model := make(map[protocol.ParticipantID]bool)
	rng := rand.New(rand.NewSource(7))
	reseated := 0
	for step := 0; step < 2000; step++ {
		if step%16 == 0 {
			s.BeginTick()
		}
		id := protocol.ParticipantID(1 + rng.Intn(64))
		switch op := rng.Intn(3); {
		case op == 0:
			if !model[id] && len(s.free) > 0 {
				reseated++
			}
			s.Upsert(ent(id, float64(rng.Intn(4))))
			model[id] = true
		case op == 1:
			if !model[id] && len(s.free) > 0 {
				reseated++
			}
			s.UpsertIfChanged(ent(id, float64(rng.Intn(4))))
			model[id] = true
		default:
			if got := s.Remove(id); got != model[id] {
				t.Fatalf("step %d: Remove(%d) = %v, model holds it: %v", step, id, got, model[id])
			}
			delete(model, id)
		}
		want := make([]protocol.ParticipantID, 0, len(model))
		for id := range model {
			want = append(want, id)
		}
		slices.Sort(want)
		order := s.ordered()
		if len(order) != len(want) || len(s.slots) != len(want) {
			t.Fatalf("step %d: %d order entries, %d mapped, model %d", step, len(order), len(s.slots), len(want))
		}
		for i, is := range order {
			if is.id != want[i] {
				t.Fatalf("step %d: order[%d] = %d, model %d", step, i, is.id, want[i])
			}
			if slot := s.slots[is.id]; slot != is.slot {
				t.Fatalf("step %d: order says %d is in slot %d, map %d", step, is.id, is.slot, slot)
			}
		}
	}
	if reseated < 100 {
		t.Fatalf("only %d seats reused a vacated slot", reseated)
	}
}

func TestSnapshotFilter(t *testing.T) {
	s := NewStore()
	s.BeginTick()
	s.Upsert(ent(1, 0))
	s.Upsert(ent(2, 0))
	snap := snapshotOf(s, func(id protocol.ParticipantID) bool { return id == 2 })
	if len(snap.Entities) != 1 || snap.Entities[0].Participant != 2 {
		t.Errorf("filtered snapshot = %+v", snap.Entities)
	}
	full := snapshotOf(s, nil)
	if len(full.Entities) != 2 {
		t.Errorf("full snapshot = %d entities", len(full.Entities))
	}
}

func TestDeltaSinceOnlyChanged(t *testing.T) {
	s := NewStore()
	s.BeginTick() // tick 1
	s.Upsert(ent(1, 0))
	s.Upsert(ent(2, 0))
	s.BeginTick() // tick 2
	s.Upsert(ent(2, 5))
	d := deltaOf(s, 1, nil)
	if len(d.Changed) != 1 || d.Changed[0].Participant != 2 {
		t.Errorf("delta = %+v", d.Changed)
	}
	if d.BaseTick != 1 || d.Tick != 2 {
		t.Errorf("delta ticks = %d->%d", d.BaseTick, d.Tick)
	}
}

func TestTouchForcesReplication(t *testing.T) {
	s := NewStore()
	s.BeginTick()
	s.Upsert(ent(1, 0))
	s.BeginTick()
	if !s.Touch(1) {
		t.Fatal("touch failed")
	}
	if s.Touch(99) {
		t.Error("touch of absent entity succeeded")
	}
	d := deltaOf(s, 1, nil)
	if len(d.Changed) != 1 {
		t.Errorf("touched entity not in delta: %+v", d.Changed)
	}
}

func TestPruneRemovals(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.BeginTick()
		id := protocol.ParticipantID(i)
		s.Upsert(ent(id, 0))
		s.Remove(id)
	}
	if s.RemovalLogLen() != 5 {
		t.Fatalf("log = %d", s.RemovalLogLen())
	}
	s.PruneRemovals(3)
	if s.RemovalLogLen() != 2 {
		t.Errorf("log after prune = %d, want 2", s.RemovalLogLen())
	}
	d := deltaOf(s, 3, nil)
	if len(d.Removed) != 2 {
		t.Errorf("delta removals after prune = %v", d.Removed)
	}
}

func TestApplySnapshotReplacesState(t *testing.T) {
	s := NewStore()
	s.BeginTick()
	s.Upsert(ent(1, 0))

	recv := NewStore()
	recv.BeginTick()
	recv.Upsert(ent(99, 0)) // stale state that must vanish
	snap := snapshotOf(s, nil)
	recv.ApplySnapshot(snap)
	if recv.Tick() != s.Tick() {
		t.Errorf("tick = %d, want %d", recv.Tick(), s.Tick())
	}
	if _, ok := recv.Get(99); ok {
		t.Error("stale entity survived snapshot")
	}
	if _, ok := recv.Get(1); !ok {
		t.Error("snapshot entity missing")
	}
}

func TestApplyDeltaOrdering(t *testing.T) {
	src := NewStore()
	src.BeginTick() // 1
	src.Upsert(ent(1, 1))
	snap := snapshotOf(src, nil)

	recv := NewStore()
	recv.ApplySnapshot(snap)

	src.BeginTick() // 2
	src.Upsert(ent(1, 2))
	d12 := deltaOf(src, 1, nil)

	src.BeginTick() // 3
	src.Upsert(ent(2, 3))
	d23 := deltaOf(src, 2, nil)

	// A delta based beyond our state must be refused.
	if recv.ApplyDelta(d23) {
		t.Error("gap delta accepted")
	}
	if recv.ApplyDelta(d12) != true {
		t.Error("in-order delta refused")
	}
	if !recv.ApplyDelta(d23) {
		t.Error("follow-up delta refused")
	}
	if recv.Tick() != 3 || recv.Len() != 2 {
		t.Errorf("final state tick=%d len=%d", recv.Tick(), recv.Len())
	}
	// A stale duplicate is a no-op success.
	if !recv.ApplyDelta(d12) {
		t.Error("stale duplicate refused")
	}
}

func TestApplyDeltaRemovals(t *testing.T) {
	src := NewStore()
	src.BeginTick()
	src.Upsert(ent(1, 0))
	src.Upsert(ent(2, 0))
	recv := NewStore()
	recv.ApplySnapshot(snapshotOf(src, nil))

	src.BeginTick()
	src.Remove(1)
	if !recv.ApplyDelta(deltaOf(src, 1, nil)) {
		t.Fatal("delta refused")
	}
	if _, ok := recv.Get(1); ok {
		t.Error("removed entity survived delta")
	}
	if _, ok := recv.Get(2); !ok {
		t.Error("unrelated entity lost")
	}
}

// TestStoreTickAllocationFree pins the authoring side's steady state at zero
// heap objects from a store's second tick on: BeginTick, re-authoring every
// live entity and the unfiltered delta build into a reused message.
func TestStoreTickAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	const pop = 64
	s := NewStore()
	var msg protocol.Delta
	tick := func() {
		now := s.BeginTick()
		for id := protocol.ParticipantID(1); id <= pop; id++ {
			s.Upsert(ent(id, float64(now)))
		}
		s.DeltaSinceInto(now-1, nil, &msg)
		if len(msg.Changed) != pop {
			t.Fatalf("tick %d: delta carried %d changes, want %d", now, len(msg.Changed), pop)
		}
	}
	tick() // the warm tick seats the population and sizes msg
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("steady-state store tick allocates %.2f objects, want 0", allocs)
	}
}

// TestWriteAfterPlanIsReEncoded: content authored between a tick's plan and
// the next BeginTick is a second write stamped with the planned tick. The next
// delta must carry it, not the bytes encoded for the plan; a wire cache keyed
// by changedTick sends the first write's bytes here.
func TestWriteAfterPlanIsReEncoded(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	if err := r.AddPeer("p", nil); err != nil {
		t.Fatal(err)
	}
	s.BeginTick()
	s.Upsert(ent(1, 0))
	_ = r.PlanTick()
	if err := r.Ack("p", 1); err != nil {
		t.Fatal(err)
	}
	s.BeginTick()
	s.Upsert(ent(1, 1))
	_ = r.PlanTick() // encodes entity 1 as stamped with tick 2
	second := ent(1, 2)
	second.Expression = []byte{9}
	s.Upsert(second) // stamped with tick 2 again
	s.BeginTick()
	plan := r.PlanTick()
	if len(plan) != 1 {
		t.Fatalf("planned %d messages, want 1", len(plan))
	}
	d := decoded(t, plan[0].Msg).(*protocol.Delta)
	if len(d.Changed) != 1 || !entityEqual(d.Changed[0], second) {
		t.Fatalf("tick-3 delta carried %+v, want the second write %+v", d.Changed, second)
	}
}

// TestReseatedSlotNeverSendsOldTenantBytes: a slot vacated and reseated by a
// new ID — here in the tick its old tenant was encoded, so the stamps match —
// carries the new tenant's bytes.
func TestReseatedSlotNeverSendsOldTenantBytes(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	if err := r.AddPeer("p", nil); err != nil {
		t.Fatal(err)
	}
	s.BeginTick()
	s.Upsert(ent(1, 0))
	_ = r.PlanTick() // encodes entity 1 into its slot
	s.Remove(1)
	tenant := ent(2, 3)
	s.Upsert(tenant)
	if s.slots[2] != 0 {
		t.Fatalf("entity 2 seated in slot %d, want the vacated slot 0", s.slots[2])
	}
	s.BeginTick()
	snap := decoded(t, r.PlanTick()[0].Msg).(*protocol.Snapshot) // never acked: a snapshot
	if len(snap.Entities) != 1 || !entityEqual(snap.Entities[0], tenant) {
		t.Fatalf("snapshot carried %+v, want only the new tenant %+v", snap.Entities, tenant)
	}
}

// TestPeerlessStoreEncodesNothing: a store whose replicator has no peer — a
// relay with no clients yet, or after its last client left — fills no wire
// bytes; its first peer's plan encodes what it sends.
func TestPeerlessStoreEncodesNothing(t *testing.T) {
	s := NewStore()
	r := NewReplicator(s, ReplConfig{})
	for tick := 0; tick < 3; tick++ {
		s.BeginTick()
		s.Upsert(ent(1, float64(tick)))
		s.Upsert(ent(2, float64(tick)))
		if plan := r.PlanTick(); len(plan) != 0 {
			t.Fatalf("a peerless replicator planned %d messages", len(plan))
		}
	}
	if len(s.wire) != 0 {
		t.Fatalf("the store holds wire bytes for %d slots with no peer to send them to", len(s.wire))
	}
	for slot := range s.recs {
		if s.recs[slot].encoded {
			t.Fatalf("slot %d is marked encoded with no peer to send it to", slot)
		}
	}
	if err := r.AddPeer("p", nil); err != nil {
		t.Fatal(err)
	}
	snap := decoded(t, r.PlanTick()[0].Msg).(*protocol.Snapshot)
	if len(snap.Entities) != 2 || !entityEqual(snap.Entities[1], ent(2, 2)) {
		t.Fatalf("first peer's snapshot carried %+v", snap.Entities)
	}
}
