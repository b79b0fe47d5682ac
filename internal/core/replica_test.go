package core

import (
	"testing"
	"time"

	"metaclass/internal/metrics"
	"metaclass/internal/protocol"
)

// The replica keeps no freshness watermark of its own: the playout buffer's
// newest stamp is the watermark. These tests pin the behaviour that rests on.

func entAt(id protocol.ParticipantID, captured time.Duration) protocol.EntityState {
	e := ent(id, float64(captured)/float64(time.Second))
	e.CapturedAt = captured
	return e
}

const ms = time.Millisecond

func TestReplicaLatencyCountsFreshStampsOnly(t *testing.T) {
	r := NewReplica(0, nil)
	r.Latency = &metrics.Histogram{}
	apply := func(m protocol.Message, now time.Duration) {
		t.Helper()
		if _, ok := r.Apply(m, now); !ok {
			t.Fatalf("apply at %v rejected", now)
		}
	}
	want := func(count uint64, sum time.Duration) {
		t.Helper()
		if r.Latency.Count() != count || r.Latency.Sum() != sum {
			t.Fatalf("latency count/sum = %d/%v, want %d/%v",
				r.Latency.Count(), r.Latency.Sum(), count, sum)
		}
	}
	apply(&protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{entAt(7, 100*ms)}}, 110*ms)
	want(1, 10*ms)
	// Keyframe redelivery of the same stamp: no new information.
	apply(&protocol.Snapshot{Tick: 2, Entities: []protocol.EntityState{entAt(7, 100*ms)}}, 150*ms)
	want(1, 10*ms)
	// A late, older stamp is buffered for interpolation but is not fresh.
	apply(&protocol.Delta{BaseTick: 2, Tick: 3, Changed: []protocol.EntityState{entAt(7, 60*ms)}}, 160*ms)
	want(1, 10*ms)
	apply(&protocol.Delta{BaseTick: 3, Tick: 4, Changed: []protocol.EntityState{entAt(7, 140*ms)}}, 170*ms)
	want(2, 40*ms)
	// The stale stamps after the advance still do not count.
	apply(&protocol.Delta{BaseTick: 4, Tick: 5, Changed: []protocol.EntityState{entAt(7, 100*ms)}}, 180*ms)
	want(2, 40*ms)
	if st := r.Stats(); st.BufferCreates != 1 || st.BufferDrops != 0 {
		t.Fatalf("buffer churn = %+v, want one create and no drop", st)
	}
}

func TestReplicaReAddedEntityStartsFresh(t *testing.T) {
	r := NewReplica(0, nil)
	r.Latency = &metrics.Histogram{}
	r.Apply(&protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{entAt(7, 500*ms)}}, 510*ms)
	// Removed, then re-added later with a stamp older than the one the first
	// incarnation reached: the new incarnation's first sample is fresh.
	r.Apply(&protocol.Delta{BaseTick: 1, Tick: 2, Removed: []protocol.ParticipantID{7}}, 520*ms)
	if _, ok := r.Pose(7, 520*ms); ok {
		t.Fatal("removed entity still has a playout buffer")
	}
	r.Apply(&protocol.Delta{BaseTick: 2, Tick: 3, Changed: []protocol.EntityState{entAt(7, 300*ms)}}, 530*ms)
	if got := r.Latency.Count(); got != 2 {
		t.Fatalf("latency count = %d after re-add, want 2", got)
	}
	// Removed and re-added inside one delta window: in both lists, ends up
	// present with a fresh buffer whose only sample is the re-add's.
	r.Apply(&protocol.Delta{BaseTick: 3, Tick: 4,
		Removed: []protocol.ParticipantID{7},
		Changed: []protocol.EntityState{entAt(7, 200*ms)}}, 540*ms)
	if got := r.Latency.Count(); got != 3 {
		t.Fatalf("latency count = %d after remove+re-add, want 3", got)
	}
	p, ok := r.Pose(7, 0) // before every stamp: clamps to the oldest sample
	if !ok || p.Position.X != 0.2 {
		t.Fatalf("oldest sample after re-add = %v ok=%v, want the re-add's x=0.2", p.Position, ok)
	}
	if st := r.Stats(); st.BufferCreates != 3 || st.BufferDrops != 2 {
		t.Fatalf("buffer churn = %+v, want 3 creates / 2 drops", st)
	}
}

func TestReplicaRetainedExpiresAfterNewestStamp(t *testing.T) {
	r := NewReplica(0, nil)
	r.RetainOmitted = true
	r.RetainFor = time.Second
	var removed []protocol.ParticipantID
	r.OnRemove = func(id protocol.ParticipantID) { removed = append(removed, id) }
	has := func(id protocol.ParticipantID) bool {
		_, ok := r.Store().Get(id)
		return ok
	}

	r.Apply(&protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{entAt(1, 0), entAt(2, 0)}}, 10*ms)
	// 1 falls out of the interest tier: omitted, retained.
	r.Apply(&protocol.Snapshot{Tick: 2, Entities: []protocol.EntityState{entAt(2, 400*ms)}}, 410*ms)
	// Redelivery of 1's old state (a keyframe re-send) ends the omission but
	// must not restart its clock: the capture stamp has not advanced.
	r.Apply(&protocol.Delta{BaseTick: 2, Tick: 3, Changed: []protocol.EntityState{entAt(1, 0)}}, 600*ms)
	r.Apply(&protocol.Snapshot{Tick: 4, Entities: []protocol.EntityState{entAt(2, 800*ms)}}, 900*ms)
	if !has(1) || len(removed) != 0 {
		t.Fatalf("entity 1 expired %v after its newest stamp, RetainFor is 1s", 900*ms)
	}
	// 1.1 s after its newest stamp (0), 0.5 s after the redelivery.
	r.Apply(&protocol.Delta{BaseTick: 4, Tick: 5, Changed: []protocol.EntityState{entAt(2, 1000*ms)}}, 1100*ms)
	if has(1) {
		t.Fatal("retained entity survived RetainFor past its newest stamp")
	}
	if _, ok := r.Pose(1, 1100*ms); ok {
		t.Fatal("expired entity still has a playout buffer")
	}
	if len(removed) != 1 || removed[0] != 1 {
		t.Fatalf("OnRemove = %v, want [1]", removed)
	}
	if !has(2) {
		t.Fatal("live entity dropped")
	}
	if st := r.Stats(); st.Retained != 2 || st.BufferDrops != 1 {
		t.Fatalf("stats = %+v, want 2 retentions / 1 drop", st)
	}
}
