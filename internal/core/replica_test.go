package core

import (
	"fmt"
	"testing"
	"time"

	"metaclass/internal/metrics"
	"metaclass/internal/pose"
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

// TestReplicaSamplesCarryEveryWireField: every sample a display replica
// writes into its ring is the entity's dequantized pose and wire velocity,
// whether it lands in order or late, in a fresh ring or in one recycled from
// a departed tenant: each read equals a standalone buffer's fed those samples.
func TestReplicaSamplesCarryEveryWireField(t *testing.T) {
	r := NewReplica(0, pose.Linear{})
	var tick uint64
	for tenant, vel := range [][3]int64{{1500, 0, -700}, {-300, 200, 900}} {
		want := pose.NewInterpBuffer(0, 8, pose.Linear{})
		for _, at := range []time.Duration{100 * ms, 200 * ms, 150 * ms} { // the last one late
			e := entAt(7, at)
			e.VelMMS = vel
			pos, rot := e.Pose.Dequantize()
			want.Push(pose.Pose{Time: at, Position: pos, Rotation: rot, Velocity: protocol.VelocityOf(vel)})
			tick++
			r.Apply(&protocol.Delta{BaseTick: tick - 1, Tick: tick, Changed: []protocol.EntityState{e}}, 210*ms)
		}
		for _, now := range []time.Duration{125 * ms, 175 * ms, 450 * ms} {
			got, gotOK := r.Pose(7, now)
			if w, _ := want.Sample(now); !gotOK || got != w {
				t.Fatalf("tenant %d: Pose(7, %v) = %v,%v, want %v (velocity %v)", tenant, now, got, gotOK, w, w.Velocity)
			}
		}
		tick++
		r.Apply(&protocol.Delta{BaseTick: tick - 1, Tick: tick, Removed: []protocol.ParticipantID{7}}, 220*ms)
	}
}

func TestReplicaRetainedExpiresAfterNewestStamp(t *testing.T) {
	r := NewReplica(0, nil)
	r.RetainOmitted = true
	var removed []protocol.ParticipantID
	r.OnRemove = func(id protocol.ParticipantID) { removed = append(removed, id) }
	has := func(id protocol.ParticipantID) bool {
		_, ok := r.Store().Get(id)
		return ok
	}

	r.Apply(&protocol.Snapshot{Tick: 1, Entities: []protocol.EntityState{entAt(1, 0), entAt(2, 0)}}, 20*ms)
	// 1 falls out of the interest tier: omitted, retained.
	r.Apply(&protocol.Snapshot{Tick: 2, Entities: []protocol.EntityState{entAt(2, 800*ms)}}, 820*ms)
	// Redelivery of 1's old state (a keyframe re-send) ends the omission but
	// must not restart its clock: the capture stamp has not advanced.
	r.Apply(&protocol.Delta{BaseTick: 2, Tick: 3, Changed: []protocol.EntityState{entAt(1, 0)}}, 1200*ms)
	r.Apply(&protocol.Snapshot{Tick: 4, Entities: []protocol.EntityState{entAt(2, 1600*ms)}}, 1800*ms)
	if !has(1) || len(removed) != 0 {
		t.Fatalf("entity 1 expired %v after its newest stamp, retainFor is %v", 1800*ms, retainFor)
	}
	// 2.2 s after its newest stamp (0), 1 s after the redelivery.
	r.Apply(&protocol.Delta{BaseTick: 4, Tick: 5, Changed: []protocol.EntityState{entAt(2, 2000*ms)}}, 2200*ms)
	if has(1) {
		t.Fatal("retained entity survived retainFor past its newest stamp")
	}
	if _, ok := r.Pose(1, 2200*ms); ok {
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

// applyFixture is a replica holding pop entities (IDs 1..pop) after one
// keyframe, and a message-building helper that stamps fresh capture times.
func applyFixture(pop int) (*Replica, []protocol.EntityState) {
	return fillFixture(NewReplica(100*ms, nil), pop)
}

// fillFixture is applyFixture over a replica of either kind.
func fillFixture(r *Replica, pop int) (*Replica, []protocol.EntityState) {
	r.RetainOmitted = true
	r.Latency = &metrics.Histogram{}
	ents := make([]protocol.EntityState, pop)
	for i := range ents {
		ents[i] = entAt(protocol.ParticipantID(i+1), 0)
	}
	r.Apply(&protocol.Snapshot{Tick: 1, Entities: ents}, 0)
	return r, ents
}

// TestReplicaApplyAllocationFree pins the receive path's steady state at
// zero heap objects, for a display replica and a sync one: a delta over
// known entities, and a keyframe over an unchanged population (listing
// everyone, and listing a third with the rest retained).
func TestReplicaApplyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	for _, kind := range []struct {
		name string
		r    *Replica
	}{{"display", NewReplica(100*ms, nil)}, {"sync", NewSyncReplica()}} {
		replicaApplyAllocationFree(t, kind.name, kind.r)
	}
}

func replicaApplyAllocationFree(t *testing.T, kind string, r *Replica) {
	r, ents := fillFixture(r, 100)
	tick, now := uint64(1), time.Duration(0)
	stamp := func(list []protocol.EntityState) {
		tick++
		now += 10 * ms // the filtered keyframes' 101 applies stay inside retainFor: omissions stay retained
		for i := range list {
			list[i].CapturedAt = now
		}
	}
	d := &protocol.Delta{}
	delta := func() {
		d.Changed = d.Changed[:0]
		for i := 0; i < len(ents); i += 3 {
			d.Changed = append(d.Changed, ents[i])
		}
		stamp(d.Changed)
		d.BaseTick, d.Tick = tick-1, tick
		if _, ok := r.Apply(d, now); !ok {
			t.Fatal("delta rejected")
		}
	}
	snap := &protocol.Snapshot{}
	keyframe := func(n int) func() {
		return func() {
			stamp(ents[:n])
			snap.Tick, snap.Entities = tick, ents[:n]
			r.Apply(snap, now)
		}
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"delta", delta}, {"keyframe", keyframe(100)}, {"filtered keyframe", keyframe(34)}} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s replica: steady-state %s allocates %.2f objects, want 0", kind, c.name, allocs)
		}
	}
	if st := r.Stats(); st.BufferCreates != 100 || st.BufferDrops != 0 || st.Rejected != 0 {
		t.Fatalf("%s replica: fixture drifted from steady state: %+v", kind, st)
	}
}

// BenchmarkReplicaApplyDelta is the learner's steady-state receive: a
// 36-entity ascending delta with fresh stamps into a replica of 100. hot
// reuses one replica; cold cycles 64 (4.9 MB of rings), so each apply finds
// its rings out of the nearest caches, as classbench's apply kernel arranges.
func BenchmarkReplicaApplyDelta(b *testing.B) {
	for _, bc := range []struct {
		name string
		reps int
	}{{"hot", 1}, {"cold", 64}} {
		b.Run(bc.name, func(b *testing.B) {
			reps := make([]*Replica, bc.reps)
			var ents []protocol.EntityState
			for i := range reps {
				reps[i], ents = applyFixture(100)
			}
			d := &protocol.Delta{}
			for i := 0; i < 36; i++ {
				d.Changed = append(d.Changed, ents[(i*25)/9])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round := uint64(i/len(reps)) + 2
				now := time.Duration(round) * 33 * ms
				for k := range d.Changed {
					d.Changed[k].CapturedAt = now
				}
				d.BaseTick, d.Tick = round-1, round
				if _, ok := reps[i%len(reps)].Apply(d, now); !ok {
					b.Fatal("delta rejected")
				}
			}
		})
	}
}

// BenchmarkDisplaySecond is one simulated second of a learner's display
// replica of 100 moving entities: 30 deltas moving every entity, applied 20 ms
// after capture, and at 72 Hz a Pose of every entity at the display's now.
// It is the workload that reads what the apply path writes; read-ns/pose is
// the mean cost of one Pose.
func BenchmarkDisplaySecond(b *testing.B) {
	const (
		pop, deltaHz, frameHz = 100, 30, 72
		transit               = 20 * ms
	)
	r := NewReplica(PlayoutDelay, pose.Linear{})
	ents := make([]protocol.EntityState, pop)
	for i := range ents {
		ents[i] = entAt(protocol.ParticipantID(i+1), 0)
	}
	r.Apply(&protocol.Snapshot{Tick: 1, Entities: ents}, 0)
	deltas := make([]protocol.Delta, deltaHz)
	for k := range deltas {
		for i := range ents {
			deltas[k].Changed = append(deltas[k].Changed, ent(ents[i].Participant, float64(i)+float64(k)/deltaHz))
		}
	}
	tick := uint64(1)
	apply := func(d *protocol.Delta, captured time.Duration) {
		for i := range d.Changed {
			d.Changed[i].CapturedAt = captured
		}
		tick++
		d.BaseTick, d.Tick = tick-1, tick
		if _, ok := r.Apply(d, captured+transit); !ok {
			b.Fatal("delta rejected")
		}
	}
	var reads time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		second := time.Duration(op+1) * time.Second
		k := 0
		captured := func() time.Duration { return second + time.Duration(k)*time.Second/deltaHz }
		for f := 0; f < frameHz; f++ {
			frame := second + time.Duration(f)*time.Second/frameHz
			for ; k < deltaHz && captured()+transit <= frame; k++ {
				apply(&deltas[k], captured())
			}
			start := time.Now()
			for i := range ents {
				if _, ok := r.Pose(ents[i].Participant, frame); !ok {
					b.Fatal("no pose")
				}
			}
			reads += time.Since(start)
		}
		for ; k < deltaHz; k++ {
			apply(&deltas[k], captured())
		}
	}
	b.ReportMetric(float64(reads.Nanoseconds())/float64(b.N*frameHz*pop), "read-ns/pose")
}

// BenchmarkReplicaApplyJoinLeave is one arrival and one departure in a
// replica of n entities: a delta that seats a new ID halfway along the walk
// order, then a delta that removes it. n=80 is churn48_sim's mean replica;
// n=1024 shows what the walk order's insert and delete cost when they move
// a long list.
func BenchmarkReplicaApplyJoinLeave(b *testing.B) {
	for _, n := range []int{80, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewReplica(100*ms, nil)
			ents := make([]protocol.EntityState, n)
			for i := range ents {
				ents[i] = entAt(protocol.ParticipantID(2*(i+1)), 0)
			}
			r.Apply(&protocol.Snapshot{Tick: 1, Entities: ents}, 0)
			join := &protocol.Delta{Changed: []protocol.EntityState{entAt(protocol.ParticipantID(n+1), 0)}}
			leave := &protocol.Delta{Removed: []protocol.ParticipantID{protocol.ParticipantID(n + 1)}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick := uint64(2*i) + 2
				now := time.Duration(tick) * 33 * ms
				join.Changed[0].CapturedAt = now
				join.BaseTick, join.Tick = tick-1, tick
				leave.BaseTick, leave.Tick = tick, tick+1
				if _, ok := r.Apply(join, now); !ok {
					b.Fatal("join rejected")
				}
				if _, ok := r.Apply(leave, now); !ok {
					b.Fatal("leave rejected")
				}
			}
		})
	}
}
