package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// mapReplica is the oracle for Replica: the implementation the slot-indexed
// tables replaced — playout buffers, the retained set and the snapshot's
// present set all maps keyed by participant — over a store that is one map.
// It knows nothing of slots, walk orders or pools; its buffers are as deep as
// the replica's rule says (playoutDepth), so the two clamp to the same oldest
// sample. One liberty is taken with the original: it expired retained
// entities in map order, here ascending, so the OnRemove sequence is
// comparable.
type mapReplica struct {
	tick    uint64
	ents    map[protocol.ParticipantID]protocol.EntityState
	buffers map[protocol.ParticipantID]*pose.InterpBuffer
	delay   time.Duration

	OnNew         func(e protocol.EntityState)
	OnRemove      func(id protocol.ParticipantID)
	Latency       *metrics.Histogram
	RetainOmitted bool

	stats       ReplicaStats
	retainedIDs map[protocol.ParticipantID]bool
}

func newMapReplica(delay time.Duration) *mapReplica {
	return &mapReplica{
		ents:        make(map[protocol.ParticipantID]protocol.EntityState),
		buffers:     make(map[protocol.ParticipantID]*pose.InterpBuffer),
		retainedIDs: make(map[protocol.ParticipantID]bool),
		delay:       delay,
	}
}

func (r *mapReplica) ids() []protocol.ParticipantID {
	ids := make([]protocol.ParticipantID, 0, len(r.ents))
	for id := range r.ents {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (r *mapReplica) Apply(msg protocol.Message, now time.Duration) (uint64, bool) {
	switch m := msg.(type) {
	case *protocol.Snapshot:
		known := make(map[protocol.ParticipantID]bool)
		for i := range m.Entities {
			known[m.Entities[i].Participant] = true
		}
		next := make(map[protocol.ParticipantID]protocol.EntityState)
		for _, id := range r.ids() {
			if !known[id] {
				if r.RetainOmitted {
					r.stats.Retained++
					r.retainedIDs[id] = true
					next[id] = r.ents[id]
					continue
				}
				r.dropEntity(id)
			}
		}
		for i := range m.Entities {
			r.noteEntity(m.Entities[i], now)
			next[m.Entities[i].Participant] = m.Entities[i]
		}
		r.ents, r.tick = next, m.Tick
		r.expireRetained(now)
		r.stats.Snapshots++
		r.stats.Applied++
		return m.Tick, true
	case *protocol.Delta:
		if m.Tick <= r.tick {
			r.stats.Applied++
			return r.tick, true
		}
		if m.BaseTick > r.tick {
			r.stats.Rejected++
			return 0, false
		}
		r.tick = m.Tick
		for _, id := range m.Removed {
			delete(r.ents, id)
		}
		for _, e := range m.Changed {
			r.ents[e.Participant] = e
		}
		for _, id := range m.Removed {
			r.dropEntity(id)
		}
		for i := range m.Changed {
			r.noteEntity(m.Changed[i], now)
		}
		r.expireRetained(now)
		r.stats.Applied++
		return m.Tick, true
	default:
		r.stats.Rejected++
		return 0, false
	}
}

func (r *mapReplica) noteEntity(e protocol.EntityState, now time.Duration) {
	buf, ok := r.buffers[e.Participant]
	if !ok {
		buf = pose.NewInterpBuffer(r.delay, playoutDepth(r.delay), nil)
		r.buffers[e.Participant] = buf
		r.stats.BufferCreates++
		if r.OnNew != nil {
			r.OnNew(e)
		}
	}
	delete(r.retainedIDs, e.Participant)
	pos, rot := e.Pose.Dequantize()
	p := pose.Pose{
		Time:     e.CapturedAt,
		Position: pos,
		Rotation: rot,
		Velocity: mathx.V3(
			float64(e.VelMMS[0])/1000, float64(e.VelMMS[1])/1000, float64(e.VelMMS[2])/1000,
		),
	}
	if buf.Push(p) && r.Latency != nil {
		r.Latency.Observe(now - e.CapturedAt)
	}
}

func (r *mapReplica) dropEntity(id protocol.ParticipantID) {
	buf, ok := r.buffers[id]
	if !ok {
		return
	}
	r.stats.Clamped += buf.Clamped()
	delete(r.buffers, id)
	delete(r.retainedIDs, id)
	r.stats.BufferDrops++
	if r.OnRemove != nil {
		r.OnRemove(id)
	}
}

func (r *mapReplica) expireRetained(now time.Duration) {
	for _, id := range r.ids() {
		if !r.retainedIDs[id] {
			continue
		}
		if newest, _ := r.buffers[id].Newest(); now-newest.Time > retainFor {
			delete(r.ents, id)
			r.dropEntity(id)
		}
	}
}

func (r *mapReplica) Pose(id protocol.ParticipantID, at time.Duration) (pose.Pose, bool) {
	buf, ok := r.buffers[id]
	if !ok {
		return pose.Pose{}, false
	}
	return buf.Sample(at)
}

// Stats adds the clamps of the buffers still held to those of the dropped.
func (r *mapReplica) Stats() ReplicaStats {
	st := r.stats
	for _, buf := range r.buffers {
		st.Clamped += buf.Clamped()
	}
	return st
}

// scriptStep is one message of a replica script and its apply time.
type scriptStep struct {
	msg protocol.Message
	now time.Duration
}

// Replica scripts have a byte form, so the model test's schedules seed
// FuzzReplicaApply and whatever the fuzzer mutates them into is a sequence of
// well-formed messages again. One message is
//
//	kind(1) tick(2) base(2) now-ms(4) changed(1) removed(1)
//	then per changed entity id(1) captured-ms(4), per removal id(1)
//
// big-endian; kind's low two bits pick delta, snapshot (base ignored, the
// removals dropped) or a message that is neither. An entity is entAt(id,
// stamp): the stamp decides the pose.
const scriptHeader = 11

func encodeScript(steps []scriptStep) []byte {
	var out []byte
	ms := func(d time.Duration) uint32 { return uint32(d / time.Millisecond) }
	for _, st := range steps {
		var kind byte
		var tick, base uint64
		var ents []protocol.EntityState
		var removed []protocol.ParticipantID
		switch m := st.msg.(type) {
		case *protocol.Delta:
			kind, tick, base, ents, removed = 0, m.Tick, m.BaseTick, m.Changed, m.Removed
		case *protocol.Snapshot:
			kind, tick, ents = 1, m.Tick, m.Entities
		default:
			kind = 2
		}
		out = append(out, kind)
		out = binary.BigEndian.AppendUint16(out, uint16(tick))
		out = binary.BigEndian.AppendUint16(out, uint16(base))
		out = binary.BigEndian.AppendUint32(out, ms(st.now))
		out = append(out, byte(len(ents)), byte(len(removed)))
		for _, e := range ents {
			out = append(out, byte(e.Participant))
			out = binary.BigEndian.AppendUint32(out, ms(e.CapturedAt))
		}
		for _, id := range removed {
			out = append(out, byte(id))
		}
	}
	return out
}

// decodeScript reads as many whole messages as data holds; a list cut short
// by the end of data ends there.
func decodeScript(data []byte) []scriptStep {
	var steps []scriptStep
	ms := func(v uint32) time.Duration { return time.Duration(v) * time.Millisecond }
	for len(data) >= scriptHeader {
		kind := data[0] & 3
		tick := uint64(binary.BigEndian.Uint16(data[1:]))
		base := uint64(binary.BigEndian.Uint16(data[3:]))
		now := ms(binary.BigEndian.Uint32(data[5:]))
		nEnts, nRemoved := int(data[9]), int(data[10])
		data = data[scriptHeader:]
		var ents []protocol.EntityState
		for ; nEnts > 0 && len(data) >= 5; nEnts-- {
			ents = append(ents, entAt(protocol.ParticipantID(data[0]), ms(binary.BigEndian.Uint32(data[1:]))))
			data = data[5:]
		}
		var removed []protocol.ParticipantID
		for ; nRemoved > 0 && len(data) >= 1; nRemoved-- {
			removed = append(removed, protocol.ParticipantID(data[0]))
			data = data[1:]
		}
		var msg protocol.Message
		switch kind {
		case 0:
			msg = &protocol.Delta{BaseTick: base, Tick: tick, Changed: ents, Removed: removed}
		case 1:
			msg = &protocol.Snapshot{Tick: tick, Entities: ents}
		default:
			msg = &protocol.Ack{Tick: tick}
		}
		steps = append(steps, scriptStep{msg: msg, now: now})
	}
	return steps
}

// replicaScript is the model test's seeded adversarial schedule over a pool
// of 24 IDs: keyframes that omit, deltas that remove, remove and re-add in
// one message, list their entities unsorted or twice, arrive stale, gapped or
// rewound, capture stamps that repeat or run backwards, and pauses long
// enough for retainFor (2 s) to expire what a keyframe retained.
func replicaScript(seed int64, steps int) []scriptStep {
	const pool = 24
	rng := rand.New(rand.NewSource(seed))
	var tick uint64
	now := time.Second
	subset := func(p float64) []protocol.ParticipantID {
		var ids []protocol.ParticipantID
		for id := protocol.ParticipantID(1); id <= pool; id++ {
			if rng.Float64() < p {
				ids = append(ids, id)
			}
		}
		return ids
	}
	entities := func(ids []protocol.ParticipantID) []protocol.EntityState {
		ents := make([]protocol.EntityState, len(ids))
		for i, id := range ids {
			stamp := now - time.Duration(rng.Intn(40))*time.Millisecond
			switch r := rng.Intn(10); {
			case r == 0: // a stamp the entity has most likely shown before
				stamp = now.Truncate(200 * time.Millisecond)
			case r == 1: // well behind
				stamp = now - time.Duration(rng.Intn(1500))*time.Millisecond
			}
			ents[i] = entAt(id, stamp)
		}
		return ents
	}
	out := make([]scriptStep, 0, steps)
	for len(out) < steps {
		switch r := rng.Intn(100); {
		case r < 3:
			now += time.Duration(500+rng.Intn(1200)) * time.Millisecond
		default:
			now += time.Duration(5+rng.Intn(40)) * time.Millisecond
		}
		var msg protocol.Message
		switch r := rng.Intn(100); {
		case r < 14: // keyframe, usually forward, now and then reordered behind
			snap := &protocol.Snapshot{Tick: tick + 1 + uint64(rng.Intn(3))}
			if rng.Intn(12) == 0 && tick > 4 {
				snap.Tick = tick - uint64(rng.Intn(4))
			}
			snap.Entities = entities(subset([]float64{0.9, 0.6, 0.3}[rng.Intn(3)]))
			tick = snap.Tick
			msg = snap
		case r < 15:
			msg = &protocol.Ack{Tick: tick}
		default:
			d := &protocol.Delta{BaseTick: tick, Tick: tick + 1 + uint64(rng.Intn(2))}
			switch r := rng.Intn(20); {
			case r == 0 && tick > 3: // stale duplicate
				d.Tick = tick - uint64(rng.Intn(3))
				d.BaseTick = d.Tick - 1
			case r == 1: // gap
				d.BaseTick = tick + 1 + uint64(rng.Intn(3))
				d.Tick = d.BaseTick + 1
			case r < 5 && tick > 3: // an older base: applies
				d.BaseTick = tick - uint64(rng.Intn(3))
			}
			d.Changed = entities(subset([]float64{0.5, 0.35, 0.1}[rng.Intn(3)]))
			if rng.Intn(4) == 0 {
				d.Removed = subset(0.08)
				if rng.Intn(2) == 0 { // remove + re-add
					for _, id := range d.Removed {
						if rng.Intn(2) == 0 {
							d.Changed = append(d.Changed, entities([]protocol.ParticipantID{id})...)
						}
					}
					slices.SortFunc(d.Changed, func(a, b protocol.EntityState) int { return cmp.Compare(a.Participant, b.Participant) })
				}
			}
			if n := len(d.Changed); n > 1 && rng.Intn(6) == 0 { // hostile: unsorted, duplicated
				for k := rng.Intn(3); k >= 0; k-- {
					d.Changed = append(d.Changed, entities([]protocol.ParticipantID{d.Changed[rng.Intn(n)].Participant})...)
				}
				rng.Shuffle(len(d.Changed), func(i, j int) { d.Changed[i], d.Changed[j] = d.Changed[j], d.Changed[i] })
			}
			if d.BaseTick <= tick && d.Tick > tick {
				tick = d.Tick
			}
			msg = d
		}
		out = append(out, scriptStep{msg: msg, now: now})
	}
	return out
}

// liveBuffers counts the playout buffers r holds and checks each sits in a
// live entity's slot.
func liveBuffers(t testing.TB, r *Replica) int {
	t.Helper()
	n, marks := 0, 0
	for slot := range r.playout {
		p := &r.playout[slot]
		if p.retained {
			marks++
		}
		if !p.live {
			if p.retained {
				t.Fatalf("slot %d: retained mark without a buffer", slot)
			}
			continue
		}
		n++
		id := r.store.recs[slot].state.Participant
		if got, ok := r.store.slots[id]; !ok || int(got) != slot {
			t.Fatalf("slot %d holds a buffer but no live entity (record says %d)", slot, id)
		}
	}
	if marks != r.nRetained {
		t.Fatalf("nRetained = %d, %d slots marked", r.nRetained, marks)
	}
	return n
}

// TestReplicaMatchesMapModel drives Replica and the map-keyed oracle through
// the same schedules and requires every observable to agree after every
// message: the ack, the store's tick and contents, Participants, the pose of
// every ID of the pool at three display times, Stats, the OnNew/OnRemove call
// sequence and the Latency histogram's count and sum. 2 × 10 × 2,000 steps.
//
// Checked to fail on seeded mutations of the two rules it guards (every seed
// of both modes fails within its first 20 steps):
//   - Store.merge seating an entity the cursor did not match without looking
//     it up first (an unsorted or repeated ID gets a second slot): seed 1
//     stops at step 13, OnNew fired twice for ID 19;
//   - Store.applyDelta vacating a removed entity's slot at once but dropping
//     its buffer after the merge (the order the map version could afford): a
//     re-added ID is seated in the slot its old buffer still occupies, gets
//     no OnNew, and loses the buffer afterwards — seed 1 stops at step 3.
//
// And on seeded mutations of the walk order the store keeps sorted in place:
//   - Store.slotOf appending a newly seated entry instead of inserting it at
//     its searched position: retain=false seed 1 stops at step 2, seeds 2
//     and 3 at step 1, Participants out of order;
//   - Store.applySnapshot's compaction keeping the entries of omitted
//     entities: seed 1 stops at step 4, seeds 2 and 3 at step 5 (seed 1
//     stops at step 4 with only the walk's tail loop mutated too),
//     Participants listing departed IDs;
//   - Replica.expireRetained stepping past the entry that moves into a
//     dropped one's index: retain=true seed 2 stops at step 925, seed 3 at
//     step 1358, an expired neighbour never removed (seed 1 passes).
//
// Two more were tried and survive, as they must, because the cursor only
// saves probes: Store.merge not stepping its cursor over a newly seated
// entry (the skip loop steps over it at the next ID), and Store.merge not
// reloading order after a seat (a stale copy still names every slot right,
// and an entry it no longer shows falls to the slotOf probe).
func TestReplicaMatchesMapModel(t *testing.T) {
	checkReplicaModel(t, func(delay time.Duration) *Replica { return NewReplica(delay, nil) })
}

// liveMarks counts the live slots of a sync replica's watermark table, checks
// each sits in a live entity's slot and that every vacant slot is zero: no
// flag and no stamp of a departed tenant.
func liveMarks(t testing.TB, r *Replica) int {
	t.Helper()
	n, retained := 0, 0
	for slot, m := range r.marks {
		if !m.live {
			if m != (markSlot{}) {
				t.Fatalf("vacant slot %d holds %+v", slot, m)
			}
			continue
		}
		n++
		if m.retained {
			retained++
		}
		id := r.store.recs[slot].state.Participant
		if got, ok := r.store.slots[id]; !ok || int(got) != slot {
			t.Fatalf("slot %d is live but no live entity holds it (record says %d)", slot, id)
		}
	}
	if retained != r.nRetained {
		t.Fatalf("nRetained = %d, %d slots marked", r.nRetained, retained)
	}
	return n
}

// TestSyncReplicaMatchesMapModel runs TestReplicaMatchesMapModel's schedules
// through a sync replica, which keeps a capture watermark and no playout
// buffer, against the same oracle: every observable agrees but the sampled
// poses (Pose always reports false) and Stats.Clamped (always 0), and every
// vacant slot of the watermark table is zero.
//
// Checked to fail on two seeded mutations of the watermark (every seed of
// both modes fails):
//   - Replica.dropBuffer not resetting the stamp: retain=false seed 1 stops
//     at step 4, a vacant slot holding its departed tenant's stamp (a next
//     tenant's first stamp is fresh whatever the slot holds, so only the
//     table shows it);
//   - Replica.noteEntity taking a stamp equal to the newest as fresh (>= for
//     >): retain=false seed 1 stops at step 27, the Latency count one ahead
//     of the model's.
func TestSyncReplicaMatchesMapModel(t *testing.T) {
	checkReplicaModel(t, func(time.Duration) *Replica { return NewSyncReplica() })
}

// checkReplicaModel drives replicas made by newReplica and the map-keyed
// oracle through the model schedules (both retain modes, seeds 1-10, 2,000
// steps each) and compares them after every message. A display replica's
// poses are compared with the oracle's; a sync replica's must be absent.
func checkReplicaModel(t *testing.T, newReplica func(delay time.Duration) *Replica) {
	const delay = 20 * time.Millisecond
	for _, retain := range []bool{false, true} {
		for seed := int64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("retain=%v/seed=%d", retain, seed), func(t *testing.T) {
				r, o := newReplica(delay), newMapReplica(delay)
				display := r.bufPool != nil
				var gotEvents, wantEvents []string
				r.RetainOmitted, o.RetainOmitted = retain, retain
				r.Latency, o.Latency = &metrics.Histogram{}, &metrics.Histogram{}
				r.OnNew = func(e protocol.EntityState) {
					gotEvents = append(gotEvents, fmt.Sprintf("new %d@%v", e.Participant, e.CapturedAt))
				}
				o.OnNew = func(e protocol.EntityState) {
					wantEvents = append(wantEvents, fmt.Sprintf("new %d@%v", e.Participant, e.CapturedAt))
				}
				r.OnRemove = func(id protocol.ParticipantID) { gotEvents = append(gotEvents, fmt.Sprintf("remove %d", id)) }
				o.OnRemove = func(id protocol.ParticipantID) { wantEvents = append(wantEvents, fmt.Sprintf("remove %d", id)) }

				for step, st := range replicaScript(seed, 2000) {
					gotEvents, wantEvents = gotEvents[:0], wantEvents[:0]
					gotAck, gotOK := r.Apply(st.msg, st.now)
					wantAck, wantOK := o.Apply(st.msg, st.now)
					if gotAck != wantAck || gotOK != wantOK {
						t.Fatalf("step %d (%T): Apply = %d,%v, model %d,%v", step, st.msg, gotAck, gotOK, wantAck, wantOK)
					}
					if !slices.Equal(gotEvents, wantEvents) {
						t.Fatalf("step %d (%T): hooks fired %v, model %v", step, st.msg, gotEvents, wantEvents)
					}
					if r.Store().Tick() != o.tick {
						t.Fatalf("step %d: tick = %d, model %d", step, r.Store().Tick(), o.tick)
					}
					ids := o.ids()
					if r.Store().Len() != len(ids) {
						t.Fatalf("step %d (%T): Len = %d, model %d", step, st.msg, r.Store().Len(), len(ids))
					}
					if got := r.Participants(); !slices.Equal(got, ids) {
						t.Fatalf("step %d (%T): Participants = %v, model %v", step, st.msg, got, ids)
					}
					for _, id := range ids {
						if got, _ := r.Store().Get(id); !entityEqual(got, o.ents[id]) {
							t.Fatalf("step %d: entity %d = %+v, model %+v", step, id, got, o.ents[id])
						}
					}
					if r.Stats() != o.Stats() { // a sync replica's oracle is never sampled: Clamped 0
						t.Fatalf("step %d (%T): Stats = %+v, model %+v", step, st.msg, r.Stats(), o.Stats())
					}
					if r.Latency.Count() != o.Latency.Count() || r.Latency.Sum() != o.Latency.Sum() {
						t.Fatalf("step %d: Latency count/sum = %d/%v, model %d/%v", step,
							r.Latency.Count(), r.Latency.Sum(), o.Latency.Count(), o.Latency.Sum())
					}
					for id := protocol.ParticipantID(0); id <= 25; id++ {
						for _, at := range []time.Duration{st.now - 300*time.Millisecond, st.now - 15*time.Millisecond, st.now + delay + 40*time.Millisecond} {
							got, gotOK := r.Pose(id, at)
							if !display {
								if gotOK {
									t.Fatalf("step %d: sync replica has a pose for %d", step, id)
								}
								continue
							}
							want, wantOK := o.Pose(id, at)
							if got != want || gotOK != wantOK {
								t.Fatalf("step %d (%T): Pose(%d, %v) = %v,%v, model %v,%v", step, st.msg, id, at, got, gotOK, want, wantOK)
							}
						}
					}
					var held int
					if display {
						held = liveBuffers(t, r)
					} else {
						held = liveMarks(t, r)
					}
					if held != len(ids) {
						t.Fatalf("step %d: %d live buffers for %d entities", step, held, len(ids))
					}
				}
				if st := r.Stats(); st.Rejected == 0 || st.BufferDrops < 20 || (display && st.Clamped == 0) || (retain && st.Retained == 0) {
					t.Fatalf("schedule too tame: %+v", st)
				}
			})
		}
	}
}

// FuzzReplicaApply: any sequence of well-formed snapshots and deltas applies
// without a panic, every live entity has exactly one playout buffer and no
// vacant slot has one (creates − drops = buffers held = entities), the walk
// order is strictly ascending and names the slot the ID→slot map holds for
// every live entity, and no pooled frame is touched.
func FuzzReplicaApply(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed%2 == 0, encodeScript(replicaScript(seed, 24)))
	}
	f.Fuzz(func(t *testing.T, retain bool, data []byte) {
		live0 := protocol.LiveFrames()
		r := NewReplica(20*time.Millisecond, nil)
		r.RetainOmitted = retain
		for i, step := range decodeScript(data) {
			r.Apply(step.msg, step.now)
			held, st := liveBuffers(t, r), r.Stats()
			if n := r.Store().Len(); held != n || st.BufferCreates-st.BufferDrops != uint64(n) {
				t.Fatalf("message %d: %d entities, %d buffers held, %d created − %d dropped",
					i, n, held, st.BufferCreates, st.BufferDrops)
			}
			for _, id := range r.Participants() {
				if _, ok := r.Pose(id, step.now); !ok {
					t.Fatalf("message %d: live entity %d has no pose", i, id)
				}
			}
			order := r.store.ordered()
			if len(order) != len(r.store.slots) {
				t.Fatalf("message %d: %d walk-order entries, %d live entities", i, len(order), len(r.store.slots))
			}
			for k, is := range order {
				if k > 0 && is.id <= order[k-1].id {
					t.Fatalf("message %d: walk order not ascending at %d: %d after %d", i, k, is.id, order[k-1].id)
				}
				if slot, ok := r.store.slots[is.id]; !ok || slot != is.slot {
					t.Fatalf("message %d: walk order puts %d in slot %d, map says %d (%v)", i, is.id, is.slot, slot, ok)
				}
			}
		}
		if live := protocol.LiveFrames(); live != live0 {
			t.Fatalf("live frames %d -> %d", live0, live)
		}
	})
}
