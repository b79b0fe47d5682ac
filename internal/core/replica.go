package core

import (
	"time"

	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// Replica is the receiver side of the sync engine: it applies Snapshot and
// Delta messages from one upstream peer into a local Store. On a node that
// displays (the edge, the VR client) it is a display replica (NewReplica),
// with a playout buffer per remote participant so displays render smooth
// motion; on one that only merges and fans out (the cloud, a relay) it is a
// sync replica (NewSyncReplica), keeping each one's newest capture stamp.
type Replica struct {
	store *Store

	// playout (a display replica's) or marks (a sync replica's) is indexed by
	// the store's slot: the flags — live while the slot has a tenant, retained
	// while a snapshot omission holds it — and the tenant's playout buffer,
	// held by value, or its newest stamp. The store's apply walk hands every
	// entity's slot to noteEntity, and a buffer is released (a stamp reset)
	// before its slot is vacated, so a slot's next tenant always starts with
	// an empty one. The table is as long as the store's record capacity and
	// is reallocated when that grows, moving every header: nothing keeps a
	// pointer into it past the call that took it. nRetained counts the
	// retained marks.
	playout   []playoutSlot
	marks     []markSlot
	nRetained int

	// OnNew fires when a participant first appears (seat assignment hook).
	OnNew func(e protocol.EntityState)
	// OnRemove fires when a participant is removed. Both hooks run inside
	// Apply's walk of the store, so neither may read the store.
	OnRemove func(id protocol.ParticipantID)
	// Latency, if set, records capture-to-apply age of every entity update.
	Latency *metrics.Histogram
	// RetainOmitted keeps an entity (store record, playout buffer) when a
	// Snapshot omits it instead of dropping everything.
	// Set it when the upstream filters snapshots by interest: an omitted
	// entity is merely out of the interest tier, not departed, so it stays
	// enumerable, the display keeps extrapolating it, and its buffer must
	// not churn when it flickers back in. OnRemove is not fired for
	// omissions. True departures still arrive as Delta removals, which
	// always drop the buffer — and a retained entity whose updates stay
	// silent past retainFor (a pruned removal the snapshot could not convey)
	// is expired on a later apply, so ghosts cannot accumulate.
	RetainOmitted bool

	applied    uint64
	rejected   uint64
	snapshots  uint64
	bufCreates uint64
	bufDrops   uint64
	retained   uint64

	// bufPool recycles playout rings (slab-allocated) so a cold join into a
	// large world costs a few slab allocations instead of one ring per
	// entity, and churn after the join recycles instead of reallocating. Its
	// buffers read its delay and extrapolator and add to its counters.
	bufPool *pose.InterpPool // nil on a sync replica
}

// PlayoutDelay is how far behind live every replica in the system renders
// remote entities: the delay clients and edges build display replicas with.
const PlayoutDelay = 100 * time.Millisecond

// retainFor bounds how long a retained entity may stay capture-silent before
// it is presumed departed and dropped: 2 s, the same horizon edge servers use
// to despawn silent local participants. Live entities in the rate-divided
// interest tiers (focus through ambient) never hit it; a fully culled live
// entity is indistinguishable from a departed one (both are silent) and
// expires too — the same drop the pre-retention code made immediately, just
// TTL-delayed — and is rebuilt normally if it re-enters interest range.
const retainFor = 2 * time.Second

// playoutDepth is the number of samples a playout ring holds for delay: what
// playout can reach. A display samples at now >= the newest stamp, so its
// target now - delay never falls before newest - delay, and the samples it
// can touch are those inside that window plus the one older that brackets
// the target: 2 + ceil(delay x upstream rate). The rate is taken as 60 Hz,
// which covers upstream ticks up to 60 Hz (the nodes default to 20-30 Hz);
// 8 is the result at PlayoutDelay, 64 the ceiling whatever the delay.
// A faster upstream, or a read at a display time before the newest stamp, is
// held at the oldest sample the ring still has and counted
// (ReplicaStats.Clamped).
func playoutDepth(delay time.Duration) int {
	const rateHz, floor, ceiling = 60, 8, 64
	d := min(max(delay, 0), 2*time.Second) // past the ceiling already; keeps the product in range
	return min(max(2+int((d*rateHz+time.Second-1)/time.Second), floor), ceiling)
}

// NewReplica creates a replica whose playout buffers render delay behind
// live using extrap beyond the newest sample (nil = linear dead reckoning).
// The delay also sets how much history each buffer keeps (playoutDepth):
// enough for a display reading at the live edge, not for replaying the past.
func NewReplica(delay time.Duration, extrap pose.Extrapolator) *Replica {
	return &Replica{
		store:   NewStore(),
		bufPool: pose.NewInterpPool(delay, playoutDepth(delay), extrap, 64),
	}
}

// NewSyncReplica creates a replica for a node that does not display: no
// playout buffers, no dequantize, and Pose reports nothing.
func NewSyncReplica() *Replica { return &Replica{store: NewStore()} }

// Store exposes the replica's current entity state, for reading: the playout
// buffers follow the store's slots, so only Apply may change its membership.
func (r *Replica) Store() *Store { return r.store }

// Apply ingests a replication message at virtual time now. It returns the
// tick to acknowledge and whether the message was applied (false means a
// delta gap: do not ack; the sender will fall back to a snapshot).
func (r *Replica) Apply(msg protocol.Message, now time.Duration) (uint64, bool) {
	switch m := msg.(type) {
	case *protocol.Snapshot:
		// Entities absent from the snapshot are gone — unless the upstream
		// filters by interest, in which case they stay where they are and
		// keep extrapolating (retain). Survivors keep slot and buffer.
		r.store.applySnapshot(m, r, now)
		r.expireRetained(now)
		r.snapshots++
		r.applied++
		return m.Tick, true
	case *protocol.Delta:
		if m.Tick <= r.store.Tick() {
			// Stale duplicate: ack our current position, apply nothing.
			r.applied++
			return r.store.Tick(), true
		}
		if !r.store.applyDelta(m, r, now) {
			r.rejected++
			return 0, false
		}
		r.expireRetained(now)
		r.applied++
		return m.Tick, true
	default:
		r.rejected++
		return 0, false
	}
}

// slotFlags heads both kinds of slot.
type slotFlags struct{ live, retained bool }

// playoutSlot is one entry of Replica.playout, 64 bytes on 64-bit (a cache
// line): the flags, then the buffer's per-entity header, which is all an
// apply reads of a slot.
type playoutSlot struct {
	slotFlags
	buf pose.InterpBuffer
}

// markSlot is one entry of Replica.marks, 16 bytes: the flags, then the
// tenant's newest capture stamp (0 while vacant).
type markSlot struct {
	slotFlags
	newest time.Duration
}

// flags returns slot's flags from whichever table the replica keeps.
func (r *Replica) flags(slot uint32) *slotFlags {
	if r.bufPool == nil {
		return &r.marks[slot].slotFlags
	}
	return &r.playout[slot].slotFlags
}

// noteEntity is the store's apply walk handing over an entity it has just
// written to slot: the first one a slot's tenant receives fills its buffer.
func (r *Replica) noteEntity(slot uint32, e *protocol.EntityState, now time.Duration) {
	if int(slot) >= len(r.playout)+len(r.marks) { // a slot the store has just added
		// To the store's capacity, so the table grows when the store's does:
		// by an eighth, not append's doubling.
		if n := cap(r.store.recs); r.bufPool == nil {
			r.marks = append(make([]markSlot, 0, n), r.marks...)[:n]
		} else {
			r.playout = append(make([]playoutSlot, 0, n), r.playout...)[:n]
		}
	}
	f := r.flags(slot)
	first := !f.live
	if first {
		f.live = true
		r.bufCreates++
		if r.OnNew != nil {
			r.OnNew(*e)
		}
	}
	if f.retained { // an update ends the omission
		f.retained = false
		r.nRetained--
	}
	// Latency accounting covers fresh information only: redelivery of an
	// entity whose capture stamp has not advanced (snapshot keyframes,
	// mirror re-sends) says nothing about pipeline freshness. The newest
	// stamp is that watermark: a tenant's first stamp is fresh, and so is
	// one above it (what Push reports).
	var fresh bool
	if r.bufPool == nil {
		m := &r.marks[slot]
		if fresh = first || e.CapturedAt > m.newest; fresh {
			m.newest = e.CapturedAt
		}
	} else {
		b := &r.playout[slot].buf
		if first {
			r.bufPool.Acquire(b)
		}
		// Field by field: a composite literal is built on the stack, copied in.
		var at *pose.Pose
		if at, fresh = b.Place(e.CapturedAt); at != nil {
			at.Time = e.CapturedAt
			at.Position, at.Rotation = e.Pose.Dequantize()
			at.Velocity = protocol.VelocityOf(e.VelMMS)
			at.AngVelY = 0
		}
	}
	if fresh && r.Latency != nil {
		r.Latency.Observe(now - e.CapturedAt)
	}
}

// retain is the store's snapshot walk asking whether the omitted tenant of
// slot stays (RetainOmitted); if so it is marked and counted.
func (r *Replica) retain(slot uint32) bool {
	if !r.RetainOmitted {
		return false
	}
	r.retained++
	if f := r.flags(slot); !f.retained {
		f.retained = true
		r.nRetained++
	}
	return true
}

// dropBuffer empties the slot of is, which is about to leave the store.
func (r *Replica) dropBuffer(is idSlot) {
	f := r.flags(is.slot)
	if f.retained {
		f.retained = false
		r.nRetained--
	}
	f.live = false
	if r.bufPool == nil {
		r.marks[is.slot].newest = 0
	} else {
		r.bufPool.Release(&r.playout[is.slot].buf)
	}
	r.bufDrops++
	if r.OnRemove != nil {
		r.OnRemove(is.id)
	}
}

// expireRetained drops retained entities whose updates have been silent past
// retainFor: their removal was conveyed only by snapshot omission (the
// sender pruned it from the delta log), so without this sweep they would
// dead-reckon as ghosts forever. Runs on every apply; nothing is retained in
// steady state. Ascending by ID; each entity's verdict depends only on its
// own newest capture stamp. A drop shifts the next entry into i.
func (r *Replica) expireRetained(now time.Duration) {
	if r.nRetained == 0 {
		return
	}
	for i := 0; i < len(r.store.order); {
		if slot := r.store.order[i].slot; r.flags(slot).retained && now-r.newest(slot) > retainFor {
			r.store.drop(i, r)
			continue
		}
		i++
	}
}

// newest is the newest capture stamp applied to slot's tenant.
func (r *Replica) newest(slot uint32) time.Duration {
	if r.bufPool == nil {
		return r.marks[slot].newest
	}
	p, _ := r.playout[slot].buf.Newest()
	return p.Time
}

// Pose samples the replicated participant's pose for display at time at
// (in the entity's source frame; callers apply the seat correction). It serves
// a display at the live edge: at must not precede the participant's newest
// applied stamp. The replica keeps only the history such a read can reach
// (playoutDepth), so an earlier at whose target falls before that history
// returns the oldest sample still held, with ok true, and adds to
// ReplicaStats.Clamped. A sync replica has no pose to give.
func (r *Replica) Pose(id protocol.ParticipantID, at time.Duration) (pose.Pose, bool) {
	slot, ok := r.store.slots[id]
	if !ok || r.bufPool == nil {
		return pose.Pose{}, false
	}
	return r.playout[slot].buf.Sample(at)
}

// Participants lists replicated participant IDs, ascending.
func (r *Replica) Participants() []protocol.ParticipantID { return r.store.IDs() }

// ReplicaStats reports apply accounting. BufferCreates/BufferDrops expose
// playout-buffer churn (a create after a drop of the same entity means the
// interpolation history was lost; a sync replica counts its tenants);
// Retained counts snapshot omissions kept under RetainOmitted; Clamped (0 on
// a sync replica) counts Pose calls that wanted history a full buffer had
// evicted and got its oldest sample (the pool's Clamped, over every buffer
// held) — non-zero means an upstream outrunning the playout depth, or a
// caller reading before the live edge.
type ReplicaStats struct {
	Applied       uint64
	Rejected      uint64
	Snapshots     uint64
	BufferCreates uint64
	BufferDrops   uint64
	Retained      uint64
	Clamped       uint64
}

// Stats returns counters.
func (r *Replica) Stats() ReplicaStats {
	st := ReplicaStats{
		Applied: r.applied, Rejected: r.rejected, Snapshots: r.snapshots,
		BufferCreates: r.bufCreates, BufferDrops: r.bufDrops, Retained: r.retained,
	}
	if r.bufPool != nil {
		st.Clamped = r.bufPool.Clamped()
	}
	return st
}
