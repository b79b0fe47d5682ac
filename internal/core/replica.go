package core

import (
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// Replica is the receiver side of the sync engine: it applies Snapshot and
// Delta messages from one upstream peer into a local Store and maintains a
// playout (interpolation) buffer per remote participant so displays render
// smooth motion between network updates.
type Replica struct {
	store   *Store
	buffers map[protocol.ParticipantID]*pose.InterpBuffer
	delay   time.Duration
	extrap  pose.Extrapolator

	// OnNew fires when a participant first appears (seat assignment hook).
	OnNew func(e protocol.EntityState)
	// OnRemove fires when a participant is removed.
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
	// silent past RetainFor (a pruned removal the snapshot could not convey)
	// is expired on a later apply, so ghosts cannot accumulate.
	RetainOmitted bool
	// RetainFor bounds how long a retained entity may stay capture-silent
	// before it is presumed departed and dropped (default 2s — the same
	// horizon edge servers use to despawn silent local participants). Live
	// entities in the rate-divided interest tiers (focus through ambient)
	// never hit it; a fully culled live entity is indistinguishable from a
	// departed one (both are silent) and expires too — the same drop the
	// pre-retention code made immediately, just TTL-delayed — and is
	// rebuilt normally if it re-enters interest range.
	RetainFor time.Duration

	applied    uint64
	rejected   uint64
	snapshots  uint64
	bufCreates uint64
	bufDrops   uint64
	retained   uint64

	// knownScratch is the reusable present-in-snapshot set; retainedIDs
	// tracks entities currently retained through snapshot omission (cleared
	// when an update arrives for them); retainScratch carries their states
	// across ApplySnapshot's store rebuild.
	knownScratch  map[protocol.ParticipantID]bool
	retainedIDs   map[protocol.ParticipantID]bool
	retainScratch []protocol.EntityState

	// bufPool recycles playout buffers (slab-allocated) so a cold join into a
	// large world costs a few slab allocations instead of one buffer + ring
	// per entity, and churn after the join recycles instead of reallocating.
	// Built lazily on the first entity so an idle replica allocates nothing.
	bufPool *pose.InterpPool
}

// NewReplica creates a replica whose playout buffers render delay behind
// live using extrap beyond the newest sample (nil = linear dead reckoning).
func NewReplica(delay time.Duration, extrap pose.Extrapolator) *Replica {
	if extrap == nil {
		extrap = pose.Linear{}
	}
	return &Replica{
		store:   NewStore(),
		buffers: make(map[protocol.ParticipantID]*pose.InterpBuffer),
		delay:   delay,
		extrap:  extrap,
	}
}

// Store exposes the replica's current entity state.
func (r *Replica) Store() *Store { return r.store }

// Apply ingests a replication message at virtual time now. It returns the
// tick to acknowledge and whether the message was applied (false means a
// delta gap: do not ack; the sender will fall back to a snapshot).
func (r *Replica) Apply(msg protocol.Message, now time.Duration) (uint64, bool) {
	switch m := msg.(type) {
	case *protocol.Snapshot:
		if r.knownScratch == nil {
			r.knownScratch = make(map[protocol.ParticipantID]bool, len(m.Entities))
		}
		known := r.knownScratch
		clear(known)
		for i := range m.Entities {
			known[m.Entities[i].Participant] = true
		}
		// Entities absent from the snapshot are gone — unless the upstream
		// filters by interest, in which case they are carried across the
		// store rebuild and keep extrapolating.
		r.retainScratch = r.retainScratch[:0]
		for _, id := range r.store.IDs() {
			if !known[id] {
				if r.RetainOmitted {
					r.retained++
					if r.retainedIDs == nil {
						r.retainedIDs = make(map[protocol.ParticipantID]bool)
					}
					r.retainedIDs[id] = true
					if e, ok := r.store.Get(id); ok {
						r.retainScratch = append(r.retainScratch, e)
					}
					continue
				}
				r.dropEntity(id)
			}
		}
		for i := range m.Entities {
			r.noteEntity(m.Entities[i], now)
		}
		r.store.ApplySnapshot(m)
		for _, e := range r.retainScratch {
			r.store.Upsert(e)
		}
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
		if !r.store.ApplyDelta(m) {
			r.rejected++
			return 0, false
		}
		// Removals first, mirroring ApplyDelta: an entity removed and
		// re-added within the delta window is in both lists, and must end up
		// present — with a fresh playout buffer (it left and rejoined; the
		// old interpolation history must not bridge the gap).
		for _, id := range m.Removed {
			r.dropEntity(id)
		}
		for i := range m.Changed {
			r.noteEntity(m.Changed[i], now)
		}
		r.expireRetained(now)
		r.applied++
		return m.Tick, true
	default:
		r.rejected++
		return 0, false
	}
}

func (r *Replica) noteEntity(e protocol.EntityState, now time.Duration) {
	buf, ok := r.buffers[e.Participant]
	if !ok {
		if r.bufPool == nil {
			r.bufPool = pose.NewInterpPool(r.delay, 64, r.extrap, 64)
		}
		buf = r.bufPool.Get()
		r.buffers[e.Participant] = buf
		r.bufCreates++
		if r.OnNew != nil {
			r.OnNew(e)
		}
	}
	delete(r.retainedIDs, e.Participant) // an update ends the omission
	pos, rot := e.Pose.Dequantize()
	p := pose.Pose{
		Time:     e.CapturedAt,
		Position: pos,
		Rotation: rot,
		Velocity: mathx.V3(
			float64(e.VelMMS[0])/1000, float64(e.VelMMS[1])/1000, float64(e.VelMMS[2])/1000,
		),
	}
	// Latency accounting covers fresh information only: redelivery of an
	// entity whose capture stamp has not advanced (snapshot keyframes,
	// mirror re-sends) says nothing about pipeline freshness. The buffer's
	// newest stamp is that watermark; Push reports whether p advanced it.
	if buf.Push(p) && r.Latency != nil {
		r.Latency.Observe(now - e.CapturedAt)
	}
}

func (r *Replica) dropEntity(id protocol.ParticipantID) {
	buf, ok := r.buffers[id]
	if !ok {
		return
	}
	r.bufPool.Put(buf)
	delete(r.buffers, id)
	delete(r.retainedIDs, id)
	r.bufDrops++
	if r.OnRemove != nil {
		r.OnRemove(id)
	}
}

// expireRetained drops retained entities whose updates have been silent past
// RetainFor: their removal was conveyed only by snapshot omission (the
// sender pruned it from the delta log), so without this sweep they would
// dead-reckon as ghosts forever. Runs on every apply; the retained set is
// empty in steady state. Iteration order is irrelevant — each entity's
// verdict depends only on its own newest capture stamp (every retained
// entity has a buffer: both are dropped together).
func (r *Replica) expireRetained(now time.Duration) {
	if len(r.retainedIDs) == 0 {
		return
	}
	ttl := r.RetainFor
	if ttl <= 0 {
		ttl = 2 * time.Second
	}
	for id := range r.retainedIDs {
		if newest, _ := r.buffers[id].Newest(); now-newest.Time > ttl {
			r.store.removeSilent(id)
			r.dropEntity(id)
		}
	}
}

// Pose samples the replicated participant's pose for display at time at
// (in the entity's source frame; callers apply seat corrections).
func (r *Replica) Pose(id protocol.ParticipantID, at time.Duration) (pose.Pose, bool) {
	buf, ok := r.buffers[id]
	if !ok {
		return pose.Pose{}, false
	}
	return buf.Sample(at)
}

// Participants lists replicated participant IDs, ascending.
func (r *Replica) Participants() []protocol.ParticipantID { return r.store.IDs() }

// ReplicaStats reports apply accounting. BufferCreates/BufferDrops expose
// playout-buffer churn (a create after a drop of the same entity means the
// interpolation history was lost); Retained counts snapshot omissions that
// kept their buffer under RetainOmitted.
type ReplicaStats struct {
	Applied       uint64
	Rejected      uint64
	Snapshots     uint64
	BufferCreates uint64
	BufferDrops   uint64
	Retained      uint64
}

// Stats returns counters.
func (r *Replica) Stats() ReplicaStats {
	return ReplicaStats{
		Applied: r.applied, Rejected: r.rejected, Snapshots: r.snapshots,
		BufferCreates: r.bufCreates, BufferDrops: r.bufDrops, Retained: r.retained,
	}
}
