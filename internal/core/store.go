// Package core is the heart of the Metaverse classroom platform: the
// authoritative replicated-state engine that keeps the paper's three
// classrooms (two physical MR rooms + one cloud VR room, Fig. 2/3)
// synchronized "so that the intervention of a participant in any of these
// classrooms will be visible to the attendants in the other two".
//
// The engine is tick-based. A Store holds the authoritative EntityState for
// every participant, stamped with the tick of its last change. A Replicator
// tracks, per downstream peer (another edge server, the cloud, or a client),
// the newest tick that peer has acknowledged, and emits either a compact
// Delta against that acknowledged baseline or — when the peer is new, too
// far behind, or explicitly scheduled — a full Snapshot. Deltas over lossy
// links are safe because the baseline only claims what acks prove: state
// stamped before a tick's plan is re-sent until a message carrying it is
// acked, and state stamped with an already-planned tick — authored between
// two ticks — rides the deltas whose base lies below that tick; when an ack
// shows such a delta was skipped, the replicator moves the peer's baseline
// back to the skipped delta's base (see Replicator.Ack for the contract).
package core

import (
	"bytes"
	"cmp"
	"slices"
	"sort"

	"metaclass/internal/protocol"
)

type record struct {
	state       protocol.EntityState
	changedTick uint64
}

type removal struct {
	id   protocol.ParticipantID
	tick uint64
}

// dirtyRingCap is the number of recent ticks the changed-entity ring covers.
// It comfortably exceeds the default replication MaxDeltaWindow (150): any
// ack horizon older than the ring falls back to a full scan, and the
// replicator would be sending such a peer a snapshot anyway.
const dirtyRingCap = 256

// Store is the authoritative entity state, indexed by participant. Not safe
// for concurrent use: each server owns one on its simulation goroutine.
type Store struct {
	tick     uint64
	entities map[protocol.ParticipantID]*record
	removals []removal // ascending by tick

	// ids caches the ascending participant-ID slice between membership
	// changes, so per-tick Snapshot/DeltaSince scans allocate nothing.
	ids      []protocol.ParticipantID
	idsDirty bool

	// dirty is the changed-entity ring: slot t%dirtyRingCap lists the IDs
	// first changed at tick t, so DeltaSince walks only entities changed
	// inside the ack window instead of the whole population. The ring covers
	// ticks [ringLo, tick] contiguously; receiver-side tick jumps
	// (ApplySnapshot/ApplyDelta) invalidate it, and it is allocated lazily on
	// the first BeginTick so pure-receiver stores never pay for it.
	dirty       [][]protocol.ParticipantID
	ringLo      uint64
	candScratch []protocol.ParticipantID
}

// NewStore creates an empty store at tick zero.
func NewStore() *Store {
	return &Store{entities: make(map[protocol.ParticipantID]*record), ringLo: 1}
}

// Tick returns the current tick number.
func (s *Store) Tick() uint64 { return s.tick }

// BeginTick advances to the next tick and returns it. Call once per server
// tick before applying that tick's updates.
func (s *Store) BeginTick() uint64 {
	s.tick++
	if s.dirty == nil {
		s.dirty = make([][]protocol.ParticipantID, dirtyRingCap)
	}
	s.dirty[s.tick%dirtyRingCap] = s.dirty[s.tick%dirtyRingCap][:0]
	if lo := s.tick - min(s.tick, dirtyRingCap-1); lo > s.ringLo {
		s.ringLo = lo
	}
	return s.tick
}

// markChanged stamps r changed at the current tick and records the entity in
// the dirty ring (once per tick; re-stamping within a tick is a no-op).
func (s *Store) markChanged(id protocol.ParticipantID, r *record) {
	if r.changedTick == s.tick {
		return
	}
	r.changedTick = s.tick
	if s.dirty != nil && s.ringLo <= s.tick {
		slot := s.tick % dirtyRingCap
		s.dirty[slot] = append(s.dirty[slot], id)
	}
}

// Upsert inserts or replaces an entity's state, stamping it changed at the
// current tick.
func (s *Store) Upsert(e protocol.EntityState) {
	r, ok := s.entities[e.Participant]
	if !ok {
		r = &record{}
		s.entities[e.Participant] = r
		s.idsDirty = true
	}
	r.state = e
	s.markChanged(e.Participant, r)
}

// UpsertIfChanged inserts or replaces an entity only if its state actually
// differs from what is stored, reporting whether a write happened. Mirroring
// stages (cloud world, regional relays) use it so unchanged entities do not
// get re-stamped — and therefore not re-replicated — every tick.
func (s *Store) UpsertIfChanged(e protocol.EntityState) bool {
	r, ok := s.entities[e.Participant]
	if ok && entityEqual(r.state, e) {
		return false
	}
	s.Upsert(e)
	return true
}

func entityEqual(a, b protocol.EntityState) bool {
	if a.Participant != b.Participant || a.Home != b.Home ||
		a.CapturedAt != b.CapturedAt || a.Pose != b.Pose ||
		a.VelMMS != b.VelMMS || a.Seat != b.Seat || a.Flags != b.Flags {
		return false
	}
	return bytes.Equal(a.Expression, b.Expression)
}

// Touch re-stamps an entity as changed without altering state (used when a
// side channel — e.g. a seat reassignment — must force re-replication).
func (s *Store) Touch(id protocol.ParticipantID) bool {
	r, ok := s.entities[id]
	if !ok {
		return false
	}
	s.markChanged(id, r)
	return true
}

// Remove deletes an entity and logs the removal for delta replication.
// Removing an absent entity is a no-op returning false.
func (s *Store) Remove(id protocol.ParticipantID) bool {
	if _, ok := s.entities[id]; !ok {
		return false
	}
	delete(s.entities, id)
	s.idsDirty = true
	s.removals = append(s.removals, removal{id: id, tick: s.tick})
	return true
}

// removeSilent deletes an entity without logging a removal (receiver-side
// housekeeping, e.g. a replica expiring a retained entity: the store is not
// serving deltas for the dropped entry, and the log must not grow unpruned).
func (s *Store) removeSilent(id protocol.ParticipantID) {
	if _, ok := s.entities[id]; !ok {
		return
	}
	delete(s.entities, id)
	s.idsDirty = true
}

// Get returns an entity's current state.
func (s *Store) Get(id protocol.ParticipantID) (protocol.EntityState, bool) {
	r, ok := s.entities[id]
	if !ok {
		return protocol.EntityState{}, false
	}
	return r.state, true
}

// Len returns the number of live entities.
func (s *Store) Len() int { return len(s.entities) }

// sortedIDs returns the cached ascending ID slice, rebuilding it only after
// membership changes. The result is owned by the store and valid until the
// next Upsert of a new entity, Remove, or snapshot/delta application.
func (s *Store) sortedIDs() []protocol.ParticipantID {
	if s.idsDirty {
		s.ids = s.ids[:0]
		for id := range s.entities {
			s.ids = append(s.ids, id)
		}
		slices.Sort(s.ids)
		s.idsDirty = false
	}
	return s.ids
}

// IDs returns all live participant IDs in ascending order. The slice is a
// copy; callers may mutate the store while iterating it.
func (s *Store) IDs() []protocol.ParticipantID {
	ids := s.sortedIDs()
	out := make([]protocol.ParticipantID, len(ids))
	copy(out, ids)
	return out
}

// Range calls fn for every live entity in ascending participant order
// without allocating. fn must not mutate the store.
func (s *Store) Range(fn func(id protocol.ParticipantID, e protocol.EntityState)) {
	for _, id := range s.sortedIDs() {
		fn(id, s.entities[id].state)
	}
}

// Snapshot builds a full-state message at the current tick. If filter is
// non-nil, only entities it admits are included.
func (s *Store) Snapshot(filter func(protocol.ParticipantID) bool) *protocol.Snapshot {
	msg := &protocol.Snapshot{}
	if filter == nil {
		msg.Entities = make([]protocol.EntityState, 0, len(s.sortedIDs()))
	}
	s.SnapshotInto(filter, msg)
	return msg
}

// SnapshotInto is Snapshot building into msg, reusing its Entities
// capacity; the replicator threads per-peer/cohort scratch messages through
// it so steady-state snapshot planning allocates nothing (mirroring what
// DeltaSinceInto does for deltas and the pooled Decoder does on receive).
func (s *Store) SnapshotInto(filter func(protocol.ParticipantID) bool, msg *protocol.Snapshot) {
	msg.Tick = s.tick
	msg.Entities = msg.Entities[:0]
	for _, id := range s.sortedIDs() {
		if filter != nil && !filter(id) {
			continue
		}
		msg.Entities = append(msg.Entities, s.entities[id].state)
	}
}

// DeltaSince builds a delta of changes after base, up to the current tick.
// If filter is non-nil it gates which changed entities are included
// (interest management); removals are never filtered — every peer must
// learn about departures. Filters are invoked once per candidate and must be
// pure within a tick.
func (s *Store) DeltaSince(base uint64, filter func(protocol.ParticipantID) bool) *protocol.Delta {
	msg := &protocol.Delta{}
	s.DeltaSinceInto(base, filter, msg)
	return msg
}

// DeltaSinceInto is DeltaSince building into msg, reusing its
// Changed/Removed capacity; the replicator threads per-peer scratch messages
// through it so steady-state delta planning allocates nothing.
//
// When the ack horizon lies inside the dirty ring the candidate set is the
// ring's changed-ID union — O(changed in window) — instead of a scan of the
// whole population; older baselines fall back to the full scan.
func (s *Store) DeltaSinceInto(base uint64, filter func(protocol.ParticipantID) bool, msg *protocol.Delta) {
	s.candScratch = s.DeltaSinceCands(base, filter, msg, s.candScratch)
}

// DeltaSinceCands is DeltaSinceInto with a caller-owned candidate buffer for
// the dirty-ring walk, returned (possibly grown) for reuse. It exists for
// concurrent delta builds — PlanTick hands each worker its own buffer —
// and is safe to call from multiple goroutines at once provided the
// store is not mutated for the duration and the sorted-ID cache has been
// materialized by the owner first (any Snapshot/Range/IDs call does; the
// replicator warms it before fanning builds out).
func (s *Store) DeltaSinceCands(base uint64, filter func(protocol.ParticipantID) bool, msg *protocol.Delta, buf []protocol.ParticipantID) []protocol.ParticipantID {
	msg.BaseTick, msg.Tick = base, s.tick
	msg.Changed = msg.Changed[:0]
	msg.Removed = msg.Removed[:0]

	if cands, ok := s.changedSince(base, buf); ok {
		buf = cands
		for _, id := range cands {
			if filter == nil || filter(id) {
				msg.Changed = append(msg.Changed, s.entities[id].state)
			}
		}
	} else {
		for _, id := range s.sortedIDs() {
			r := s.entities[id]
			if r.changedTick > base && (filter == nil || filter(id)) {
				msg.Changed = append(msg.Changed, r.state)
			}
		}
	}
	// removals is ascending by tick: binary-search the first entry newer
	// than base instead of scanning the whole log.
	first := sort.Search(len(s.removals), func(i int) bool { return s.removals[i].tick > base })
	for _, rm := range s.removals[first:] {
		msg.Removed = append(msg.Removed, rm.id)
	}
	return buf
}

// DeltaSinceOwedCands builds an interest-filtered delta with owed-change
// tracking: the decimation-safe variant of DeltaSinceCands for filtered
// peers. filter and owed must be non-nil. Beyond the plain filtered build it
//
//   - marks a candidate the filter rejects as owed when its change is newer
//     than the last planned message that carried it (the peer's ack can pass
//     the change before the filter ever admits it; candidates the ack-lagged
//     baseline merely re-surfaces after their send create no new debt);
//   - sweeps the owed set, re-including an owed entity's current state once
//     the filter admits it — even when its changedTick is at or before base
//     — so a change suppressed on its only dirty tick is still delivered;
//   - settle-gates the sweep: an owed entity is swept only after sitting
//     unchanged for settle ticks. While it keeps changing, every phase-tick
//     send supersedes the suppressed change via the candidate walk, so an
//     eager sweep would only duplicate imminent traffic; the sweep's job is
//     the entity that went quiet with its last change unsent;
//   - retransmit-gates the sweep: an owed entity already included at tick L
//     is re-included only after the peer's ack floor reaches L without the
//     exact ack for L arriving (the tick-L message is then presumed lost).
//     ackTick is that floor — for real peers it equals base.
//
// Candidates and owed IDs are merge-walked in ascending order (each entity
// visited once, filter invoked once per entity), keeping Changed ascending
// and byte-identical across runs and worker counts. Removals are never owed
// and filtered in one case only: a logged removal whose ID is live again
// rides only with a message whose Changed carries the re-added entity.
// Owed entities that died are forgotten during the sweep: the removal log
// tells the peer.
func (s *Store) DeltaSinceOwedCands(base uint64, filter func(protocol.ParticipantID) bool, msg *protocol.Delta, buf []protocol.ParticipantID, owed *OwedSet, ackTick, settle uint64) []protocol.ParticipantID {
	msg.BaseTick, msg.Tick = base, s.tick
	msg.Changed = msg.Changed[:0]
	msg.Removed = msg.Removed[:0]

	cands, ok := s.changedSince(base, buf)
	if !ok {
		cands = buf[:0]
		for _, id := range s.sortedIDs() {
			if s.entities[id].changedTick > base {
				cands = append(cands, id)
			}
		}
	}
	buf = cands
	owedIDs := owed.sortedIDs()
	i, j := 0, 0
	for i < len(cands) || j < len(owedIDs) {
		var id protocol.ParticipantID
		// The merge determines owed-membership for free: every mutation a
		// step makes touches only that step's id, so the snapshot stays
		// accurate for every id still ahead of the walk. The branches below
		// exploit it to skip owed-map probes that could only be no-ops.
		cand, wasOwed := false, false
		switch {
		case j >= len(owedIDs) || (i < len(cands) && cands[i] < owedIDs[j]):
			id, cand = cands[i], true
			i++
		case i >= len(cands) || owedIDs[j] < cands[i]:
			id = owedIDs[j]
			j++
		default: // dirty and owed: the candidate walk subsumes the sweep
			id, cand, wasOwed = cands[i], true, true
			i++
			j++
		}
		if cand {
			if r := s.entities[id]; filter(id) {
				msg.Changed = append(msg.Changed, r.state)
				if wasOwed {
					owed.markSent(id, s.tick)
				}
			} else if wasOwed {
				owed.owe(id, r.changedTick)
			} else {
				owed.oweNew(id)
			}
			continue
		}
		r, live := s.entities[id]
		if !live {
			owed.drop(id)
			continue
		}
		if s.tick-r.changedTick < settle {
			continue // still moving: the candidate walk will supersede this
		}
		if last := owed.lastSent(id); filter(id) && (last == 0 || ackTick >= last) {
			msg.Changed = append(msg.Changed, r.state)
			owed.markSent(id, s.tick)
		}
	}
	first := sort.Search(len(s.removals), func(i int) bool { return s.removals[i].tick > base })
	for _, rm := range s.removals[first:] {
		// A removed ID that is live again was re-added inside the window, so
		// it was a candidate above. If the filter rejected it, the removal
		// must wait too: an earlier message on this base may already have
		// delivered the re-add, and a bare removal would erase it at the
		// receiver after that message's ack has settled the debt.
		if _, live := s.entities[rm.id]; live && !carries(msg.Changed, rm.id) {
			continue
		}
		msg.Removed = append(msg.Removed, rm.id)
	}
	return buf
}

// carries reports whether the ascending changed list includes id.
func carries(changed []protocol.EntityState, id protocol.ParticipantID) bool {
	_, ok := slices.BinarySearchFunc(changed, id, func(e protocol.EntityState, id protocol.ParticipantID) int {
		return cmp.Compare(e.Participant, id)
	})
	return ok
}

// SnapshotOwedInto is SnapshotInto for an interest-filtered peer with owed
// tracking (filter and owed non-nil). A snapshot resets the peer's baseline
// to the current tick, so every live entity the filter omits becomes owed —
// its changedTick, whatever it was, is now at or before the baseline and the
// candidate walk will never surface it again. Included entities that were
// owed become pending on the snapshot's tick; owed entries for dead entities
// are forgotten (the snapshot conveys absence by omission).
func (s *Store) SnapshotOwedInto(filter func(protocol.ParticipantID) bool, msg *protocol.Snapshot, owed *OwedSet) {
	msg.Tick = s.tick
	msg.Entities = msg.Entities[:0]
	for _, id := range s.sortedIDs() {
		if !filter(id) {
			owed.mark(id)
			continue
		}
		msg.Entities = append(msg.Entities, s.entities[id].state)
		owed.markSent(id, s.tick)
	}
	for id := range owed.pending {
		if _, live := s.entities[id]; !live {
			delete(owed.pending, id)
		}
	}
}

// changedSince returns the ascending IDs of live entities changed after base
// via the dirty ring, built into the caller's buffer; ok is false when the
// ring does not cover (base, tick] and the caller must fall back to a full
// scan (buf is returned untouched so its capacity survives).
func (s *Store) changedSince(base uint64, buf []protocol.ParticipantID) ([]protocol.ParticipantID, bool) {
	if s.dirty == nil || base+1 < s.ringLo || base > s.tick {
		return buf, false
	}
	cands := buf[:0]
	for t := base + 1; t <= s.tick; t++ {
		for _, id := range s.dirty[t%dirtyRingCap] {
			// An entity appears in every slot it changed at; keep only the
			// occurrence matching its latest change so each live entity
			// contributes exactly once (removed entities drop out here).
			if r, ok := s.entities[id]; ok && r.changedTick == t {
				cands = append(cands, id)
			}
		}
	}
	slices.Sort(cands)
	// A remove+re-add within one tick can duplicate an ID inside a slot.
	cands = slices.Compact(cands)
	return cands, true
}

// PruneRemovals discards removal log entries at or before minAck (the
// minimum acknowledged tick across peers) — they can never appear in a
// future delta.
func (s *Store) PruneRemovals(minAck uint64) {
	i := 0
	for i < len(s.removals) && s.removals[i].tick <= minAck {
		i++
	}
	if i > 0 {
		copy(s.removals, s.removals[i:])
		s.removals = s.removals[:len(s.removals)-i]
	}
}

// RemovalLogLen exposes the removal backlog size (for tests and metrics).
func (s *Store) RemovalLogLen() int { return len(s.removals) }

// ApplySnapshot replaces the store's contents with the snapshot (receiver
// side). The store tick jumps to the snapshot tick.
func (s *Store) ApplySnapshot(snap *protocol.Snapshot) {
	s.entities = make(map[protocol.ParticipantID]*record, len(snap.Entities))
	for _, e := range snap.Entities {
		s.entities[e.Participant] = &record{state: e, changedTick: snap.Tick}
	}
	s.tick = snap.Tick
	s.removals = nil
	s.idsDirty = true
	s.ringLo = s.tick + 1 // tick jump: the ring no longer covers any window
}

// ApplyDelta merges a delta into the store (receiver side). It returns false
// without modifying anything if the delta's base is newer than the store's
// tick (a gap: the receiver must wait for a snapshot or an older-based
// delta). Deltas based at or before the current tick apply cleanly because
// entity states are absolute, not differential.
func (s *Store) ApplyDelta(d *protocol.Delta) bool {
	if d.BaseTick > s.tick {
		return false
	}
	if d.Tick <= s.tick {
		return true // stale duplicate; nothing newer to learn
	}
	s.tick = d.Tick
	s.ringLo = s.tick + 1 // tick jump: the ring no longer covers any window
	// Removals first: an entity removed and re-added within the delta window
	// appears in both lists (the removal log is never filtered, and the live
	// entity is a change candidate), and the re-add must win.
	for _, id := range d.Removed {
		if _, ok := s.entities[id]; ok {
			delete(s.entities, id)
			s.idsDirty = true
		}
	}
	for _, e := range d.Changed {
		if rec, ok := s.entities[e.Participant]; ok {
			// Reuse the existing record: replicas apply a delta per peer per
			// tick, so this path must not allocate for known entities.
			rec.state = e
			rec.changedTick = d.Tick
			continue
		}
		s.entities[e.Participant] = &record{state: e, changedTick: d.Tick}
		s.idsDirty = true
	}
	return true
}
