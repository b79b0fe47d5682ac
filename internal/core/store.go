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
	"time"

	"metaclass/internal/protocol"
)

// record is one slot of the store's entity table. gen advances when the slot
// is vacated, so slot-indexed state kept elsewhere (a peer's OwedSet) can tell
// the entity it was written for from whoever holds the slot now. encoded
// says the slot's wire bytes are state's. Every write clears it: a stamp
// cannot tell, as content authored after a tick's plan is stamped that tick.
type record struct {
	state       protocol.EntityState
	changedTick uint64
	gen         uint32
	encoded     bool
}

// idSlot is one entry of the store's ascending-ID walk order.
type idSlot struct {
	id   protocol.ParticipantID
	slot uint32
}

type removal struct {
	id   protocol.ParticipantID
	tick uint64
}

// Store is the authoritative entity state, indexed by participant. Every
// live entity holds a small dense slot in recs — one ID→slot map, records by
// value, vacated slots free-listed for the next new entity — and every walk
// of the table, the delta and snapshot builds included, is a pass over the
// ascending (id, slot) order indexing it by slot. Slots do not leave this
// package. Not safe for concurrent use: each server owns one on its
// simulation goroutine (PlanTick's concurrent builds only read it).
//
// The store keeps each record's wire bytes, encoded once per write, so a
// record's Expression bytes are never mutated in place after the write: a new
// expression is a new slice (expression.Quantize, Reader.BytesVar).
type Store struct {
	tick     uint64
	slots    map[protocol.ParticipantID]uint32
	recs     []record
	wire     [][]byte // wire[slot]: recs[slot].state encoded; sized by the first encode
	free     []uint32
	removals []removal // ascending by tick

	// order caches the ascending-ID (id, slot) list between membership
	// changes, so per-tick scans allocate nothing and probe nothing.
	order      []idSlot
	orderDirty bool
}

// NewStore creates an empty store at tick zero.
func NewStore() *Store {
	return &Store{slots: make(map[protocol.ParticipantID]uint32)}
}

// Tick returns the current tick number.
func (s *Store) Tick() uint64 { return s.tick }

// BeginTick advances to the next tick and returns it. Call once per server
// tick before applying that tick's updates.
func (s *Store) BeginTick() uint64 {
	s.tick++
	return s.tick
}

// slotOf returns id's slot, seating a new entity in the most recently vacated
// slot, else in a new one at the end of the table.
func (s *Store) slotOf(id protocol.ParticipantID) uint32 {
	slot, ok := s.slots[id]
	if ok {
		return slot
	}
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		if len(s.recs) == cap(s.recs) {
			// By an eighth, not append's doubling: records are 120 bytes, the
			// table is long-lived, and every learner's replica holds one.
			s.recs = append(make([]record, 0, len(s.recs)+len(s.recs)/8+8), s.recs...)
		}
		slot = uint32(len(s.recs))
		s.recs = append(s.recs, record{})
	}
	s.slots[id] = slot
	s.orderDirty = true
	return slot
}

// vacate frees id's slot: the record is cleared (a vacant slot pins no
// expression bytes) and its generation advances past the departed tenant.
func (s *Store) vacate(id protocol.ParticipantID, slot uint32) {
	s.recs[slot] = record{gen: s.recs[slot].gen + 1}
	s.free = append(s.free, slot)
	delete(s.slots, id)
	s.orderDirty = true
}

// Upsert inserts or replaces an entity's state, stamping it changed at the
// current tick.
func (s *Store) Upsert(e protocol.EntityState) {
	r := &s.recs[s.slotOf(e.Participant)]
	r.state, r.changedTick, r.encoded = e, s.tick, false
}

// UpsertIfChanged inserts or replaces an entity only if its state actually
// differs from what is stored, reporting whether a write happened. Mirroring
// stages (cloud world, regional relays) use it so unchanged entities do not
// get re-stamped — and therefore not re-replicated — every tick.
func (s *Store) UpsertIfChanged(e protocol.EntityState) bool {
	if slot, ok := s.slots[e.Participant]; ok && entityEqual(s.recs[slot].state, e) {
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
	slot, ok := s.slots[id]
	if !ok {
		return false
	}
	s.recs[slot].changedTick = s.tick
	return true
}

// Remove deletes an entity and logs the removal for delta replication.
// Removing an absent entity is a no-op returning false.
func (s *Store) Remove(id protocol.ParticipantID) bool {
	slot, ok := s.slots[id]
	if !ok {
		return false
	}
	s.vacate(id, slot)
	s.removals = append(s.removals, removal{id: id, tick: s.tick})
	return true
}

// Get returns an entity's current state.
func (s *Store) Get(id protocol.ParticipantID) (protocol.EntityState, bool) {
	slot, ok := s.slots[id]
	if !ok {
		return protocol.EntityState{}, false
	}
	return s.recs[slot].state, true
}

// Len returns the number of live entities.
func (s *Store) Len() int { return len(s.slots) }

// ordered returns the cached ascending-ID (id, slot) list, rebuilding it only
// after membership changes. The result is owned by the store and valid until
// the next Upsert of a new entity, Remove, or snapshot/delta application.
func (s *Store) ordered() []idSlot {
	if s.orderDirty {
		s.order = s.order[:0]
		for id, slot := range s.slots {
			s.order = append(s.order, idSlot{id: id, slot: slot})
		}
		slices.SortFunc(s.order, func(a, b idSlot) int { return cmp.Compare(a.id, b.id) })
		s.orderDirty = false
	}
	return s.order
}

// IDs returns all live participant IDs in ascending order. The slice is a
// copy; callers may mutate the store while iterating it.
func (s *Store) IDs() []protocol.ParticipantID {
	order := s.ordered()
	out := make([]protocol.ParticipantID, len(order))
	for i, is := range order {
		out[i] = is.id
	}
	return out
}

// Range calls fn for every live entity in ascending participant order
// without allocating. fn must not mutate the store.
func (s *Store) Range(fn func(id protocol.ParticipantID, e protocol.EntityState)) {
	for _, is := range s.ordered() {
		fn(is.id, s.recs[is.slot].state)
	}
}

// SnapshotInto builds a full-state message at the current tick into msg,
// reusing its Entities capacity. If filter is non-nil, only entities it admits
// are included. It is the reference build: the replicator plans every peer
// with SnapshotOwedInto, and the delta property test and the benchmark
// kernels measure against this one.
func (s *Store) SnapshotInto(filter func(protocol.ParticipantID) bool, msg *protocol.Snapshot) {
	msg.Tick = s.tick
	msg.Entities = msg.Entities[:0]
	for _, is := range s.ordered() {
		if filter != nil && !filter(is.id) {
			continue
		}
		msg.Entities = append(msg.Entities, s.recs[is.slot].state)
	}
}

// DeltaSinceInto builds a delta of changes after base, up to the current
// tick, into msg, reusing its Changed/Removed capacity. If filter is non-nil
// it gates which changed entities are included; removals are never filtered.
// It is one pass over the ascending (id, slot) order testing "changed after
// base", and the reference build that DeltaSinceOwedInto — what the
// replicator plans every peer with — is checked against
// (TestDeltaSincePropertyMatchesNaiveReference) and the benchmark kernels
// measure.
//
// Concurrency: it writes only msg, so several builds may run at once provided
// the store is not mutated meanwhile and the owner has materialized the walk
// order first (the replicator warms it before fanning builds out).
func (s *Store) DeltaSinceInto(base uint64, filter func(protocol.ParticipantID) bool, msg *protocol.Delta) {
	msg.BaseTick, msg.Tick = base, s.tick
	msg.Changed = msg.Changed[:0]
	msg.Removed = msg.Removed[:0]

	for _, is := range s.ordered() {
		r := &s.recs[is.slot]
		if r.changedTick > base && (filter == nil || filter(is.id)) {
			msg.Changed = append(msg.Changed, r.state)
		}
	}
	for _, rm := range s.removedSince(base) {
		msg.Removed = append(msg.Removed, rm.id)
	}
}

// removedSince returns the logged removals newer than base (the log ascends by tick).
func (s *Store) removedSince(base uint64) []removal {
	return s.removals[sort.Search(len(s.removals), func(i int) bool { return s.removals[i].tick > base }):]
}

// encodeChanged encodes each live record written since its last encode into
// its slot's wire bytes, once however many peers are sent it. The owed builds
// copy those bytes, so the owner runs it between the last write and the
// builds; it also materialises the walk order the builds share.
func (s *Store) encodeChanged() {
	if n := len(s.recs) - len(s.wire); n > 0 {
		s.wire = append(s.wire, make([][]byte, n)...)
	}
	for _, is := range s.ordered() {
		if r := &s.recs[is.slot]; !r.encoded {
			s.wire[is.slot] = protocol.AppendEntity(s.wire[is.slot][:0], &r.state)
			r.encoded = true
		}
	}
}

// refusedList is a peer's ascending refused IDs, read as a cursor by one
// ascending walk: admits drops the entries below id for good, stepping over
// IDs the store does not hold, and reports whether id is absent.
type refusedList []protocol.ParticipantID

func (l *refusedList) admits(id protocol.ParticipantID) bool {
	for len(*l) > 0 && (*l)[0] < id {
		*l = (*l)[1:]
	}
	return len(*l) == 0 || (*l)[0] != id
}

// DeltaSinceOwedInto builds a peer's delta with owed-change tracking into f,
// a frame from protocol.AcquireBody, and seals it; empty reports a delta that
// carries nothing, which the replicator does not send. It is the
// decimation-safe variant of DeltaSinceInto, and the one the replicator plans
// every peer with, from the wire bytes of encodeChanged. owed must be
// non-nil; refused lists, ascending, what the peer refuses at the store's
// tick, which is the plan's. It is one pass over the ascending (id, slot)
// list, testing per slot "changed after base, or owed"; beyond the plain
// filtered build it
//
//   - marks a changed entity the peer refuses as owed when its change is
//     newer than the last planned message that carried it (the peer's ack can
//     pass the change before its interest ever admits it; a change the
//     ack-lagged baseline merely re-surfaces after its send is no new debt);
//   - re-includes an owed entity's current state once the peer admits it —
//     even when its changedTick is at or before base — so a change
//     suppressed on its only dirty tick is still delivered;
//   - settle-gates that sweep: an owed entity outside the window is swept
//     only after sitting unchanged for settle ticks. While it keeps changing,
//     every phase-tick send supersedes the suppressed change, so an eager
//     sweep would only duplicate imminent traffic; the sweep's job is the
//     entity that went quiet with its last change unsent;
//   - retransmit-gates the sweep: an owed entity already included at tick L
//     is re-included only after the peer's ack floor base reaches L without
//     the exact ack for L arriving (the tick-L message is then presumed lost).
//
// Each entity is visited once, in ascending ID order, and merge-joined with
// refused (no call per entity), so the carried entities are ascending and
// byte-identical across runs and worker counts. Removals are never owed, and
// filtered in one case only (below). The build settles the peer's queued acks
// first (OwedSet.begin). Concurrency: as DeltaSinceInto, for distinct owed
// sets and frames.
func (s *Store) DeltaSinceOwedInto(base uint64, refused []protocol.ParticipantID, f *protocol.Frame, owed *OwedSet, settle uint64) (empty bool, err error) {
	owed.begin(s)
	count, removed := 0, 0
	cursor := refusedList(refused)
	for _, is := range s.ordered() {
		r := &s.recs[is.slot]
		e := owed.at(is.slot, r.gen)
		if r.changedTick > base {
			// Changed inside the window: this walk subsumes the sweep.
			if cursor.admits(is.id) {
				count++
				f.AppendSpan(s.wire[is.slot])
				if e.owed {
					owed.markSent(is.slot, s.tick)
				}
			} else {
				e.owe(r.changedTick)
			}
			continue
		}
		if !e.owed || s.tick-r.changedTick < settle {
			continue // nothing owed, or still moving: a later walk supersedes this
		}
		if cursor.admits(is.id) && (e.last == 0 || base >= e.last) {
			count++
			f.AppendSpan(s.wire[is.slot])
			owed.markSent(is.slot, s.tick)
		}
	}
	for _, rm := range s.removedSince(base) {
		// A removed ID that is live again was re-added inside the window, so
		// the walk above met it as a changed entity and carried it exactly
		// when the peer admits it. If the peer refused it, the removal must
		// wait too: an earlier message on this base may already have delivered
		// the re-add, and a bare removal would erase it at the receiver after
		// that message's ack has settled the debt.
		_, live := s.slots[rm.id]
		if _, refusedNow := slices.BinarySearch(refused, rm.id); live && refusedNow {
			continue
		}
		removed++
		f.AppendRemoved(rm.id)
	}
	return count == 0 && removed == 0, f.SealDelta(base, s.tick, count, removed)
}

// SnapshotOwedInto is SnapshotInto with owed tracking (owed non-nil), gated
// by refused and built from the wire bytes into f, which it seals, as
// DeltaSinceOwedInto is. A snapshot resets the peer's baseline to the current
// tick, so every live entity refused becomes owed — its changedTick, whatever
// it was, is now at or before the baseline and no delta window will ever
// surface it again. Included entities that were owed become pending on the
// snapshot's tick.
func (s *Store) SnapshotOwedInto(refused []protocol.ParticipantID, f *protocol.Frame, owed *OwedSet) error {
	owed.begin(s)
	count := 0
	cursor := refusedList(refused)
	for _, is := range s.ordered() {
		r := &s.recs[is.slot]
		e := owed.at(is.slot, r.gen)
		if !cursor.admits(is.id) {
			e.mark()
			continue
		}
		count++
		f.AppendSpan(s.wire[is.slot])
		if e.owed {
			owed.markSent(is.slot, s.tick)
		}
	}
	return f.SealSnapshot(s.tick, count)
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

// The receiver side. A replication message is applied by walking its entity
// list — ascending by ID on the wire — against the ascending (id, slot) order,
// so an entity the store already holds is found by advancing a cursor and
// costs no hash probe. Store.ApplySnapshot/ApplyDelta and Replica.Apply run
// the same code: r is the replica whose playout buffers follow the slots, nil
// for a bare store, and now is its apply time.

// ApplySnapshot makes the store's contents the snapshot's (receiver side):
// entities the snapshot omits depart, the ones it lists keep their slots, and
// new ones are seated. The tick jumps to snap.Tick.
func (s *Store) ApplySnapshot(snap *protocol.Snapshot) { s.applySnapshot(snap, nil, 0) }

func (s *Store) applySnapshot(snap *protocol.Snapshot, r *Replica, now time.Duration) {
	s.tick = snap.Tick
	s.removals = nil
	// Omissions first, ascending, and every one of them before the first new
	// entity is seated: whatever a departure frees (its slot here, a seat
	// behind Replica.OnRemove) is there for the newcomers.
	order := s.ordered()
	c := 0
	for i := range snap.Entities {
		id := snap.Entities[i].Participant
		for ; c < len(order) && order[c].id < id; c++ {
			s.omit(order[c], r)
		}
		if c < len(order) && order[c].id == id {
			c++
		}
	}
	for ; c < len(order); c++ {
		s.omit(order[c], r)
	}
	s.merge(snap.Entities, r, now)
}

// omit handles a live entity a snapshot does not list: it departs, unless r
// keeps it in place as retained.
func (s *Store) omit(is idSlot, r *Replica) {
	if r != nil && r.retain(is.slot) {
		return
	}
	s.drop(is.id, is.slot, r)
}

// drop removes a live entity on the receiver side, without logging a removal
// (the store is not serving deltas for it). r's buffer goes before the slot
// does: once the slot is vacant its next tenant may be seated in it.
func (s *Store) drop(id protocol.ParticipantID, slot uint32, r *Replica) {
	if r != nil {
		r.dropBuffer(id, slot)
	}
	s.vacate(id, slot)
}

// ApplyDelta merges a delta into the store (receiver side). It returns false
// without modifying anything if the delta's base is newer than the store's
// tick (a gap: the receiver must wait for a snapshot or an older-based
// delta). Deltas based at or before the current tick apply cleanly because
// entity states are absolute, not differential.
func (s *Store) ApplyDelta(d *protocol.Delta) bool { return s.applyDelta(d, nil, 0) }

func (s *Store) applyDelta(d *protocol.Delta, r *Replica, now time.Duration) bool {
	if d.BaseTick > s.tick {
		return false
	}
	if d.Tick <= s.tick {
		return true // stale duplicate; nothing newer to learn
	}
	s.tick = d.Tick
	// Removals first: an entity removed and re-added within the delta window
	// appears in both lists (the removal log is never filtered, and the live
	// entity is a change candidate), and the re-add must win — as a new
	// tenant, so the old one's interpolation history does not bridge the gap.
	for _, id := range d.Removed {
		if slot, ok := s.slots[id]; ok {
			s.drop(id, slot, r)
		}
	}
	s.merge(d.Changed, r, now)
	return true
}

// merge writes ents into the table at the current tick. A sender lists
// entities ascending, so the cursor over the walk order meets each one the
// store holds without a probe; what the cursor cannot match — a new entity,
// or an entry a hostile peer listed out of order or twice — takes the one
// slotOf probe, which finds or seats it. Nothing is vacated during the walk,
// so the order taken at its start stays true for every entity in it.
func (s *Store) merge(ents []protocol.EntityState, r *Replica, now time.Duration) {
	order := s.ordered()
	c := 0
	for i := range ents {
		e := &ents[i]
		for c < len(order) && order[c].id < e.Participant {
			c++
		}
		var slot uint32
		if c < len(order) && order[c].id == e.Participant {
			slot = order[c].slot
			c++
		} else {
			slot = s.slotOf(e.Participant)
		}
		rec := &s.recs[slot]
		rec.state, rec.changedTick, rec.encoded = *e, s.tick, false
		if r != nil {
			r.noteEntity(slot, e, now)
		}
	}
}
