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
// ascending (id, slot) order indexing it by slot. A slot is the entity's
// while it lives: Upsert and Mirror's moved hand it out, so a node's interest
// grid places the entity at it, and a peer's interest reaches the builds as a
// bitset over slots (RefusedFunc). Not safe for concurrent use: each server
// owns one on its simulation goroutine (PlanTick's concurrent builds only
// read it).
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
	cursors  []int     // Mirror's scratch: one walk-order index per source

	// order holds every live entity's (id, slot), ascending by ID and kept
	// sorted in place; slots is the point index.
	order []idSlot
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

// position returns the walk-order index of id, or of the first entry after
// it, and whether id is there: interest.Grid.seatOf's written-out search.
func (s *Store) position(id protocol.ParticipantID) (int, bool) {
	lo, hi := 0, len(s.order)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.order[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.order) && s.order[lo].id == id
}

// slotOf returns id's slot, seating an ID the store does not hold in the most
// recently vacated slot, else a new one at the end of the table, with its
// entry inserted into the walk order.
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
	at, _ := s.position(id)
	s.order = slices.Insert(s.order, at, idSlot{id: id, slot: slot})
	return slot
}

// drop removes the entity at walk-order index at, logging no removal: r's
// buffer first (on a replica), then the slot (a next tenant may take it at
// once), then the entry.
func (s *Store) drop(at int, r *Replica) {
	if r != nil {
		r.dropBuffer(s.order[at])
	}
	s.release(s.order[at])
	s.order = slices.Delete(s.order, at, at+1)
}

// release frees is's slot: the record is cleared (a vacant slot pins no
// expression bytes) and its generation advances past the departed tenant.
func (s *Store) release(is idSlot) {
	s.recs[is.slot] = record{gen: s.recs[is.slot].gen + 1}
	s.free = append(s.free, is.slot)
	delete(s.slots, is.id)
}

// write is the one write path of a record (Upsert, merge, Mirror).
func (s *Store) write(slot uint32, e *protocol.EntityState) {
	r := &s.recs[slot]
	r.state, r.changedTick, r.encoded = *e, s.tick, false
}

// Upsert inserts or replaces an entity's state, stamping it changed at the
// current tick, and returns the entity's slot.
func (s *Store) Upsert(e protocol.EntityState) uint32 { return s.Put(&e) }

// Put is Upsert for a caller that holds the state already: it copies *e once,
// into the entity's record, and keeps no reference to e.
func (s *Store) Put(e *protocol.EntityState) uint32 {
	slot := s.slotOf(e.Participant)
	s.write(slot, e)
	return slot
}

// Mirror folds srcs, in the order given, into the store at the current tick
// (a relay's mirror, the cloud's edge merge), joining each source's ascending
// walk to the store's by a cursor; new IDs are seated in (source, ID) order. A
// record is written, and passed to moved with its slot, only when it differs
// from the source's (whose changedTick is another store's tick, so it is not
// read): a later source overrides an earlier one. Then each entity no source holds
// departs, ascending, unless retain (if set) keeps it: removed and logged as
// by Remove, and passed to removed.
func (s *Store) Mirror(srcs []*Store, retain func(protocol.EntityState) bool, moved func(uint32, *protocol.EntityState), removed func(protocol.ParticipantID)) {
	for _, src := range srcs {
		order, c := s.order, 0
		for _, is := range src.ordered() {
			e := &src.recs[is.slot].state
			for c < len(order) && order[c].id < is.id {
				c++
			}
			var slot uint32
			if c < len(order) && order[c].id == is.id {
				if slot = order[c].slot; sameEntity(&s.recs[slot].state, e) {
					c++
					continue
				}
			} else {
				slot = s.slotOf(is.id) // seated at the cursor
				order = s.order
			}
			c++
			s.write(slot, e)
			moved(slot, &s.recs[slot].state)
		}
	}
	s.cursors = append(s.cursors[:0], make([]int, len(srcs))...)
	kept := s.order[:0]
	for _, is := range s.order {
		if heldBy(srcs, s.cursors, is.id) || retain != nil && retain(s.recs[is.slot].state) {
			kept = append(kept, is)
			continue
		}
		s.release(is)
		s.removals = append(s.removals, removal{id: is.id, tick: s.tick})
		removed(is.id)
	}
	s.order = kept
}

// heldBy reports whether a source holds id; asked in ascending ID order, its
// cursors at[k] walk each source once.
func heldBy(srcs []*Store, at []int, id protocol.ParticipantID) bool {
	for k, src := range srcs {
		for at[k] < len(src.order) && src.order[at[k]].id < id {
			at[k]++
		}
		if at[k] < len(src.order) && src.order[at[k]].id == id {
			return true
		}
	}
	return false
}

func sameEntity(a, b *protocol.EntityState) bool {
	if a.Participant != b.Participant || a.Home != b.Home ||
		a.CapturedAt != b.CapturedAt || a.Pose != b.Pose ||
		a.VelMMS != b.VelMMS || a.Seat != b.Seat || a.Flags != b.Flags {
		return false
	}
	return bytes.Equal(a.Expression, b.Expression)
}

// Remove deletes an entity and logs the removal for delta replication.
// Removing an absent entity is a no-op returning false.
func (s *Store) Remove(id protocol.ParticipantID) bool {
	at, ok := s.position(id)
	if !ok {
		return false
	}
	s.drop(at, nil)
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

// ordered returns the ascending-ID (id, slot) list; it never writes, so
// concurrent builds share it. A seat or a drop shifts entries in place, so no
// caller may hold the slice across an Upsert, a Remove or an apply. Out of
// line on purpose: inlined, it changed the owed build loop's register
// allocation and venue256_direct measured 2 % slower (2-vCPU host).
//
//go:noinline
func (s *Store) ordered() []idSlot { return s.order }

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
// the store is not mutated meanwhile.
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
// builds.
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

// refuses reports whether refused, a bitset over the store's slots, holds
// slot; a slot past its end is admitted.
func refuses(refused []uint64, slot uint32) bool {
	return int(slot/64) < len(refused) && refused[slot/64]&(1<<(slot%64)) != 0
}

// DeltaSinceOwedInto builds a peer's delta with owed-change tracking into f,
// a frame from protocol.AcquireBody, and seals it; empty reports a delta that
// carries nothing, which the replicator does not send. It is the
// decimation-safe variant of DeltaSinceInto, and the one the replicator plans
// every peer with, from the wire bytes of encodeChanged. owed must be
// non-nil; refused holds a bit per slot whose entity the peer refuses at the
// store's tick, which is the plan's. It is one pass over the ascending (id, slot)
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
// Each entity is visited once, in ascending ID order, and tested against its
// slot's bit (no call per entity), so the carried entities are ascending and
// byte-identical across runs and worker counts. Removals are never owed, and
// filtered in one case only (below). The build settles the peer's queued acks
// first (OwedSet.begin). Concurrency: as DeltaSinceInto, for distinct owed
// sets and frames.
func (s *Store) DeltaSinceOwedInto(base uint64, refused []uint64, f *protocol.Frame, owed *OwedSet, settle uint64) (empty bool, err error) {
	owed.begin(s)
	count, removed := 0, 0
	for _, is := range s.ordered() {
		r := &s.recs[is.slot]
		e := owed.at(is.slot, r.gen)
		if r.changedTick > base {
			// Changed inside the window: this walk subsumes the sweep.
			if !refuses(refused, is.slot) {
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
		if !refuses(refused, is.slot) && (e.last == 0 || base >= e.last) {
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
		if slot, live := s.slots[rm.id]; live && refuses(refused, slot) {
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
func (s *Store) SnapshotOwedInto(refused []uint64, f *protocol.Frame, owed *OwedSet) error {
	owed.begin(s)
	count := 0
	for _, is := range s.ordered() {
		r := &s.recs[is.slot]
		e := owed.at(is.slot, r.gen)
		if refuses(refused, is.slot) {
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
	// behind Replica.OnRemove) is there for the newcomers. Compacting order
	// into kept as it goes, a keyframe omitting k of n costs O(n), not k deletes.
	order := s.order
	kept, c := order[:0], 0
	for i := range snap.Entities {
		id := snap.Entities[i].Participant
		for ; c < len(order) && order[c].id <= id; c++ {
			if order[c].id == id || s.omit(order[c], r) {
				kept = append(kept, order[c])
			}
		}
	}
	for _, is := range order[c:] {
		if s.omit(is, r) {
			kept = append(kept, is)
		}
	}
	s.order = kept
	s.merge(snap.Entities, r, now)
}

// omit handles a live entity a snapshot does not list and reports whether it
// stays: it departs, unless r keeps it in place as retained. A departing
// entity's slot is released here and its entry left to the caller.
func (s *Store) omit(is idSlot, r *Replica) bool {
	if r != nil {
		if r.retain(is.slot) {
			return true
		}
		r.dropBuffer(is)
	}
	s.release(is)
	return false
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
		if at, ok := s.position(id); ok {
			s.drop(at, r)
		}
	}
	s.merge(d.Changed, r, now)
	return true
}

// merge writes ents into the table at the current tick. A sender lists
// entities ascending, so the cursor over the walk order meets each one the
// store holds without a probe; what it cannot match — a new entity, or an
// entry a hostile peer listed out of order or twice — takes the one slotOf
// probe, which finds or seats it. A seat inserts at or before the cursor
// (which stops at the first entry not below the ID), so the cursor steps
// with it; order is reloaded from s only then.
func (s *Store) merge(ents []protocol.EntityState, r *Replica, now time.Duration) {
	order := s.order
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
		} else if slot = s.slotOf(e.Participant); len(s.order) > len(order) {
			order = s.order // seated, at or before the cursor
			c++
		}
		s.write(slot, e)
		if r != nil {
			r.noteEntity(slot, e, now)
		}
	}
}
