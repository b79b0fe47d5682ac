package core

import (
	"slices"

	"metaclass/internal/protocol"
)

// OwedSet tracks, for one peer, the entities whose latest change the peer's
// filter suppressed (or that a handoff marked undelivered). It closes the
// decimation hole in plain delta replication: the replicator computes each
// delta against the peer's single ack baseline, so once the peer acks any
// tick past an entity's changedTick, that change can never reappear in a
// delta window — if its only send opportunities were ticks where the tier
// filter rejected it, the peer's replica would stay stale forever. An owed
// entry says "this peer may not have the entity's latest state"; it is
// created whenever the filter rejects a dirty entity (or a snapshot omits a
// live one) whose change is newer than the last message planned for that
// peer that carried it, and is dropped only when the peer acknowledges a
// message that actually carried the entity — not when the message is merely
// planned, because planned messages can be lost.
//
// The set is an array indexed by the store's entity slots — nearly every
// entity is owed to nearly every learner on every tick, so the build tests one
// entry per slot instead of merging a sparse key list. An entry belongs to the
// tenant of its slot named by its generation: a debt dies with its entity (the
// removal log or the replacing snapshot tells the peer) and the slot's next
// tenant never inherits it.
//
// Ownership rules (the determinism/parallelism contract):
//   - One OwedSet per peer, owned by that peer's state. The
//     parallel tick may build many peers' messages concurrently, but never
//     two builds for the same peer — so builds mutate their own OwedSet
//     without synchronization, and only read the store.
//   - Builds walk the store's ascending (id, slot) list, so message bytes
//     are identical across runs and worker counts.
//   - An entry's last is the tick of the newest planned message that
//     included the entity (0 = none since it became owed). An ack settles
//     entries only on an exact tick match: an ack for tick T proves receipt
//     of the tick-T message, while an ack for a later tick proves nothing
//     about T (the T message may have been lost on the way).
//   - AckDrop only queues its tick; the queue is settled, in arrival order,
//     by whatever reads or writes the set next — the peer's build (begin),
//     a handoff mark (markID), a count or export (each) — or by AckDrop
//     itself when the queue is full. Settling late changes nothing a reader
//     can see, and it moves the settle work off the ack path onto the
//     peer's build job.
type OwedSet struct {
	ents []owedEntry // indexed by store slot
	// absent holds, ascending, the IDs marked owed while the store had no
	// such entity (a handoff imports the exporter's debts, and the importer's
	// mirror may lag). The next build keeps those that have arrived by then.
	absent []protocol.ParticipantID
	sent   []sentRec
	// acks holds the acknowledged ticks not yet settled, in arrival order.
	acks []uint64
}

// maxQueuedAcks bounds a set's unsettled acks. A peer acks about one message
// a tick and is built every tick, so the queue rarely holds more than a few;
// a flood between two builds settles inline instead of growing it.
const maxQueuedAcks = 32

// owedEntry is one slot's debt. It is valid for the tenant whose generation
// it carries; OwedSet.at empties it for any other.
type owedEntry struct {
	last uint64
	gen  uint32
	owed bool
}

// sentRec is one owed entity carried by the message planned at tick,
// awaiting that tick's exact ack. Plan ticks are monotonic, so the list is
// tick-sorted by construction and one merge pass settles a run of acks
// instead of walking every owed entry. The slot needs no generation beside
// it: a build visits a slot once, so no later tenant's entry can carry this
// tick as its last.
type sentRec struct {
	slot uint32
	tick uint64
}

// Reset empties the set for reuse by another peer (peer state is pooled
// across join/leave churn). The slices keep their capacity.
func (o *OwedSet) Reset() {
	*o = OwedSet{ents: o.ents[:0], absent: o.absent[:0], sent: o.sent[:0], acks: o.acks[:0]}
}

// fit grows the set to one entry per store slot.
func (o *OwedSet) fit(s *Store) {
	if n := len(s.recs) - len(o.ents); n > 0 {
		o.ents = append(o.ents, make([]owedEntry, n)...)
	}
}

// begin readies the set for a build against s: queued acks settled, fit to
// its table, and each absent mark resolved — owed-unsent if the entity has
// arrived, else forgotten.
func (o *OwedSet) begin(s *Store) {
	o.settle()
	o.fit(s)
	for _, id := range o.absent {
		if slot, ok := s.slots[id]; ok {
			o.at(slot, s.recs[slot].gen).mark()
		}
	}
	o.absent = o.absent[:0]
}

// at returns slot's entry for the tenant of generation gen, emptied first if
// it was written for an earlier one. The set must be fit to the store.
func (o *OwedSet) at(slot, gen uint32) *owedEntry {
	e := &o.ents[slot]
	if e.gen != gen {
		*e = owedEntry{gen: gen}
	}
	return e
}

// owe records that the peer's filter suppressed the entity, whose latest
// change is changedTick. Only a change strictly newer than the entry's
// last-included tick is a new debt — a planned message at that tick already
// carried state at least this fresh, so its ack may still settle the entry.
// The guard matters because a delta window is measured against the peer's
// ack baseline, which lags the send by a round trip: for a tick or two after
// an entity's phase-tick send, the window re-surfaces the very change that
// send carried, and unconditionally resetting the entry to zero would make
// the owed sweep resend state the peer already holds on every tick without
// fresh changes.
func (e *owedEntry) owe(changedTick uint64) {
	if e.owed && (e.last == 0 || changedTick <= e.last) {
		return // already owed-unsent, or the planned message at last covers this change
	}
	e.owed, e.last = true, 0
}

// mark unconditionally (re)opens the debt. Keyframes use this instead of
// owe: a snapshot replaces the receiver's whole world, so an omitted entity is
// erased there and the ack of an earlier carrier must no longer settle it.
func (e *owedEntry) mark() { e.owed, e.last = true, 0 }

// markID is mark by ID, from outside a build (handoff). An ID the store does
// not hold is remembered in absent until the next build.
func (o *OwedSet) markID(s *Store, id protocol.ParticipantID) {
	o.settle()
	slot, ok := s.slots[id]
	if !ok {
		if i, found := slices.BinarySearch(o.absent, id); !found {
			o.absent = slices.Insert(o.absent, i, id)
		}
		return
	}
	o.fit(s)
	o.at(slot, s.recs[slot].gen).mark()
}

// markSent records that the message planned at tick carries the current
// state of slot's tenant, which is owed. An admitted entity that was never
// owed needs no tracking: a lost delta leaves the ack floor in place, so the
// ordinary delta window re-includes it.
func (o *OwedSet) markSent(slot uint32, tick uint64) {
	o.ents[slot].last = tick
	if n := len(o.sent); n >= 256 && n >= 4*len(o.ents) {
		// A peer that stopped acking accumulates stale records (each re-send
		// supersedes the previous one). Compact to the records that still
		// match their entry's newest planned tick.
		w := 0
		for _, rec := range o.sent {
			if o.awaits(rec) {
				o.sent[w] = rec
				w++
			}
		}
		o.sent = o.sent[:w]
	}
	o.sent = append(o.sent, sentRec{slot: slot, tick: tick})
}

// awaits reports whether rec is still the newest planned carrier of its
// slot's debt. Otherwise it is stale — a newer change re-marked the entry
// (last 0), a later message re-carried it (last > tick), or the entry is a
// successor's — and an ack of rec.tick settles nothing.
func (o *OwedSet) awaits(rec sentRec) bool {
	e := o.ents[rec.slot]
	return e.owed && e.last == rec.tick
}

// AckDrop records that the peer acknowledged tick. When the set is next
// settled, every owed entry whose last-included tick exactly matches it is
// dropped: the peer provably received that message and with it the entity's
// then-current state. Any newer change would have re-marked the entry (last
// 0) or been re-included at a later tick, so an exact match means the peer is
// up to date. Only an ack above every earlier ack settles debt: settling an
// ack drops every record at or below it, and a build records only its own
// plan tick, above every acked tick, so a regressed or duplicate ack finds
// nothing (TestAckFloodKeepsQueueBoundedAndMatchesEagerSettle).
func (o *OwedSet) AckDrop(tick uint64) {
	if tick == 0 || len(o.sent) == 0 {
		return // nothing awaits an ack, and only a build adds a record
	}
	if len(o.acks) == maxQueuedAcks {
		o.settle()
	}
	o.acks = append(o.acks, tick)
}

// settle applies the queued acks in arrival order. Each ack settles the
// records of its tick and drops every record at or below it, so an ack at or
// below an earlier one in the queue finds nothing left: the acks that settle
// anything ascend, and one merge pass over the tick-sorted records applies
// them all. A regressed ack for an already-dropped tick settles nothing —
// harmless: the entry stays owed and the retransmit gate re-includes it,
// which is only redundant traffic, never a wrong settle.
func (o *OwedSet) settle() {
	if len(o.acks) == 0 {
		return
	}
	n, floor := 0, uint64(0)
	for _, tick := range o.acks {
		if tick <= floor {
			continue
		}
		floor = tick
		for n < len(o.sent) && o.sent[n].tick < tick {
			n++
		}
		for ; n < len(o.sent) && o.sent[n].tick == tick; n++ {
			if rec := o.sent[n]; o.awaits(rec) {
				o.ents[rec.slot].owed = false
			}
		}
	}
	o.sent = o.sent[:copy(o.sent, o.sent[n:])]
	o.acks = o.acks[:0]
}

// each calls fn for every ID currently owed: the live entities of s with a
// debt, ascending, then the absent marks no live debt covers. Off the tick path.
func (o *OwedSet) each(s *Store, fn func(id protocol.ParticipantID)) {
	o.settle()
	debt := func(slot uint32) bool {
		return int(slot) < len(o.ents) && o.ents[slot].owed && o.ents[slot].gen == s.recs[slot].gen
	}
	for _, is := range s.ordered() {
		if debt(is.slot) {
			fn(is.id)
		}
	}
	for _, id := range o.absent {
		if slot, live := s.slots[id]; !live || !debt(slot) {
			fn(id)
		}
	}
}

// ids returns the IDs currently owed, ascending (nil when there are none).
func (o *OwedSet) ids(s *Store) []protocol.ParticipantID {
	var out []protocol.ParticipantID
	o.each(s, func(id protocol.ParticipantID) { out = append(out, id) })
	slices.Sort(out)
	return out
}

// Len returns the number of entities currently owed.
func (o *OwedSet) Len(s *Store) int {
	n := 0
	o.each(s, func(protocol.ParticipantID) { n++ })
	return n
}
