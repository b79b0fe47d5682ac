// Package interest implements interest management for the cloud VR
// classroom — the mechanism that makes the paper's "thousands of remote
// users" (challenge C2) affordable. Instead of broadcasting every
// participant's every update to every receiver (O(n²) fan-out), each
// receiver subscribes to a spatially and socially relevant subset at
// distance-scaled rates.
package interest

import (
	"math/bits"
	"slices"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

// Grid is the interest index over the classroom floor plane (X/Z). It
// places each entity at the slot its caller's store holds it in (core.Store's),
// so an interest answer is a bitset the store's builds read by slot: a
// slot-indexed entry array with a bit per placed slot, and a directory of the
// placed IDs in ascending order naming each one's slot — so the package holds
// no hash map keyed by entity, and every table is sized by the store's slots,
// never by coordinates. There is no spatial index: a query is one pass (a
// Set's refresh over the slot table, Neighbors over the directory), because
// every workload puts (nearly) its whole population inside the cull radius of
// every receiver and each peer's build walks the whole store anyway. Update and
// Remove need exclusive access and are the only writers: each keeps the
// directory sorted as it goes (a binary search, then a memmove of the entries
// above a joiner or leaver), and a move is a position store. Queries
// (Neighbors, Position, Len, a Set's refresh) write nothing to the grid, so
// any number may run concurrently between mutations — the tick's workers do.
type Grid struct {
	ids    []seat   // every placed entity, ascending by ID
	ents   []placed // indexed by store slot; live where placed has the bit
	placed []uint64 // bit per store slot holding a placement
}

// seat is one ID directory entry.
type seat struct {
	id   protocol.ParticipantID
	slot uint32
}

// placed is one indexed entity. phase caches Phase(id) for Set.RefreshOwned,
// its only reader: once per slot per receiver per tick the refresh counts
// the trailing zero bits of tick^phase.
type placed struct {
	pos   mathx.Vec3
	phase uint64
	id    protocol.ParticipantID
}

// NewGrid creates an empty grid.
func NewGrid() *Grid { return &Grid{} }

// seatOf returns the ID directory index of id, or of the first entry after it.
// The loop is written out: through slices.BinarySearchFunc the comparator
// calls alone once cost campus_relay_tcp 2.9 % of its step.
func (g *Grid) seatOf(id protocol.ParticipantID) (int, bool) {
	lo, hi := 0, len(g.ids)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); g.ids[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(g.ids) && g.ids[lo].id == id
}

// holds reports whether slot holds a placement.
func (g *Grid) holds(slot uint32) bool {
	return int(slot/64) < len(g.placed) && g.placed[slot/64]&(1<<(slot%64)) != 0
}

// Update places an entity at slot, the store's slot for it, or moves it
// there. An entity keeps its slot while placed: the store frees a slot only
// on a removal, which the caller passes on to Remove.
func (g *Grid) Update(id protocol.ParticipantID, slot uint32, p mathx.Vec3) {
	if g.holds(slot) && g.ents[slot].id == id {
		g.ents[slot].pos = p
		return
	}
	for len(g.ents) <= int(slot) {
		g.ents = append(g.ents, placed{})
	}
	for len(g.placed) <= int(slot/64) {
		g.placed = append(g.placed, 0)
	}
	g.ents[slot] = placed{pos: p, phase: Phase(id), id: id}
	g.placed[slot/64] |= 1 << (slot % 64)
	at, _ := g.seatOf(id)
	g.ids = slices.Insert(g.ids, at, seat{id: id, slot: slot})
}

// Remove deletes an entity, clearing its slot for the store's next tenant.
// The slot's entry stays behind, stale, until the next tenant overwrites it.
// Removing an absent entity is a no-op.
func (g *Grid) Remove(id protocol.ParticipantID) {
	at, ok := g.seatOf(id)
	if !ok {
		return
	}
	slot := g.ids[at].slot
	g.ids = slices.Delete(g.ids, at, at+1)
	g.placed[slot/64] &^= 1 << (slot % 64)
}

// Len returns the number of indexed entities.
func (g *Grid) Len() int { return len(g.ids) }

// Position returns an entity's indexed position.
func (g *Grid) Position(id protocol.ParticipantID) (mathx.Vec3, bool) {
	at, ok := g.seatOf(id)
	if !ok {
		return mathx.Vec3{}, false
	}
	return g.ents[g.ids[at].slot].pos, true
}

// Neighbors appends all entities within radius of center (2D, X/Z plane) to
// buf and returns the extended slice, ascending by ID: one pass over the ID
// directory. The center entity itself is included if indexed and in range; a
// negative radius appends nothing. Passing a reused buf (sliced to length
// zero) makes repeated queries allocation-free.
func (g *Grid) Neighbors(center mathx.Vec3, radius float64, buf []protocol.ParticipantID) []protocol.ParticipantID {
	if radius < 0 {
		return buf
	}
	r2 := radius * radius
	for _, s := range g.ids {
		e := &g.ents[s.slot]
		if dx, dz := e.pos.X-center.X, e.pos.Z-center.Z; dx*dx+dz*dz <= r2 {
			buf = append(buf, s.id)
		}
	}
	return buf
}

// Tier classifies how relevant a source entity is to a receiver.
type Tier uint8

// Relevance tiers.
const (
	TierFocus   Tier = iota // near or socially pinned: full rate, fine LoD
	TierNear                // same area: half rate
	TierFar                 // visible across the room: quarter rate
	TierAmbient             // crowd backdrop: 1/8 rate, impostor LoD
	TierCulled              // outside interest: no updates
)

// The tier boundaries in meters: beyond farRadius but inside cullRadius is
// ambient, and beyond cullRadius a source is dropped entirely.
const focusRadius, nearRadius, farRadius, cullRadius = 3, 8, 20, 60

// reach holds the squared tier radii in tier order: the table Set.RefreshOwned
// indexes by a source's trailing-zero count.
var reach = [4]float64{
	focusRadius * focusRadius, nearRadius * nearRadius,
	farRadius * farRadius, cullRadius * cullRadius,
}

// Policy maps receiver-to-source geometry (and social pins) to tiers.
type Policy struct {
	// Pinned sources (the lecturer, the current speaker) are always focus.
	Pinned map[protocol.ParticipantID]bool
}

// NewPolicy returns a policy with no pins.
func NewPolicy() *Policy {
	return &Policy{Pinned: make(map[protocol.ParticipantID]bool)}
}

// Pin marks a source as always-focus for every receiver (e.g. the educator:
// everyone watches the lecturer regardless of distance).
func (p *Policy) Pin(id protocol.ParticipantID) { p.Pinned[id] = true }

// ClassifySq returns the tier of source for a receiver at the given squared
// distance, letting hot fan-out paths skip the sqrt of a Euclidean distance
// computation entirely.
func (p *Policy) ClassifySq(source protocol.ParticipantID, distSq float64) Tier {
	if p.Pinned[source] {
		return TierFocus
	}
	return tierSq(distSq)
}

// tierSq is the distance half of ClassifySq: the tier of an unpinned source
// at the given squared distance.
func tierSq(distSq float64) Tier {
	switch {
	case distSq <= focusRadius*focusRadius:
		return TierFocus
	case distSq <= nearRadius*nearRadius:
		return TierNear
	case distSq <= farRadius*farRadius:
		return TierFar
	case distSq <= cullRadius*cullRadius:
		return TierAmbient
	default:
		return TierCulled
	}
}

// Phase returns the deterministic decimation phase of a source: a fixed
// integer hash of its ID (splitmix64 finalizer). A tier with divisor d sends
// source id on ticks where tick % d == Phase(id) % d, so each tier's traffic
// spreads evenly across the divisor's ticks instead of every Ambient source
// bursting together on tick%8 == 0. The phase depends only on the ID — no
// clock, no randomness — so replication stays byte-identical across runs and
// worker counts.
func Phase(source protocol.ParticipantID) uint64 {
	x := uint64(source) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Set is one receiver's interest at a tick: the bitset, over the store slots
// the grid places entities at, of the sources it refuses, rebuilt on every
// refresh from one pass over the grid's slot table. A placed source is
// admitted when it is pinned, or stands within the reach of its trailing-zero
// count: a tier with divisor 2^t sends a source on the ticks where tick^phase
// ends in at least t zero bits, so a source whose tick^phase ends in z of them
// (3 or more counting as 3, the slowest tier) is due exactly when some tier
// 0…z takes its distance — when it stands within reach[z], the widest of those
// tiers' radii. That is one compare per slot against a four-entry table, and
// it must agree bit for bit with naming the tier first, one source at a time,
// as the tests' ShouldSend(p.ClassifySq(id, d²), id, tick) does. Servers keep
// one Set per subscribed client.
//
// The build refreshes a set and reads its bits in one call while the store
// and the grid are read-only, so the bits always describe the grid they were
// built from. A refresh writes only its own set: distinct sets may be
// refreshed concurrently, a set never concurrently with itself.
type Set struct {
	refused []uint64 // bit per store slot
	recv    protocol.ParticipantID
}

// NewSet returns an empty, ready-to-refresh set.
func NewSet() *Set { return &Set{} }

// Reset clears the set for reuse by another receiver (the node runtime pools
// per-client sets across join/leave churn). The bitset keeps its capacity.
func (s *Set) Reset() { *s = Set{refused: s.refused[:0]} }

// RefreshOwned rebuilds the set for receiver recv at tick and returns its
// bits: every placed slot it does not admit, and recv's own (clients predict
// themselves locally), even when recv is pinned. A slot past the bitset or
// not placed is admitted: the grid cannot place it. While recv is not placed
// the set admits everything — a just-joined receiver needs the full world
// until placed — and a nil policy admits every source but recv (broadcast).
// The slice is the set's, valid until its next refresh.
func (s *Set) RefreshOwned(g *Grid, p *Policy, recv protocol.ParticipantID, tick uint64) []uint64 {
	s.recv = recv
	s.refused = append(s.refused[:0], g.placed...)
	at, ok := g.seatOf(recv)
	if !ok {
		clear(s.refused)
		return s.refused
	}
	self := g.ids[at].slot
	if p == nil {
		clear(s.refused)
	} else {
		// Distance alone decides here: a pinned source is admitted below, and
		// clearing bits is order-independent. One 64-slot block of the slot
		// table per word of the bitset, each slot's admit bit computed without
		// a branch (the if compiles to a SETcc): the vacant slots' stale
		// entries are read too, and their bits fall away because refused
		// starts as the placed bits. The masks drop the bounds check and the
		// shift guard. The receiver's own bit is set last, whatever the scan
		// and the pins did to it.
		center := g.ents[self].pos
		for w := range s.refused {
			blk := g.ents[64*w : min(64*w+64, len(g.ents))]
			var admit uint64
			for j := range blk {
				e := &blk[j]
				dx, dz := e.pos.X-center.X, e.pos.Z-center.Z
				var b uint64
				if dx*dx+dz*dz <= reach[bits.TrailingZeros64((tick^e.phase)|8)&3] {
					b = 1
				}
				admit |= b << (uint(j) & 63)
			}
			s.refused[w] &^= admit
		}
		// Pinned sources are focus-tier regardless of distance (divisor 1, so
		// no decimation check).
		for id := range p.Pinned {
			if at, placed := g.seatOf(id); placed {
				slot := g.ids[at].slot
				s.refused[slot/64] &^= 1 << (slot % 64)
			}
		}
	}
	s.refused[self/64] |= 1 << (self % 64)
	return s.refused
}
