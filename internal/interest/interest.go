// Package interest implements interest management for the cloud VR
// classroom — the mechanism that makes the paper's "thousands of remote
// users" (challenge C2) affordable. Instead of broadcasting every
// participant's every update to every receiver (O(n²) fan-out), each
// receiver subscribes to a spatially and socially relevant subset at
// distance-scaled rates.
package interest

import (
	"cmp"
	"iter"
	"math"
	"math/bits"
	"slices"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

// Grid is a 2D spatial index over the classroom floor plane (X/Z), the
// standard area-of-interest structure. It places each entity at the slot its
// caller's store holds it in (core.Store's), so an interest answer is a bitset
// the store's builds read by slot: a slot-indexed entry array with a bit per
// placed slot, a directory of the placed IDs in ascending order naming each
// one's slot, and a directory of the occupied cells, sorted by cell
// coordinate, whose cells list slots — so the package holds no hash map keyed
// by entity and a query visits only cells somebody stands in. Every table is
// sized by the store's slots, never by coordinates. Update and Remove need
// exclusive access and are the only writers: each keeps both directories
// sorted as it goes (a binary search, then a memmove of the entries above a
// joiner or leaver) and nothing is left for a query to build. Queries
// (Neighbors, Position, Len, a Set's refresh) write nothing to the grid, so
// any number may run concurrently between mutations — the tick's workers do.
type Grid struct {
	size   float64
	ids    []seat   // every placed entity, ascending by ID
	ents   []placed // indexed by store slot; live where placed has the bit
	placed []uint64 // bit per store slot holding a placement
	cells  []cell   // occupied cells, ascending by (x, z)
	// spare keeps emptied cells' slot lists for the next cell that fills: an
	// avatar walking across empty floor allocates nothing.
	spare [][]uint32
}

// seat is one ID directory entry.
type seat struct {
	id   protocol.ParticipantID
	slot uint32
}

// placed is one indexed entity. phase caches Phase(id) for Set.RefreshOwned,
// its only reader: once per neighbour per receiver per tick the refresh counts
// the trailing zero bits of tick^phase.
type placed struct {
	pos   mathx.Vec3
	phase uint64
	id    protocol.ParticipantID
}

// cell is one occupied square of the floor and the slots standing in it.
type cell struct {
	x, z  int32
	slots []uint32
}

// NewGrid creates a grid with the given cell size in meters (default 4).
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = 4
	}
	return &Grid{size: cellSize}
}

func (g *Grid) key(p mathx.Vec3) (x, z int32) {
	return int32(math.Floor(p.X / g.size)), int32(math.Floor(p.Z / g.size))
}

// find returns the directory index of cell (x, z), or of the first after it.
func (g *Grid) find(x, z int32) (int, bool) {
	return slices.BinarySearchFunc(g.cells, cell{x: x, z: z}, func(c, k cell) int {
		if d := cmp.Compare(c.x, k.x); d != 0 {
			return d
		}
		return cmp.Compare(c.z, k.z)
	})
}

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
		e := &g.ents[slot]
		fx, fz := g.key(e.pos)
		e.pos = p
		if tx, tz := g.key(p); fx == tx && fz == tz {
			return
		}
		g.leaveCell(fx, fz, slot)
	} else {
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
	x, z := g.key(p)
	i, occupied := g.find(x, z)
	if !occupied {
		c := cell{x: x, z: z}
		if n := len(g.spare); n > 0 {
			c.slots, g.spare = g.spare[n-1], g.spare[:n-1]
		}
		g.cells = slices.Insert(g.cells, i, c)
	}
	g.cells[i].slots = append(g.cells[i].slots, slot)
}

// Remove deletes an entity, clearing its slot for the store's next tenant.
// Removing an absent entity is a no-op.
func (g *Grid) Remove(id protocol.ParticipantID) {
	at, ok := g.seatOf(id)
	if !ok {
		return
	}
	slot := g.ids[at].slot
	x, z := g.key(g.ents[slot].pos)
	g.leaveCell(x, z, slot)
	g.ids = slices.Delete(g.ids, at, at+1)
	g.placed[slot/64] &^= 1 << (slot % 64)
}

// leaveCell takes slot out of cell (x, z), dropping the cell once empty.
func (g *Grid) leaveCell(x, z int32, slot uint32) {
	i, _ := g.find(x, z)
	c := &g.cells[i]
	n := len(c.slots) - 1
	c.slots[slices.Index(c.slots, slot)] = c.slots[n]
	c.slots = c.slots[:n]
	if n == 0 {
		g.spare = append(g.spare, c.slots)
		g.cells = slices.Delete(g.cells, i, i+1)
	}
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

// occupied yields the slot list of every occupied cell of the square around
// center that a radius query must look at, in cell order. It is the one cell
// walk: the occupied cells of the query square row by row — a binary search
// into the directory wherever a row starts before or runs past the square —
// so cost scales with local density, not with the square's area (a 60 m cull
// radius over 4 m cells is 961 cells; a classroom occupies a few dozen) and
// not with total population. The distance test is the caller's, in its own
// loop over each list. A negative radius yields nothing.
func (g *Grid) occupied(center mathx.Vec3, radius float64) iter.Seq[[]uint32] {
	return func(yield func([]uint32) bool) {
		if radius < 0 {
			return
		}
		lox, loz := g.key(center.Sub(mathx.V3(radius, 0, radius)))
		hix, hiz := g.key(center.Add(mathx.V3(radius, 0, radius)))
		i, _ := g.find(lox, loz)
		for i < len(g.cells) && g.cells[i].x <= hix {
			c := &g.cells[i]
			switch {
			case c.z < loz:
				i, _ = g.find(c.x, loz)
			case c.z > hiz:
				if c.x == hix {
					return // the last row is done (and x+1 could wrap)
				}
				i, _ = g.find(c.x+1, loz)
			default:
				if !yield(c.slots) {
					return
				}
				i++
			}
		}
	}
}

// Neighbors appends all entities within radius of center (2D, X/Z plane) to
// buf and returns the extended slice, sorted by ID for determinism. The
// center entity itself is included if indexed and in range. Passing a reused
// buf (sliced to length zero) makes repeated queries allocation-free.
func (g *Grid) Neighbors(center mathx.Vec3, radius float64, buf []protocol.ParticipantID) []protocol.ParticipantID {
	base := len(buf)
	r2 := radius * radius
	for slots := range g.occupied(center, radius) {
		for _, slot := range slots {
			e := &g.ents[slot]
			if dx, dz := e.pos.X-center.X, e.pos.Z-center.Z; dx*dx+dz*dz <= r2 {
				buf = append(buf, e.id)
			}
		}
	}
	slices.Sort(buf[base:])
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
// refresh from one walk of the grid's cells. A placed source is admitted when
// it is pinned, or stands within the reach of its trailing-zero count: a tier
// with divisor 2^t sends a source on the ticks where tick^phase ends in at
// least t zero bits, so a source whose tick^phase ends in z of them (3 or more
// counting as 3, the slowest tier) is due exactly when some tier 0…z takes its
// distance — when it stands within reach[z], the widest of those tiers' radii.
// That is one compare per neighbour against a four-entry table, and it must
// agree bit for bit with naming the tier first, one source at a time, as the
// tests' ShouldSend(p.ClassifySq(id, d²), id, tick) does. Servers keep one Set
// per subscribed client.
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
		// Distance alone decides here: a pinned neighbour is admitted below,
		// and clearing bits is order-independent. The receiver's own bit is
		// set last, whatever the walk and the pins did to it.
		center := g.ents[self].pos
		for slots := range g.occupied(center, cullRadius) {
			for _, slot := range slots {
				e := &g.ents[slot]
				dx, dz := e.pos.X-center.X, e.pos.Z-center.Z
				if dx*dx+dz*dz <= reach[bits.TrailingZeros64((tick^e.phase)|8)] {
					s.refused[slot/64] &^= 1 << (slot % 64)
				}
			}
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
