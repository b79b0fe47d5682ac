package interest

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

// mapGrid is the oracle for the grid's ID directory: slots found through a
// hash map keyed by participant. It also stands in for the store that hands
// the grid its slots: an ID keeps its slot while placed, and a freed slot goes
// to the next newcomer (last freed, first reused), as core.Store's does.
type mapGrid struct {
	slots map[protocol.ParticipantID]uint32
	pos   []mathx.Vec3 // slot-indexed
	free  []uint32
}

// update places or moves id and returns its slot.
func (m *mapGrid) update(id protocol.ParticipantID, p mathx.Vec3) uint32 {
	slot, ok := m.slots[id]
	if !ok {
		if n := len(m.free); n > 0 {
			slot, m.free = m.free[n-1], m.free[:n-1]
		} else {
			slot = uint32(len(m.pos))
			m.pos = append(m.pos, p)
		}
		m.slots[id] = slot
	}
	m.pos[slot] = p
	return slot
}

func (m *mapGrid) remove(id protocol.ParticipantID) {
	if slot, ok := m.slots[id]; ok {
		delete(m.slots, id)
		m.free = append(m.free, slot)
	}
}

// mapSet is the oracle for Set: a refresh that classifies every indexed
// entity by brute force, and the Allows the map-keyed grid answered with —
// one map probe, the slot's bit.
type mapSet struct {
	allowed  map[uint32]bool // by slot
	allowAll bool
	recv     protocol.ParticipantID
}

func (s *mapSet) refresh(m *mapGrid, p *Policy, recv protocol.ParticipantID, tick uint64) {
	s.recv = recv
	at, ok := m.slots[recv]
	if s.allowAll = !ok; !ok {
		return
	}
	s.allowed = map[uint32]bool{}
	for id, slot := range m.slots {
		dx, dz := m.pos[slot].X-m.pos[at].X, m.pos[slot].Z-m.pos[at].Z
		if tierSq(dx*dx+dz*dz).due(Phase(id), tick) {
			s.allowed[slot] = true
		}
	}
	for id := range p.Pinned {
		if slot, indexed := m.slots[id]; indexed {
			s.allowed[slot] = true
		}
	}
}

func (s *mapSet) allows(m *mapGrid, id protocol.ParticipantID) bool {
	if id == s.recv {
		return false
	}
	if s.allowAll {
		return true
	}
	slot, indexed := m.slots[id]
	if !indexed {
		return true
	}
	return s.allowed[slot]
}

// directoryModel drives a Grid and three long-lived Sets beside their
// map-keyed oracles.
type directoryModel struct {
	t    *testing.T
	rng  *rand.Rand
	g    *Grid
	m    *mapGrid
	p    *Policy
	pool []protocol.ParticipantID // the IDs that come and go, ascending
	// asked is every ID Allows is asked about, ascending: the pool, each pool
	// ID's two neighbours (never indexed: below, between and above the ones
	// that are), zero and the largest ID.
	asked []protocol.ParticipantID
	recvs [3]protocol.ParticipantID // always indexed; indexed and pinned; never indexed
	sets  [3]*Set
	refs  [3]*mapSet
	tick  uint64
}

// newDirectoryModel builds the model over a pool of six regions of perRegion
// IDs each.
func newDirectoryModel(t *testing.T, seed int64, perRegion int) *directoryModel {
	h := &directoryModel{
		t: t, rng: rand.New(rand.NewSource(seed)),
		g: NewGrid(), m: &mapGrid{slots: map[protocol.ParticipantID]uint32{}}, p: NewPolicy(),
	}
	// Sparse IDs, a campus in the high half and a seat in the low: region<<16 | n.
	for region := 1; region <= 6; region++ {
		for n := 0; n < perRegion; n++ {
			h.pool = append(h.pool, protocol.ParticipantID(region<<16|n*5+2))
		}
	}
	h.recvs = [3]protocol.ParticipantID{h.pool[10], h.pool[30], 4<<16 | 0x8000}
	h.asked = []protocol.ParticipantID{0, h.recvs[2], math.MaxUint32}
	for _, id := range h.pool {
		h.asked = append(h.asked, id-1, id, id+1)
	}
	slices.Sort(h.asked)
	for i := range h.sets {
		h.sets[i], h.refs[i] = NewSet(), &mapSet{}
	}
	h.update(h.recvs[0], h.randPos())
	h.update(h.recvs[1], h.randPos())
	h.p.Pin(h.recvs[1])
	return h
}

func (h *directoryModel) randPos() mathx.Vec3 {
	return mathx.V3(h.rng.Float64()*140-70, h.rng.Float64()*3, h.rng.Float64()*140-70)
}

func (h *directoryModel) update(id protocol.ParticipantID, p mathx.Vec3) {
	h.g.Update(id, h.m.update(id, p), p)
}

func (h *directoryModel) remove(id protocol.ParticipantID) {
	h.g.Remove(id)
	h.m.remove(id)
}

func (h *directoryModel) refresh() {
	h.tick++
	h.resync()
}

// resync refreshes every receiver's set and oracle at the current tick: a set
// is read only as its refresh left it, against the grid it was built from.
func (h *directoryModel) resync() {
	for i, recv := range h.recvs {
		h.sets[i].RefreshOwned(h.g, h.p, recv, h.tick)
		h.refs[i].refresh(h.m, h.p, recv, h.tick)
	}
}

// check compares the directory with the map, and every receiver's Allows,
// freshly refreshed, with its oracle's over five call orders.
func (h *directoryModel) check(step int) {
	h.t.Helper()
	h.resync()
	g, m := h.g, h.m
	if g.Len() != len(m.slots) || len(g.ids) != len(m.slots) {
		h.t.Fatalf("step %d: Len = %d, directory holds %d, the map %d", step, g.Len(), len(g.ids), len(m.slots))
	}
	for i, e := range g.ids {
		if i > 0 && g.ids[i-1].id >= e.id {
			h.t.Fatalf("step %d: directory not strictly ascending at %d: %d then %d", step, i, g.ids[i-1].id, e.id)
		}
		if slot, ok := m.slots[e.id]; !ok || slot != e.slot || !g.holds(slot) {
			h.t.Fatalf("step %d: directory says %d sits in slot %d (placed=%v), the map slot %d (indexed=%v)",
				step, e.id, e.slot, g.holds(e.slot), slot, ok)
		}
		if pos, ok := g.Position(e.id); !ok || pos != m.pos[e.slot] {
			h.t.Fatalf("step %d: Position(%d) = %v, %v, want %v", step, e.id, pos, ok, m.pos[e.slot])
		}
	}
	placed := 0
	for _, w := range g.placed {
		placed += bits.OnesCount64(w)
	}
	if placed != len(m.slots) {
		h.t.Fatalf("step %d: %d slots marked placed, the map holds %d", step, placed, len(m.slots))
	}

	descending := slices.Clone(h.asked)
	slices.Reverse(descending)
	shuffled := slices.Clone(h.asked)
	h.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var twice, thirds []protocol.ParticipantID
	for i, id := range h.asked {
		twice = append(twice, id, id)
		if i%3 != 2 {
			thirds = append(thirds, id)
		}
	}
	for _, order := range []struct {
		name string
		ids  []protocol.ParticipantID
	}{
		{"ascending", h.asked}, {"descending", descending}, {"shuffled", shuffled},
		{"each twice", twice}, {"every third skipped", thirds},
	} {
		for r, recv := range h.recvs {
			for _, id := range order.ids {
				if got, want := h.sets[r].Allows(g, id), h.refs[r].allows(m, id); got != want {
					_, indexed := m.slots[id]
					h.t.Fatalf("step %d, %s, recv %#x source %#x (indexed=%v): Allows = %v, the map model %v",
						step, order.name, recv, id, indexed, got, want)
				}
			}
		}
	}
}

// TestSetAllowsMatchesMapModel is the model test for the grid's ID directory
// and the Set's answers, with the deleted ID→slot map as the oracle: a seeded
// schedule of joins (fresh slots and recycled ones), sub-metre steps and
// long moves, leaves, pin churn and refreshes at advancing ticks, and after
// every step, with every set refreshed, Allows for an indexed, a pinned and an
// unindexed receiver over indexed and unindexed IDs in five call orders.
// Checked to fail when Allows reads the entry seatOf stops on without asking
// whether it is the ID's, and when Remove leaves the directory entry behind.
func TestSetAllowsMatchesMapModel(t *testing.T) {
	h := newDirectoryModel(t, 31, 8)
	h.refresh()
	h.check(0)
	recycled := 0
	for step := 1; step <= 1500; step++ {
		id := h.pool[h.rng.Intn(len(h.pool))]
		_, indexed := h.m.slots[id]
		switch op := h.rng.Intn(10); {
		case op < 2 && indexed: // a sub-metre step
			pos, _ := h.g.Position(id)
			h.update(id, pos.Add(mathx.V3(h.rng.Float64()-0.5, 0, h.rng.Float64()-0.5)))
		case op < 5: // a join, or a long move
			if !indexed && len(h.m.free) > 0 {
				recycled++
			}
			h.update(id, h.randPos())
		case op < 7:
			if id != h.recvs[0] && id != h.recvs[1] {
				h.remove(id)
			}
		case op == 7:
			if h.p.Pinned[id] && id != h.recvs[1] {
				h.p.Unpin(id)
			} else {
				h.p.Pin(id) // indexed or not
			}
		default:
			h.refresh()
		}
		h.check(step)
	}
	if recycled < 50 {
		t.Fatalf("only %d joins took a recycled slot: the schedule does not exercise slot reuse", recycled)
	}

	// A walk to the end of a directory that then loses half its entries,
	// with no refresh in between: stale in every way it can be.
	t.Run("shrunk under the cursor", func(t *testing.T) {
		h := newDirectoryModel(t, 37, 8)
		for _, id := range h.pool {
			h.update(id, h.randPos())
		}
		h.refresh()
		h.check(0)
		for r := range h.sets[:2] { // the unindexed receiver admits all and never looks
			for _, id := range h.pool {
				if got, want := h.sets[r].Allows(h.g, id), h.refs[r].allows(h.m, id); got != want {
					t.Fatalf("recv %d source %#x: Allows = %v, the map model %v", r, id, got, want)
				}
			}
		}
		for i, id := range h.pool {
			if i%2 == 0 && id != h.recvs[0] && id != h.recvs[1] {
				h.remove(id)
			}
		}
		h.check(1)
	})
}

// checkRefused compares each receiver's refused bits with its oracle: a bit
// on every indexed slot whose tenant the map model refuses, the receiver's
// own included, and on no other slot. It returns how many slots hold another
// tenant than at the previous call (tenants, by slot).
func (h *directoryModel) checkRefused(step int, tenants map[uint32]protocol.ParticipantID) (reseated int) {
	h.t.Helper()
	for r, recv := range h.recvs {
		got := h.sets[r].RefreshOwned(h.g, h.p, recv, h.tick)
		h.refs[r].refresh(h.m, h.p, recv, h.tick)
		want := make([]uint64, len(got))
		for id, slot := range h.m.slots {
			if !h.refs[r].allows(h.m, id) {
				want[slot/64] |= 1 << (slot % 64)
			}
			if allows := h.sets[r].Allows(h.g, id); allows != h.refs[r].allows(h.m, id) {
				h.t.Fatalf("step %d, recv %#x source %#x: Allows = %v, the map model %v", step, recv, id, allows, !allows)
			}
		}
		if !slices.Equal(got, want) {
			h.t.Fatalf("step %d, recv %#x: refused bits %#x, the map model refuses %#x", step, recv, got, want)
		}
	}
	for id, slot := range h.m.slots {
		if was, ok := tenants[slot]; ok && was != id {
			reseated++
		}
		tenants[slot] = id
	}
	return reseated
}

// TestAppendRefusedMatchesAllows checks the build's one question per tick,
// a receiver's refused bits, against the map model's per-source answer, on
// the schedule kind of TestSetAllowsMatchesMapModel: joins into fresh and
// recycled slots, moves, leaves, pin churn and refreshes, and after every step
// the indexed, pinned and unindexed receivers. Then the indexed receiver
// leaves, and after it everything above it, so a receiver the directory no
// longer holds admits everything. A second input seats a pool of 144 first,
// so the slots span three words of the bitset, the last one partial, before
// the same schedule churns them. Checked to fail when the refresh leaves the
// receiver's own bit clear, when it starts from the bits of every slot ever
// placed rather than of the slots placed now, and when the scan stops before
// the last partial word.
func TestAppendRefusedMatchesAllows(t *testing.T) {
	h := newDirectoryModel(t, 43, 8)
	h.refresh()
	tenants := map[uint32]protocol.ParticipantID{}
	h.checkRefused(0, tenants)
	if reseated := h.churnRefused(tenants); reseated < 150 { // seed 43: 199
		t.Fatalf("only %d slots changed tenant between steps: the schedule does not exercise slot reuse", reseated)
	}
	h.remove(h.recvs[0])
	h.checkRefused(1501, tenants)
	for _, id := range h.pool {
		if id > h.recvs[0] {
			h.remove(id)
		}
	}
	h.checkRefused(1502, tenants)

	t.Run("three words", func(t *testing.T) {
		h := newDirectoryModel(t, 47, 24)
		for _, id := range h.pool {
			h.update(id, h.randPos())
		}
		if n := len(h.g.ents); n != len(h.pool) || n <= 128 || n%64 == 0 {
			t.Fatalf("%d slots for a pool of %d: want three words, the last one partial", n, len(h.pool))
		}
		h.refresh()
		tenants := map[uint32]protocol.ParticipantID{}
		h.checkRefused(0, tenants)
		if reseated := h.churnRefused(tenants); reseated < 150 { // seed 47: 182
			t.Fatalf("only %d slots changed tenant between steps: the schedule does not exercise slot reuse", reseated)
		}
	})
}

// churnRefused runs 1,500 steps of the schedule, checking the refused bits
// after each, and returns how many slots changed tenant between steps.
func (h *directoryModel) churnRefused(tenants map[uint32]protocol.ParticipantID) (reseated int) {
	for step := 1; step <= 1500; step++ {
		id := h.pool[h.rng.Intn(len(h.pool))]
		switch op := h.rng.Intn(8); {
		case op < 3:
			h.update(id, h.randPos())
		case op < 5:
			if id != h.recvs[0] && id != h.recvs[1] {
				h.remove(id)
			}
		case op == 5:
			if h.p.Pinned[id] && id != h.recvs[1] {
				h.p.Unpin(id)
			} else {
				h.p.Pin(id)
			}
		default:
			h.refresh()
		}
		reseated += h.checkRefused(step, tenants)
	}
	return reseated
}
