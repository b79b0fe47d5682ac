package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metaclass/internal/protocol"
)

// Range calls fn for every live entity in ascending participant order
// without allocating. fn must not mutate the store.
func (s *Store) Range(fn func(id protocol.ParticipantID, e protocol.EntityState)) {
	for _, is := range s.ordered() {
		fn(is.id, s.recs[is.slot].state)
	}
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

// mirrorReference is the loop Store.Mirror replaced, as node.Runtime's
// MirrorPeers ran it: every source entity marked live in a map and written
// through UpsertIfChanged, then a second walk of the store collecting what no
// source holds and retain does not keep, removed one by one.
func mirrorReference(s *Store, srcs []*Store, retain func(protocol.EntityState) bool, moved func(uint32, *protocol.EntityState), removed func(protocol.ParticipantID)) {
	live := make(map[protocol.ParticipantID]bool)
	for _, src := range srcs {
		src.Range(func(id protocol.ParticipantID, e protocol.EntityState) {
			live[id] = true
			if s.UpsertIfChanged(e) {
				moved(s.slots[id], &e)
			}
		})
	}
	var gone []protocol.ParticipantID
	s.Range(func(id protocol.ParticipantID, e protocol.EntityState) {
		if !live[id] && (retain == nil || !retain(e)) {
			gone = append(gone, id)
		}
	})
	for _, id := range gone {
		s.Remove(id)
		removed(id)
	}
}

// mirrorCalls records the callbacks of one mirror, in call order.
type mirrorCalls struct {
	moved   []protocol.EntityState
	removed []protocol.ParticipantID
}

func (c *mirrorCalls) reset() {
	c.moved, c.removed = c.moved[:0], c.removed[:0]
}

func (c *mirrorCalls) onMoved(_ uint32, e *protocol.EntityState) { c.moved = append(c.moved, *e) }

func (c *mirrorCalls) onRemoved(id protocol.ParticipantID) { c.removed = append(c.removed, id) }

// TestMirrorMatchesReferenceLoop holds Store.Mirror to mirrorReference: per
// seed, 1–3 sources authored by seeded upserts and removes over one pool of
// 40 IDs (so sources share IDs, often with differing copies), a store that
// also authors entities of its own (Home 0, which retain keeps on half the
// seeds), 200 ticks. After every mirror the two stores must agree on the walk
// order (IDs and slots), every record (state, changedTick, gen, encoded), the
// removal log, and the moved and removed call sequences. The run must cover
// contested IDs (two sources, differing copies: the last source wins and the
// entity is re-stamped each tick), departures and re-adds into recycled slots.
func TestMirrorMatchesReferenceLoop(t *testing.T) {
	const pool = 40
	contested, departed, reseated := 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			srcs := make([]*Store, 1+int(seed%3))
			for k := range srcs {
				srcs[k] = NewStore()
			}
			var retain func(protocol.EntityState) bool
			if seed%2 == 0 {
				retain = func(e protocol.EntityState) bool { return e.Home == 0 }
			}
			got, want := NewStore(), NewStore()
			var gotCalls, wantCalls mirrorCalls
			entity := func(id protocol.ParticipantID, home protocol.ClassroomID) protocol.EntityState {
				e := protocol.EntityState{
					Participant: id,
					Home:        home,
					Pose:        protocol.WirePose{PosMM: [3]int64{int64(rng.Intn(3)), 0, int64(id)}},
					Flags:       uint8(rng.Intn(2)),
				}
				if rng.Intn(4) == 0 {
					e.Expression = []byte{byte(rng.Intn(2))}
				}
				return e
			}
			for tick := 0; tick < 200; tick++ {
				for _, src := range srcs {
					src.BeginTick()
					for n := rng.Intn(6); n > 0; n-- {
						id := protocol.ParticipantID(1 + rng.Intn(pool))
						if rng.Intn(3) == 0 {
							src.Remove(id)
						} else {
							src.Upsert(entity(id, 1))
						}
					}
				}
				got.BeginTick()
				want.BeginTick()
				if rng.Intn(4) == 0 { // the store authors one of its own
					e := entity(protocol.ParticipantID(1+rng.Intn(pool)), 0)
					got.Upsert(e)
					want.Upsert(e)
				}
				vacant := len(got.free)
				gotCalls.reset()
				wantCalls.reset()
				mirrorReference(want, srcs, retain, wantCalls.onMoved, wantCalls.onRemoved)
				got.Mirror(srcs, retain, gotCalls.onMoved, gotCalls.onRemoved)

				if !slices.Equal(got.order, want.order) {
					t.Fatalf("tick %d: walk order %v, reference %v", tick, got.order, want.order)
				}
				for _, is := range got.order {
					g, w := got.recs[is.slot], want.recs[is.slot]
					if !entityEqual(g.state, w.state) || g.changedTick != w.changedTick || g.gen != w.gen || g.encoded != w.encoded {
						t.Fatalf("tick %d: entity %d record %+v, reference %+v", tick, is.id, g, w)
					}
				}
				if !slices.Equal(got.removals, want.removals) {
					t.Fatalf("tick %d: removal log %v, reference %v", tick, got.removals, want.removals)
				}
				if !slices.EqualFunc(gotCalls.moved, wantCalls.moved, entityEqual) {
					t.Fatalf("tick %d: moved %v, reference %v", tick, gotCalls.moved, wantCalls.moved)
				}
				if !slices.Equal(gotCalls.removed, wantCalls.removed) {
					t.Fatalf("tick %d: removed %v, reference %v", tick, gotCalls.removed, wantCalls.removed)
				}
				departed += len(gotCalls.removed)
				reseated += vacant + len(gotCalls.removed) - len(got.free)

				// Contested: the last source's copy is the store's, stamped now.
				for _, is := range got.order {
					var copies []protocol.EntityState
					for _, src := range srcs {
						if e, ok := src.Get(is.id); ok {
							copies = append(copies, e)
						}
					}
					if len(copies) < 2 || entityEqual(copies[0], copies[len(copies)-1]) {
						continue
					}
					contested++
					if r := got.recs[is.slot]; !entityEqual(r.state, copies[len(copies)-1]) || r.changedTick != got.Tick() {
						t.Fatalf("tick %d: contested entity %d holds %+v at tick %d, want the last source's %+v now", tick, is.id, r.state, r.changedTick, copies[len(copies)-1])
					}
				}
				// Encoding sets the flags a later write must clear.
				got.encodeChanged()
				want.encodeChanged()
			}
		})
	}
	if contested < 1000 || departed < 400 || reseated < 400 {
		t.Fatalf("coverage: %d contested, %d departed, %d seated in a vacated slot", contested, departed, reseated)
	}
}
