package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"metaclass/internal/protocol"
)

// shadowStore is the naive reference implementation DeltaSince is checked
// against: it tracks changed ticks and the removal log with plain maps and
// slices, and always answers by full scan.
type shadowStore struct {
	tick     uint64
	changed  map[protocol.ParticipantID]uint64
	states   map[protocol.ParticipantID]protocol.EntityState
	removals []removal
}

func newShadowStore() *shadowStore {
	return &shadowStore{
		changed: make(map[protocol.ParticipantID]uint64),
		states:  make(map[protocol.ParticipantID]protocol.EntityState),
	}
}

func (s *shadowStore) deltaSince(base uint64, filter func(protocol.ParticipantID) bool) *protocol.Delta {
	msg := &protocol.Delta{BaseTick: base, Tick: s.tick}
	ids := make([]protocol.ParticipantID, 0, len(s.states))
	for id := range s.states {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if s.changed[id] > base && (filter == nil || filter(id)) {
			msg.Changed = append(msg.Changed, s.states[id])
		}
	}
	for _, rm := range s.removals {
		if rm.tick > base {
			msg.Removed = append(msg.Removed, rm.id)
		}
	}
	return msg
}

func (s *shadowStore) prune(minAck uint64) {
	kept := s.removals[:0]
	for _, rm := range s.removals {
		if rm.tick > minAck {
			kept = append(kept, rm)
		}
	}
	s.removals = kept
}

func randEntity(rng *rand.Rand, id protocol.ParticipantID) protocol.EntityState {
	e := protocol.EntityState{
		Participant: id,
		Home:        protocol.ClassroomID(rng.Intn(3)),
		CapturedAt:  time.Duration(rng.Intn(1_000_000)),
		Seat:        uint16(rng.Intn(48)),
		Flags:       uint8(rng.Intn(8)),
	}
	for i := range e.Pose.PosMM {
		e.Pose.PosMM[i] = int64(rng.Intn(20000) - 10000)
		e.VelMMS[i] = int64(rng.Intn(4000) - 2000)
	}
	if rng.Intn(4) == 0 {
		e.Expression = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	return e
}

// TestDeltaSincePropertyMatchesNaiveReference drives randomized
// apply/remove/touch/ack sequences through the real Store and the shadow
// reference in lockstep, asserting every DeltaSinceInto — recent and ancient
// baselines, filtered and unfiltered — is identical. Each probe is also built
// the way the replicator builds an unfiltered peer's, by the encode pass and
// DeltaSinceOwedInto on a persistent owed set nothing marks, and must decode
// to the unfiltered reference; so must SnapshotOwedInto's snapshot.
func TestDeltaSincePropertyMatchesNaiveReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref := newShadowStore()
		const universe = 40
		var owed OwedSet
		var wireDelta protocol.WireDelta
		var wireSnap protocol.WireSnapshot

		for step := 0; step < 4000; step++ {
			s.BeginTick()
			ref.tick++

			// A burst of mutations per tick.
			for k := rng.Intn(6); k > 0; k-- {
				id := protocol.ParticipantID(1 + rng.Intn(universe))
				switch op := rng.Intn(10); {
				case op < 6: // upsert
					e := randEntity(rng, id)
					s.Upsert(e)
					ref.states[id] = e
					ref.changed[id] = ref.tick
				case op < 8: // remove (possibly absent)
					if s.Remove(id) {
						ref.removals = append(ref.removals, removal{id: id, tick: ref.tick})
					}
					delete(ref.states, id)
					delete(ref.changed, id)
				case op < 9: // touch
					if s.Touch(id) {
						ref.changed[id] = ref.tick
					}
				default: // remove + immediate re-add within one tick
					if s.Remove(id) {
						ref.removals = append(ref.removals, removal{id: id, tick: ref.tick})
					}
					e := randEntity(rng, id)
					s.Upsert(e)
					ref.states[id] = e
					ref.changed[id] = ref.tick
				}
			}

			// Occasional ack advances the prune horizon.
			if rng.Intn(10) == 0 && s.Tick() > 3 {
				minAck := s.Tick() - uint64(rng.Intn(3))
				s.PruneRemovals(minAck)
				ref.prune(minAck)
			}

			s.encodeChanged()
			// Probe deltas across the whole baseline range: the previous tick,
			// a horizon up to 316 ticks back (past the replicator's
			// maxDeltaWindow of 150), and everything.
			bases := []uint64{
				s.Tick() - min(s.Tick(), 1),
				s.Tick() - min(s.Tick(), uint64(rng.Intn(316))),
				0,
			}
			for _, base := range bases {
				var filter func(protocol.ParticipantID) bool
				if rng.Intn(3) == 0 {
					filter = func(id protocol.ParticipantID) bool { return id%3 != 0 }
				}
				got := deltaOf(s, base, filter)
				want := ref.deltaSince(base, filter)
				if got.BaseTick != want.BaseTick || got.Tick != want.Tick {
					t.Fatalf("seed %d step %d: header (%d,%d) != (%d,%d)",
						seed, step, got.BaseTick, got.Tick, want.BaseTick, want.Tick)
				}
				if !slices.EqualFunc(got.Changed, want.Changed, entityEqual) {
					t.Fatalf("seed %d step %d base %d: Changed mismatch\ngot  %v\nwant %v",
						seed, step, base, ids(got.Changed), ids(want.Changed))
				}
				if !slices.Equal(got.Removed, want.Removed) {
					t.Fatalf("seed %d step %d base %d: Removed mismatch\ngot  %v\nwant %v",
						seed, step, base, got.Removed, want.Removed)
				}

				s.DeltaSinceOwedInto(base, nil, &wireDelta, &owed, 8)
				owedDelta := decoded(t, &wireDelta).(*protocol.Delta)
				all := ref.deltaSince(base, nil)
				if owedDelta.BaseTick != all.BaseTick || owedDelta.Tick != all.Tick ||
					!slices.EqualFunc(owedDelta.Changed, all.Changed, entityEqual) || !slices.Equal(owedDelta.Removed, all.Removed) {
					t.Fatalf("seed %d step %d base %d: owed build (%d,%d) %v -%v != reference (%d,%d) %v -%v", seed, step, base,
						owedDelta.BaseTick, owedDelta.Tick, ids(owedDelta.Changed), owedDelta.Removed, all.BaseTick, all.Tick, ids(all.Changed), all.Removed)
				}
			}

			// Rarely, a receiver-style tick jump re-stamps everything held and
			// clears the removal log; later deltas must stay correct.
			if rng.Intn(400) == 0 {
				snap := snapshotOf(s, nil)
				s.SnapshotOwedInto(nil, &wireSnap, &owed)
				owedSnap := decoded(t, &wireSnap).(*protocol.Snapshot)
				if owedSnap.Tick != snap.Tick || !slices.EqualFunc(owedSnap.Entities, snap.Entities, entityEqual) {
					t.Fatalf("seed %d step %d: owed snapshot %v != reference %v", seed, step, ids(owedSnap.Entities), ids(snap.Entities))
				}
				snap.Tick += uint64(rng.Intn(5))
				s.ApplySnapshot(snap)
				ref.tick = snap.Tick
				ref.removals = nil
				for id := range ref.states {
					ref.changed[id] = snap.Tick
				}
			}
		}
	}
}

func ids(es []protocol.EntityState) []protocol.ParticipantID {
	out := make([]protocol.ParticipantID, len(es))
	for i := range es {
		out[i] = es[i].Participant
	}
	return out
}
