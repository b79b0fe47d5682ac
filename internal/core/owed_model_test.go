package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"metaclass/internal/protocol"
)

// owedModel is the oracle for OwedSet: the map + sorted-key-mirror
// implementation the slot-indexed array replaced, kept here verbatim. It is
// keyed by participant ID and knows nothing of slots or generations.
type owedModel struct {
	pending map[protocol.ParticipantID]uint64
	keys    []protocol.ParticipantID
	sent    []modelSent
}

type modelSent struct {
	id   protocol.ParticipantID
	tick uint64
}

func newOwedModel() *owedModel {
	return &owedModel{pending: make(map[protocol.ParticipantID]uint64)}
}

func (o *owedModel) Len() int { return len(o.pending) }

func (o *owedModel) Owes(id protocol.ParticipantID) bool {
	_, ok := o.pending[id]
	return ok
}

func (o *owedModel) Reset() {
	clear(o.pending)
	o.keys = o.keys[:0]
	o.sent = o.sent[:0]
}

func (o *owedModel) insertKey(id protocol.ParticipantID) {
	if i, found := slices.BinarySearch(o.keys, id); !found {
		o.keys = slices.Insert(o.keys, i, id)
	}
}

func (o *owedModel) removeKey(id protocol.ParticipantID) {
	if i, found := slices.BinarySearch(o.keys, id); found {
		o.keys = slices.Delete(o.keys, i, i+1)
	}
}

func (o *owedModel) owe(id protocol.ParticipantID, changedTick uint64) {
	last, ok := o.pending[id]
	if ok && (last == 0 || changedTick <= last) {
		return
	}
	o.pending[id] = 0
	if !ok {
		o.insertKey(id)
	}
}

func (o *owedModel) oweNew(id protocol.ParticipantID) {
	o.pending[id] = 0
	o.insertKey(id)
}

func (o *owedModel) mark(id protocol.ParticipantID) {
	if _, ok := o.pending[id]; !ok {
		o.insertKey(id)
	}
	o.pending[id] = 0
}

func (o *owedModel) markSent(id protocol.ParticipantID, tick uint64) {
	if _, ok := o.pending[id]; ok {
		o.pending[id] = tick
		o.sent = append(o.sent, modelSent{id: id, tick: tick})
	}
}

func (o *owedModel) lastSent(id protocol.ParticipantID) uint64 { return o.pending[id] }

func (o *owedModel) drop(id protocol.ParticipantID) {
	if _, ok := o.pending[id]; ok {
		delete(o.pending, id)
		o.removeKey(id)
	}
}

func (o *owedModel) AckDrop(tick uint64) {
	if tick == 0 || len(o.sent) == 0 {
		return
	}
	lo := sort.Search(len(o.sent), func(i int) bool { return o.sent[i].tick >= tick })
	hi := lo
	for hi < len(o.sent) && o.sent[hi].tick == tick {
		rec := o.sent[hi]
		hi++
		if o.pending[rec.id] == tick {
			delete(o.pending, rec.id)
			o.removeKey(rec.id)
		}
	}
	o.sent = o.sent[:copy(o.sent, o.sent[hi:])]
}

// Owes reports whether id is currently owed to the peer.
func (o *OwedSet) Owes(s *Store, id protocol.ParticipantID) bool {
	return slices.Contains(o.ids(s), id)
}

// TestOwedSetMatchesMapModel drives a filtered peer's slot-indexed OwedSet
// and the ID-keyed model through the same seeded schedule and compares every
// observable after every operation: Len, Owes for every ID of the pool, the
// ascending owed IDs, each debt's last-sent tick, and ExportBaseline's Owed
// list. The schedule alternates what a node's life alternates — an ingest
// phase (entities upserted and removed, so freed slots are re-seated by other
// IDs while debts written for the previous tenant still sit in the array;
// handoff marks for live and absent IDs; exact, regressed and duplicate acks;
// an occasional peer Reset) and a build phase (begin, then owe / mark /
// markSent over the live entities at a fresh plan tick).
//
// The one rule the harness adds to the model is the array's contract: a debt
// dies with its entity, so a store removal drops the model's entry at once
// (the map implementation let it linger until the next build's sweep) —
// except a mark made while the ID was absent, which both keep until the next
// build resolves it.
//
// Checked to fail when OwedSet.at stops emptying an entry of another
// generation, Store.vacate stops advancing the generation, begin stops
// seating arrived absent marks, owe's covered-by-last guard is dropped, mark
// keeps the old last-sent tick, AckDrop settles a debt re-carried since, or
// Reset keeps the absent marks.
func TestOwedSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const pool = 24
			store := NewStore()
			repl := NewReplicator(store, ReplConfig{})
			never := func(protocol.ParticipantID, uint64) bool { return false }
			if err := repl.AddPeer("p", never); err != nil {
				t.Fatal(err)
			}
			o := &repl.peers["p"].owed
			m := newOwedModel()
			absentMarks := map[protocol.ParticipantID]bool{}
			var planTicks []uint64
			reseated := 0

			live := func(id protocol.ParticipantID) bool { _, ok := store.slots[id]; return ok }
			entry := func(id protocol.ParticipantID) *owedEntry {
				slot := store.slots[id]
				return o.at(slot, store.recs[slot].gen)
			}
			check := func(step int, op string) {
				t.Helper()
				if got, want := o.Len(store), m.Len(); got != want {
					t.Fatalf("step %d after %s: Len = %d, model %d (ids %v, model %v)", step, op, got, want, o.ids(store), m.keys)
				}
				if got := o.ids(store); !slices.Equal(got, m.keys) {
					t.Fatalf("step %d after %s: owed IDs = %v, model %v", step, op, got, m.keys)
				}
				b, err := repl.ExportBaseline("p")
				if err != nil || !slices.Equal(b.Owed, m.keys) {
					t.Fatalf("step %d after %s: ExportBaseline.Owed = %v (%v), model %v", step, op, b.Owed, err, m.keys)
				}
				if st, _ := repl.StatsOf("p"); st.Owed != m.Len() {
					t.Fatalf("step %d after %s: StatsOf.Owed = %d, model %d", step, op, st.Owed, m.Len())
				}
				for id := protocol.ParticipantID(0); id < pool; id++ {
					if got, want := o.Owes(store, id), m.Owes(id); got != want {
						t.Fatalf("step %d after %s: Owes(%d) = %v, model %v", step, op, id, got, want)
					}
					if slot, live := store.slots[id]; live && int(slot) < len(o.ents) && o.ents[slot].owed && o.ents[slot].gen == store.recs[slot].gen {
						if got, want := o.ents[slot].last, m.lastSent(id); got != want {
							t.Fatalf("step %d after %s: last sent of %d = %d, model %d", step, op, id, got, want)
						}
					} else if m.lastSent(id) != 0 {
						t.Fatalf("step %d after %s: model holds %d sent at %d, the set holds no live debt for it", step, op, id, m.lastSent(id))
					}
				}
			}

			for step := 0; step < 4000; step++ {
				id := protocol.ParticipantID(rng.Intn(pool))
				var op string
				switch k := rng.Intn(20); {
				case k < 5:
					op = fmt.Sprintf("upsert %d", id)
					if !live(id) && len(store.free) > 0 {
						reseated++
					}
					store.Upsert(protocol.EntityState{Participant: id, Seat: uint16(step)})
				case k < 8:
					op = fmt.Sprintf("remove %d", id)
					if store.Remove(id) && !absentMarks[id] {
						m.drop(id)
					}
				case k < 10:
					op = fmt.Sprintf("handoff mark %d (live=%v)", id, live(id))
					if !live(id) {
						absentMarks[id] = true
					}
					var err error
					if rng.Intn(2) == 0 {
						err = repl.Owe("p", id)
					} else {
						err = repl.ImportBaseline("p", PeerBaseline{Owed: []protocol.ParticipantID{id}})
					}
					if err != nil {
						t.Fatal(err)
					}
					m.mark(id)
				case k < 13 && len(planTicks) > 0:
					// Exact (recent), regressed (old) or duplicate: any plan
					// tick ever used, some of them more than once.
					tick := planTicks[rng.Intn(len(planTicks))]
					if rng.Intn(2) == 0 {
						tick = planTicks[len(planTicks)-1-rng.Intn(min(3, len(planTicks)))]
					}
					op = fmt.Sprintf("ack %d", tick)
					o.AckDrop(tick)
					m.AckDrop(tick)
				case k == 13 && rng.Intn(8) == 0:
					op = "reset"
					o.Reset()
					m.Reset()
					clear(absentMarks)
				default:
					// One build at a fresh plan tick.
					tick := store.BeginTick()
					planTicks = append(planTicks, tick)
					op = fmt.Sprintf("build at %d", tick)
					o.begin(store)
					clear(absentMarks)
					for _, gone := range slices.Clone(m.keys) {
						if !live(gone) {
							m.drop(gone) // an absent mark whose entity never arrived
						}
					}
					for _, is := range store.ordered() {
						e := entry(is.id)
						switch rng.Intn(5) {
						case 0:
							changed := tick - uint64(rng.Intn(4))
							e.owe(changed)
							if m.Owes(is.id) {
								m.owe(is.id, changed)
							} else {
								m.oweNew(is.id)
							}
						case 1:
							e.mark()
							m.mark(is.id)
						case 2, 3:
							if e.owed {
								o.markSent(is.slot, tick)
							}
							m.markSent(is.id, tick)
						}
					}
				}
				check(step, op)
			}
			if reseated < 200 {
				t.Fatalf("only %d upserts re-seated a freed slot: the schedule does not exercise reuse", reseated)
			}
		})
	}
}
