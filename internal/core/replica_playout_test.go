package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"metaclass/internal/pose"
	"metaclass/internal/protocol"
)

// ringSpan is the address range of the sample ring b holds (its unexported
// ring field, read through reflect), empty when it holds none.
func ringSpan(b *pose.InterpBuffer) (lo, hi uintptr) {
	ring := reflect.ValueOf(b).Elem().FieldByName("ring")
	if ring.IsNil() {
		return 0, 0
	}
	lo = ring.Pointer()
	return lo, lo + uintptr(ring.Cap())*unsafe.Sizeof(pose.Pose{})
}

// TestPlayoutRingsStayDisjointAcrossGrowth grows one replica from 1 to 300
// entities — past fourteen reallocations of its playout table — through
// deltas that also remove entities and remove-and-re-add others in one
// message. After every apply no two live slots' rings overlap, no vacant
// slot holds a ring, and every live entity's Pose equals a standalone
// NewInterpBuffer's fed the same samples (the map-keyed replica's).
//
// Checked to fail on two seeded mutations:
//   - growth that copies the headers and hands the old table's rings back to
//     the pool: the next tenant seated is given a ring a live slot holds;
//   - an InterpPool.Release that does not zero the header: the vacated
//     slot keeps the ring its next holder writes.
func TestPlayoutRingsStayDisjointAcrossGrowth(t *testing.T) {
	const delay, target = 20 * time.Millisecond, 300
	r, o := NewReplica(delay, nil), newMapReplica(delay)
	rng := rand.New(rand.NewSource(33))
	var live []protocol.ParticipantID // ascending
	next, tick := protocol.ParticipantID(1), uint64(0)
	growths, lastLen := 0, 0
	for step := 0; len(live) < target; step++ {
		now := time.Duration(step+1) * 33 * ms
		d := &protocol.Delta{BaseTick: tick, Tick: tick + 1}
		tick++
		// Remove up to two entities; each is re-added in the same delta
		// half the time, as a new tenant.
		for k := rng.Intn(3); k > 0 && len(live) > 1; k-- {
			i := rng.Intn(len(live))
			d.Removed = append(d.Removed, live[i])
			if rng.Intn(2) == 0 {
				live = slices.Delete(live, i, i+1)
			}
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			live = append(live, next)
			next++
		}
		// Every live entity gets a sample: in order, a late one, or a
		// duplicate of its newest stamp.
		for _, id := range live {
			stamp := now
			switch rng.Intn(8) {
			case 0:
				stamp -= 50 * ms
			case 1:
				stamp -= 33 * ms
			}
			e := ent(id, float64(id)+float64(stamp)/float64(time.Second))
			e.CapturedAt = stamp
			d.Changed = append(d.Changed, e)
		}
		if _, ok := r.Apply(d, now); !ok {
			t.Fatalf("step %d: delta rejected", step)
		}
		o.Apply(d, now)
		if len(r.playout) != lastLen {
			growths, lastLen = growths+1, len(r.playout)
		}

		type span struct{ lo, hi uintptr }
		var spans []span
		for slot := range r.playout {
			p := &r.playout[slot]
			lo, hi := ringSpan(&p.buf)
			if !p.live {
				if lo != 0 {
					t.Fatalf("step %d: vacant slot %d holds a ring", step, slot)
				}
				continue
			}
			spans = append(spans, span{lo, hi})
		}
		if len(spans) != len(live) {
			t.Fatalf("step %d: %d live slots for %d entities", step, len(spans), len(live))
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("step %d: two live slots' rings overlap", step)
			}
		}
		for _, id := range live {
			for _, at := range []time.Duration{now - 60*ms, now + delay/2, now + delay + 10*ms} {
				got, gotOK := r.Pose(id, at)
				want, wantOK := o.Pose(id, at)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d: Pose(%d, %v) = %v,%v, standalone %v,%v", step, id, at, got, gotOK, want, wantOK)
				}
			}
		}
	}
	if growths < 10 {
		t.Fatalf("the playout table grew %d times, want a schedule that grows it at least 10", growths)
	}
}

// TestPlayoutSlotLayout pins the playout table's slot to one cache line on
// 64-bit: the header holds only the entity's ring, head, count and newest
// stamp plus the pointer to what every buffer of the replica shares (its
// delay, extrapolator and read counters, on the pool), and the slot adds its
// two flags. A per-receiver field back in the header shows here.
func TestPlayoutSlotLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit words")
	}
	if got := unsafe.Sizeof(pose.InterpBuffer{}); got != 56 {
		t.Errorf("pose.InterpBuffer is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(playoutSlot{}); got != 64 {
		t.Errorf("playoutSlot is %d bytes, want 64", got)
	}
}
