package interest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

func TestGridUpdateQuery(t *testing.T) {
	g := NewGrid()
	g.Update(1, 1, mathx.V3(0, 0, 0))
	g.Update(2, 2, mathx.V3(3, 0, 0))
	g.Update(3, 3, mathx.V3(50, 0, 0))
	got := g.Neighbors(mathx.V3(0, 0, 0), 5, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors = %v, want [1 2]", got)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGridIgnoresHeight(t *testing.T) {
	g := NewGrid()
	g.Update(1, 1, mathx.V3(0, 100, 0)) // height must not affect 2D interest
	got := g.Neighbors(mathx.V3(0, 0, 0), 1, nil)
	if len(got) != 1 {
		t.Errorf("height affected query: %v", got)
	}
}

func TestGridMoveAcrossCells(t *testing.T) {
	g := NewGrid()
	g.Update(1, 1, mathx.V3(0, 0, 0))
	g.Update(1, 1, mathx.V3(100, 0, 100))
	if got := g.Neighbors(mathx.V3(0, 0, 0), 5, nil); len(got) != 0 {
		t.Errorf("stale entry: %v", got)
	}
	if got := g.Neighbors(mathx.V3(100, 0, 100), 1, nil); len(got) != 1 {
		t.Errorf("moved entity missing: %v", got)
	}
	// A sub-metre move.
	g.Update(1, 1, mathx.V3(100.5, 0, 100.5))
	if got := g.Neighbors(mathx.V3(100.5, 0, 100.5), 1, nil); len(got) != 1 {
		t.Errorf("short move lost entity: %v", got)
	}
}

func TestGridRemove(t *testing.T) {
	g := NewGrid()
	g.Update(1, 1, mathx.V3(1, 0, 1))
	g.Remove(1)
	g.Remove(1) // double remove is a no-op
	if g.Len() != 0 {
		t.Errorf("Len after remove = %d", g.Len())
	}
	if _, ok := g.Position(1); ok {
		t.Error("removed entity still has position")
	}
	if got := g.Neighbors(mathx.V3(1, 0, 1), 5, nil); len(got) != 0 {
		t.Errorf("removed entity in query: %v", got)
	}
}

func TestGridQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := NewGrid()
	type ent struct {
		id protocol.ParticipantID
		p  mathx.Vec3
	}
	var ents []ent
	for i := 0; i < 500; i++ {
		e := ent{protocol.ParticipantID(i), mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)}
		ents = append(ents, e)
		g.Update(e.id, uint32(e.id), e.p)
	}
	for trial := 0; trial < 50; trial++ {
		center := mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)
		radius := rng.Float64() * 30
		got := g.Neighbors(center, radius, nil)
		want := map[protocol.ParticipantID]bool{}
		for _, e := range ents {
			dx, dz := e.p.X-center.X, e.p.Z-center.Z
			if dx*dx+dz*dz <= radius*radius {
				want[e.id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("trial %d: unexpected id %d", trial, id)
			}
		}
	}
}

// TestGridSizedByPopulation: the tables grow with the number of entities,
// never with where they stand — one avatar at the far edge of what a wire
// pose can express costs one slot, and queries next to it and back at the
// origin both answer right.
func TestGridSizedByPopulation(t *testing.T) {
	g := NewGrid()
	g.Update(1, 0, mathx.V3(1, 0, 1))
	g.Update(2, 1, mathx.V3(2, 0, 2))
	edge, _ := protocol.WirePose{PosMM: [3]int64{math.MaxInt64, 0, math.MinInt64}}.Dequantize()
	g.Update(3, 2, edge)
	if len(g.ents) != 3 {
		t.Fatalf("%d slots for 3 entities", len(g.ents))
	}
	if got := g.Neighbors(mathx.V3(0, 0, 0), 60, nil); !slices.Equal(got, []protocol.ParticipantID{1, 2}) {
		t.Errorf("query at the origin = %v, want [1 2]", got)
	}
	if got := g.Neighbors(edge, 60, nil); !slices.Equal(got, []protocol.ParticipantID{3}) {
		t.Errorf("query at the edge = %v, want [3]", got)
	}
	g.Remove(3)
	g.Update(4, 2, mathx.V3(3, 0, 3)) // the store seats the newcomer in the slot 3 left
	if len(g.ents) != 3 {
		t.Fatalf("after the edge avatar left: %d slots, want its slot reused", len(g.ents))
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid()
	g.Update(1, 1, mathx.Vec3{})
	if got := g.Neighbors(mathx.Vec3{}, -1, nil); got != nil {
		t.Errorf("negative radius = %v", got)
	}
}

func TestTierRates(t *testing.T) {
	tiers := []Tier{TierFocus, TierNear, TierFar, TierAmbient}
	var prev uint64
	for _, tier := range tiers {
		d := tier.RateDivisor()
		if d <= prev {
			t.Errorf("divisor not increasing at %v", tier)
		}
		prev = d
		if tier.String() == "" {
			t.Errorf("tier %d unnamed", tier)
		}
	}
	if TierCulled.RateDivisor() != 0 {
		t.Error("culled should never send")
	}
	for tick := uint64(0); tick < 100; tick++ {
		for id := protocol.ParticipantID(0); id < 5; id++ {
			if ShouldSend(TierCulled, id, tick) {
				t.Fatal("culled sent")
			}
			if !ShouldSend(TierFocus, id, tick) {
				t.Fatal("focus skipped a tick")
			}
		}
	}
}

func TestShouldSendPhaseStagger(t *testing.T) {
	// Each source sends exactly once per divisor window, on the tick selected
	// by its deterministic phase — and the phases spread across the window
	// instead of bursting together on tick%d == 0.
	for _, tier := range []Tier{TierNear, TierFar, TierAmbient} {
		d := tier.RateDivisor()
		buckets := make([]int, d)
		for id := protocol.ParticipantID(0); id < 256; id++ {
			sent := 0
			var sentAt uint64
			for tick := uint64(0); tick < d; tick++ {
				if ShouldSend(tier, id, tick) {
					sent++
					sentAt = tick
				}
			}
			if sent != 1 {
				t.Fatalf("%v source %d sent %d times in one window, want 1", tier, id, sent)
			}
			if sentAt != Phase(id)%d {
				t.Fatalf("%v source %d sent at tick %d, want phase %d", tier, id, sentAt, Phase(id)%d)
			}
			buckets[sentAt]++
		}
		for phase, n := range buckets {
			if n == 0 {
				t.Errorf("%v: no source out of 256 landed on phase %d — hash not spreading", tier, phase)
			}
		}
	}
	if Phase(7) != Phase(7) {
		t.Error("Phase not deterministic")
	}
}

func TestPolicyClassify(t *testing.T) {
	p := NewPolicy()
	tests := []struct {
		d    float64
		want Tier
	}{
		{1, TierFocus}, {5, TierNear}, {15, TierFar}, {40, TierAmbient}, {100, TierCulled},
	}
	for _, tt := range tests {
		if got := p.Classify(1, tt.d); got != tt.want {
			t.Errorf("Classify(d=%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
}

func TestPolicyPinOverridesDistance(t *testing.T) {
	p := NewPolicy()
	p.Pin(42)
	if got := p.Classify(42, 1000); got != TierFocus {
		t.Errorf("pinned source = %v, want focus", got)
	}
	p.Unpin(42)
	if got := p.Classify(42, 1000); got != TierCulled {
		t.Errorf("unpinned source = %v, want culled", got)
	}
}

// world is the brute-force oracle for the grid and the set: every position in
// a plain map, every query a scan of all of it, no slots. It holds
// what Plan and Grid.QueryRadius computed before Set.RefreshOwned became the
// only classification loop in the package.
type world map[protocol.ParticipantID]mathx.Vec3

// queryRadius returns the IDs within radius of center (X/Z plane), ascending.
func (w world) queryRadius(center mathx.Vec3, radius float64) []protocol.ParticipantID {
	var out []protocol.ParticipantID
	for id, pos := range w {
		dx, dz := pos.X-center.X, pos.Z-center.Z
		if radius >= 0 && dx*dx+dz*dz <= radius*radius {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// plan returns, ascending, the placed sources due for receiver recv (which
// must be placed) at tick: everyone but recv whose tier — pinned is focus at
// any distance — sends on this tick.
func (w world) plan(p *Policy, recv protocol.ParticipantID, tick uint64) []protocol.ParticipantID {
	at := w[recv]
	var out []protocol.ParticipantID
	for id, pos := range w {
		dx, dz := pos.X-at.X, pos.Z-at.Z
		if id != recv && ShouldSend(p.ClassifySq(id, dx*dx+dz*dz), id, tick) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// allows is what Set.Allows must answer for (recv, src) right after a
// refresh at tick.
func (w world) allows(p *Policy, recv, src protocol.ParticipantID, tick uint64) bool {
	if src == recv {
		return false
	}
	if _, placed := w[recv]; !placed {
		return true // admit-all until the receiver is placed
	}
	if _, placed := w[src]; !placed {
		return true // unindexed sources bypass interest management
	}
	_, due := slices.BinarySearch(w.plan(p, recv, tick), src)
	return due
}

// admitted lists, ascending, the indexed sources a fresh Set admits for recv
// at tick.
func admitted(g *Grid, p *Policy, recv protocol.ParticipantID, tick uint64) []protocol.ParticipantID {
	s := NewSet()
	s.RefreshOwned(g, p, recv, tick)
	var out []protocol.ParticipantID
	for _, e := range g.ids {
		if s.Allows(g, e.id) {
			out = append(out, e.id)
		}
	}
	return out
}

func TestSetExcludesReceiverAndCulled(t *testing.T) {
	g := NewGrid()
	p := NewPolicy()
	g.Update(1, 1, mathx.V3(0, 0, 0))   // receiver
	g.Update(2, 2, mathx.V3(1, 0, 0))   // focus
	g.Update(3, 3, mathx.V3(500, 0, 0)) // culled
	if got := admitted(g, p, 1, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("admitted = %v, want [2]", got)
	}
}

func TestSetDecimatesByTier(t *testing.T) {
	g := NewGrid()
	p := NewPolicy()
	g.Update(1, 1, mathx.V3(0, 0, 0))  // receiver
	g.Update(2, 2, mathx.V3(1, 0, 0))  // focus: every tick
	g.Update(3, 3, mathx.V3(6, 0, 0))  // near: every 2nd
	g.Update(4, 4, mathx.V3(15, 0, 0)) // far: every 4th
	g.Update(5, 5, mathx.V3(30, 0, 0)) // ambient: every 8th
	counts := map[protocol.ParticipantID]int{}
	for tick := uint64(1); tick <= 64; tick++ {
		for _, id := range admitted(g, p, 1, tick) {
			counts[id]++
		}
	}
	want := map[protocol.ParticipantID]int{2: 64, 3: 32, 4: 16, 5: 8}
	for id, w := range want {
		if counts[id] != w {
			t.Errorf("source %d sent %d times, want %d", id, counts[id], w)
		}
	}
}

func TestSetIncludesDistantPinned(t *testing.T) {
	g := NewGrid()
	p := NewPolicy()
	g.Update(1, 1, mathx.V3(0, 0, 0))
	g.Update(9, 9, mathx.V3(1000, 0, 0)) // the lecturer, far outside cull radius
	p.Pin(9)
	if got := admitted(g, p, 1, 3); len(got) != 1 || got[0] != 9 {
		t.Errorf("admitted = %v, want pinned [9]", got)
	}
}

func TestSetFanOutReduction(t *testing.T) {
	// The point of interest management: with 1000 spread-out users, the
	// per-receiver set must be a small fraction of the population.
	rng := rand.New(rand.NewSource(23))
	g := NewGrid()
	p := NewPolicy()
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), uint32(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	total := 0
	for tick := uint64(1); tick <= 8; tick++ {
		total += len(admitted(g, p, 0, tick))
	}
	avg := float64(total) / 8
	if avg > 100 {
		t.Errorf("average set size %v of 1000, want strong reduction", avg)
	}
}

func TestClassifySqMatchesClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := NewPolicy()
	p.Pin(42)
	for i := 0; i < 5000; i++ {
		id := protocol.ParticipantID(rng.Intn(100))
		d := rng.Float64() * 80
		if got, want := p.ClassifySq(id, d*d), p.Classify(id, d); got != want {
			t.Fatalf("ClassifySq(%d, %v²) = %v, Classify = %v", id, d, got, want)
		}
	}
	// Exact tier boundaries.
	for _, d := range []float64{0, 3, 8, 20, 60, 60.0001} {
		if got, want := p.ClassifySq(1, d*d), p.Classify(1, d); got != want {
			t.Fatalf("boundary %v: ClassifySq = %v, Classify = %v", d, got, want)
		}
	}
	// Sixteen ulps either side of every boundary: d <= r and d*d <= r*r can
	// round differently in float64, so Classify must delegate to ClassifySq
	// rather than reimplement the comparison.
	for _, r := range []float64{focusRadius, nearRadius, farRadius, cullRadius} {
		d := r
		for range 16 {
			d = math.Nextafter(d, 0)
		}
		for range 33 {
			if got, want := p.ClassifySq(1, d*d), p.Classify(1, d); got != want {
				t.Fatalf("d=%v near %v: ClassifySq = %v, Classify = %v", d, r, got, want)
			}
			d = math.Nextafter(d, math.Inf(1))
		}
	}
}

func TestRefreshExcludesReceiver(t *testing.T) {
	g := NewGrid()
	p := NewPolicy()
	g.Update(1, 1, mathx.V3(0, 0, 0)) // receiver
	g.Update(2, 2, mathx.V3(1, 0, 0)) // focus neighbor
	s := NewSet()
	s.RefreshOwned(g, p, 1, 1)
	if s.Allows(g, 1) {
		t.Error("receiver admitted into its own allowed set")
	}
	if !s.Allows(g, 2) {
		t.Error("focus neighbor not admitted")
	}

	// A pinned receiver must still never receive itself: the pinned loop
	// would otherwise re-add it regardless of the neighbors fix.
	p.Pin(1)
	s2 := NewSet()
	s2.RefreshOwned(g, p, 1, 2)
	if s2.Allows(g, 1) {
		t.Error("pinned receiver admitted into its own allowed set")
	}
	if !s2.Allows(g, 2) {
		t.Error("neighbor lost after pinning the receiver")
	}

	// Allows(g, recv) == false holds even in admit-everything mode (receiver
	// not yet indexed in the grid).
	s3 := NewSet()
	s3.RefreshOwned(g, p, 99, 1)
	if s3.Allows(g, 99) {
		t.Error("unindexed receiver admitted by allow-all mode")
	}
	if !s3.Allows(g, 2) {
		t.Error("allow-all mode rejected another source")
	}
}

// TestPlanSetPinChurnAgreement is the model test for the slot-indexed grid
// and the bitset Set: random placement, motion, removal (freed slots are
// reused by the next placement, several times over, as the store hands them
// out) and pin/unpin churn, every ID of the pool acting as a receiver with its
// own long-lived Set, and after every tick Set.Allows compared with the
// brute-force world for every (receiver, source) pair — placed, unplaced and
// never-indexed IDs alike. Checked to fail when the refresh stops clearing
// the previous tick's bits, drops the pinned loop, classifies with the
// receiver's phase or tests the divisor instead of its mask, or when Remove
// stops clearing the slot's placed bit.
func TestPlanSetPinChurnAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := NewGrid()
	p := NewPolicy()
	w := world{}
	const n = 48 // IDs 0..n-1 churn through the grid; n and n+1 are never indexed
	// store hands out the slots, as core.Store does.
	store := &mapGrid{slots: map[protocol.ParticipantID]uint32{}}
	randPos := func() mathx.Vec3 { return mathx.V3(rng.Float64()*160-80, rng.Float64()*3, rng.Float64()*160-80) }
	place := func(id protocol.ParticipantID) {
		pos := randPos()
		g.Update(id, store.update(id, pos), pos)
		w[id] = pos
	}
	remove := func(id protocol.ParticipantID) {
		g.Remove(id)
		store.remove(id)
		delete(w, id)
	}
	for i := 0; i < n; i += 2 {
		place(protocol.ParticipantID(i))
	}
	sets := make([]*Set, n+2)
	for i := range sets {
		sets[i] = NewSet()
	}
	slotReuse := 0
	for tick := uint64(1); tick <= 300; tick++ {
		for j := 0; j < 6; j++ {
			id := protocol.ParticipantID(rng.Intn(n))
			switch rng.Intn(6) {
			case 0:
				p.Pin(id) // sometimes an unplaced ID, sometimes a receiver
			case 1:
				p.Unpin(id)
			case 2:
				remove(id)
			default:
				if _, placed := w[id]; !placed && len(store.free) > 0 {
					slotReuse++
				}
				place(id)
			}
		}
		if g.Len() != len(w) {
			t.Fatalf("tick %d: Len = %d, world holds %d", tick, g.Len(), len(w))
		}
		if len(g.ents) > n {
			t.Fatalf("tick %d: %d slots for a pool of %d IDs: freed slots are not reused", tick, len(g.ents), n)
		}
		for r := range sets {
			recv := protocol.ParticipantID(r)
			s := sets[r]
			s.RefreshOwned(g, p, recv, tick)
			for src := protocol.ParticipantID(0); src < n+2; src++ {
				if got, want := s.Allows(g, src), w.allows(p, recv, src, tick); got != want {
					t.Fatalf("tick %d recv %d (placed=%v) source %d (placed=%v pinned=%v): Set.Allows = %v, brute force = %v",
						tick, recv, has(w, recv), src, has(w, src), p.Pinned[src], got, want)
				}
			}
		}
		for id, pos := range w {
			if got, ok := g.Position(id); !ok || got != pos {
				t.Fatalf("tick %d: Position(%d) = %v, %v, want %v", tick, id, got, ok, pos)
			}
		}
	}
	if slotReuse < 50 {
		t.Fatalf("only %d placements reused a freed slot: the schedule does not exercise reuse", slotReuse)
	}
}

func has(w world, id protocol.ParticipantID) bool { _, ok := w[id]; return ok }

// TestRefreshMatchesPlanForAnyPolicy: the refresh never names a tier — it
// compares each slot's distance with reach[trailing zeros of tick^phase]
// — so its agreement with the spec (world.plan: ShouldSend of ClassifySq, one
// source at a time) rests on the table. The table is checked here on seeded
// policies beside NewPolicy(), with and without pins (placed, unplaced, the
// receiver itself); sources exactly on every boundary of the receiver at the
// origin (d² == R²); and 16 consecutive ticks, so every residue of tick&7
// meets every phase class. Checked against three mutations of RefreshOwned's
// scan, each failing the tests named:
//
//	reach[bits.TrailingZeros64(tick^e.phase)&3]  // the clamp "| 8" dropped: this test and four more
//	dx*dx+dz*dz < reach[…]                       // "<" for "<=": this test alone
//	for w := range min(len(s.refused), 2)        // the scan stops before the last partial word:
//	                                             // TestAppendRefusedMatchesAllows/three_words alone
func TestRefreshMatchesPlanForAnyPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	radii := [4]float64{focusRadius, nearRadius, farRadius, cullRadius}
	span := 1.3 * cullRadius
	phases, admittedTotal, onBoundary := map[uint64]bool{}, 0, 0
	for pi := range 241 {
		p, g, w := NewPolicy(), NewGrid(), world{}
		place := func(pos mathx.Vec3) protocol.ParticipantID {
			id := protocol.ParticipantID(rng.Intn(1 << 20))
			for has(w, id) {
				id++
			}
			g.Update(id, uint32(len(w)), pos)
			w[id] = pos
			phases[Phase(id)&7] = true
			return id
		}
		origin := place(mathx.Vec3{})
		boundary := map[protocol.ParticipantID]bool{}
		for _, r := range radii {
			// From the origin dx is ±r exactly and dz zero, so d² == r².
			boundary[place(mathx.V3(r, 0, 0))] = true
			boundary[place(mathx.V3(0, 0, -r))] = true
		}
		recvs := []protocol.ParticipantID{origin}
		for i := 0; i < 32; i++ {
			id := place(mathx.V3((rng.Float64()*2-1)*span, rng.Float64()*3, (rng.Float64()*2-1)*span))
			if i < 4 {
				recvs = append(recvs, id)
			}
		}
		far := place(mathx.V3(40*span, 0, -40*span))
		if pi%2 == 1 {
			p.Pin(far)
			p.Pin(recvs[1])
			p.Pin(protocol.ParticipantID(1 << 21)) // never placed
		}
		first := uint64(rng.Intn(1 << 30))
		for tick := first; tick < first+16; tick++ {
			for _, recv := range recvs {
				want := w.plan(p, recv, tick)
				got := admitted(g, p, recv, tick)
				if !slices.Equal(got, want) {
					t.Fatalf("policy %d %+v tick %d recv %d: refresh admits %v, brute force %v", pi, *p, tick, recv, got, want)
				}
				admittedTotal += len(got)
				if recv == origin {
					for _, id := range got {
						if boundary[id] {
							onBoundary++
						}
					}
				}
			}
		}
	}
	if len(phases) != 8 || admittedTotal < 10000 || onBoundary < 1000 {
		t.Fatalf("%d phase classes, %d admissions, %d of sources on a boundary: the schedule does not exercise the table", len(phases), admittedTotal, onBoundary)
	}
}

func TestNeighborsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGrid()
	w := world{}
	for i := 0; i < 500; i++ {
		id, pos := protocol.ParticipantID(i), mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)
		g.Update(id, uint32(i), pos)
		w[id] = pos
	}
	var buf []protocol.ParticipantID
	for trial := 0; trial < 50; trial++ {
		center := mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)
		radius := rng.Float64() * 30
		buf = g.Neighbors(center, radius, buf[:0])
		if want := w.queryRadius(center, radius); !slices.Equal(buf, want) {
			t.Fatalf("trial %d: Neighbors = %v, brute force = %v", trial, buf, want)
		}
	}
	// A reused buffer with leftover capacity must not leak stale IDs.
	buf = g.Neighbors(mathx.V3(1000, 0, 1000), 1, buf[:0])
	if len(buf) != 0 {
		t.Errorf("query far away returned %v", buf)
	}
}

// BenchmarkRefreshOwned256 is the venue's shape: 16×16 seats at 3.2 m, one
// pinned, default policy, every seat refreshing its own set each tick — four
// full words of the slot table, every slot inside the cull radius.
func BenchmarkRefreshOwned256(b *testing.B) { benchRefreshOwned(b, 256, 16, 3.2) }

// BenchmarkRefreshOwnedLecture100 is the lecture's: 10×10 seats at 1.2 m,
// two words of the slot table, the last one partial.
func BenchmarkRefreshOwnedLecture100(b *testing.B) { benchRefreshOwned(b, 100, 10, 1.2) }

func benchRefreshOwned(b *testing.B, n, wide int, pitch float64) {
	g, p, seats := seatedGrid(n, wide, pitch)
	sets := make([]*Set, n)
	for i := range sets {
		sets[i] = NewSet()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets[i%n].RefreshOwned(g, p, seats[i%n], uint64(i/n+1))
	}
}

// BenchmarkAllows256 prices the answer where BenchmarkRefreshOwned256 prices
// the refresh: one op is one receiver's filter walk over the venue's 256
// sources. ascending is the venue's own walk (every ID, in store order),
// two-thirds the lecture's (in order, every third entity unchanged and never
// offered), shuffled no order at all.
func BenchmarkAllows256(b *testing.B) {
	g, p, seats := venueGrid(256)
	s := NewSet()
	s.RefreshOwned(g, p, seats[0], 1)
	var twoThirds []protocol.ParticipantID
	for i, id := range seats {
		if i%3 != 2 {
			twoThirds = append(twoThirds, id)
		}
	}
	shuffled := slices.Clone(seats)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range []struct {
		name string
		ids  []protocol.ParticipantID
	}{{"ascending", seats}, {"two-thirds", twoThirds}, {"shuffled", shuffled}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				for _, id := range order.ids {
					if s.Allows(g, id) {
						hits++
					}
				}
			}
			if hits == 0 {
				b.Fatal("nothing admitted")
			}
		})
	}
}

// BenchmarkGridJoinLeave prices what the ID directory costs a join or a
// leave that the map it replaced did not: one op is a Remove and a re-Update
// of one resident, round-robin over the population, so the two memmoves
// average half the directory (16 B per entity) each.
func BenchmarkGridJoinLeave(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, _, seats := venueGrid(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := seats[i%n]
				pos, _ := g.Position(id)
				g.Remove(id)
				g.Update(id, uint32(i%n), pos)
			}
		})
	}
}

// venueGrid seats n entities 3.2 m apart on a 16-wide block with the first
// pinned — the venue's shape — and returns their IDs ascending.
func venueGrid(n int) (*Grid, *Policy, []protocol.ParticipantID) { return seatedGrid(n, 16, 3.2) }

// seatedGrid seats n entities pitch meters apart in rows of wide, the first
// pinned, default policy, and returns their IDs ascending.
func seatedGrid(n, wide int, pitch float64) (*Grid, *Policy, []protocol.ParticipantID) {
	g, p := NewGrid(), NewPolicy()
	seats := make([]protocol.ParticipantID, n)
	for i := range seats {
		seats[i] = protocol.ParticipantID(i + 1)
		g.Update(seats[i], uint32(i), mathx.V3(float64(i%wide)*pitch, 0, float64(i/wide)*pitch))
	}
	p.Pin(seats[0])
	return g, p, seats
}

func BenchmarkNeighbors1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid()
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), uint32(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	pos, _ := g.Position(0)
	var buf []protocol.ParticipantID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Neighbors(pos, 60, buf[:0])
	}
}
