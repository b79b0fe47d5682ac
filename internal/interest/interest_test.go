package interest

import (
	"math"
	"math/rand"
	"testing"

	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

func TestGridUpdateQuery(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.V3(0, 0, 0))
	g.Update(2, mathx.V3(3, 0, 0))
	g.Update(3, mathx.V3(50, 0, 0))
	got := g.QueryRadius(mathx.V3(0, 0, 0), 5)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("QueryRadius = %v, want [1 2]", got)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGridIgnoresHeight(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.V3(0, 100, 0)) // height must not affect 2D interest
	got := g.QueryRadius(mathx.V3(0, 0, 0), 1)
	if len(got) != 1 {
		t.Errorf("height affected query: %v", got)
	}
}

func TestGridMoveAcrossCells(t *testing.T) {
	g := NewGrid(2)
	g.Update(1, mathx.V3(0, 0, 0))
	g.Update(1, mathx.V3(100, 0, 100))
	if got := g.QueryRadius(mathx.V3(0, 0, 0), 5); len(got) != 0 {
		t.Errorf("stale cell entry: %v", got)
	}
	if got := g.QueryRadius(mathx.V3(100, 0, 100), 1); len(got) != 1 {
		t.Errorf("moved entity missing: %v", got)
	}
	// Move within the same cell.
	g.Update(1, mathx.V3(100.5, 0, 100.5))
	if got := g.QueryRadius(mathx.V3(100.5, 0, 100.5), 1); len(got) != 1 {
		t.Errorf("same-cell move lost entity: %v", got)
	}
}

func TestGridRemove(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.V3(1, 0, 1))
	g.Remove(1)
	g.Remove(1) // double remove is a no-op
	if g.Len() != 0 {
		t.Errorf("Len after remove = %d", g.Len())
	}
	if _, ok := g.Position(1); ok {
		t.Error("removed entity still has position")
	}
	if got := g.QueryRadius(mathx.V3(1, 0, 1), 5); len(got) != 0 {
		t.Errorf("removed entity in query: %v", got)
	}
}

func TestGridQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := NewGrid(3)
	type ent struct {
		id protocol.ParticipantID
		p  mathx.Vec3
	}
	var ents []ent
	for i := 0; i < 500; i++ {
		e := ent{protocol.ParticipantID(i), mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)}
		ents = append(ents, e)
		g.Update(e.id, e.p)
	}
	for trial := 0; trial < 50; trial++ {
		center := mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)
		radius := rng.Float64() * 30
		got := g.QueryRadius(center, radius)
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

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid(4)
	g.Update(1, mathx.Vec3{})
	if got := g.QueryRadius(mathx.Vec3{}, -1); got != nil {
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

func TestPlanExcludesReceiverAndCulled(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(1, mathx.V3(0, 0, 0))   // receiver
	g.Update(2, mathx.V3(1, 0, 0))   // focus
	g.Update(3, mathx.V3(500, 0, 0)) // culled
	got := Plan(g, p, 1, mathx.V3(0, 0, 0), 0)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Plan = %v, want [2]", got)
	}
}

func TestPlanDecimatesByTier(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(2, mathx.V3(1, 0, 0))  // focus: every tick
	g.Update(3, mathx.V3(6, 0, 0))  // near: every 2nd
	g.Update(4, mathx.V3(15, 0, 0)) // far: every 4th
	g.Update(5, mathx.V3(30, 0, 0)) // ambient: every 8th
	counts := map[protocol.ParticipantID]int{}
	for tick := uint64(0); tick < 64; tick++ {
		for _, id := range Plan(g, p, 1, mathx.V3(0, 0, 0), tick) {
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

func TestPlanIncludesDistantPinned(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(9, mathx.V3(1000, 0, 0)) // the lecturer, far outside cull radius
	p.Pin(9)
	got := Plan(g, p, 1, mathx.V3(0, 0, 0), 3)
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("Plan = %v, want pinned [9]", got)
	}
}

func TestPlanFanOutReduction(t *testing.T) {
	// The point of interest management: with 1000 spread-out users, the
	// per-receiver plan must be a small fraction of the population.
	rng := rand.New(rand.NewSource(23))
	g := NewGrid(8)
	p := NewPolicy()
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	recvPos, _ := g.Position(0)
	total := 0
	for tick := uint64(0); tick < 8; tick++ {
		total += len(Plan(g, p, 0, recvPos, tick))
	}
	avg := float64(total) / 8
	if avg > 100 {
		t.Errorf("average plan size %v of 1000, want strong reduction", avg)
	}
}

func BenchmarkPlan1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid(8)
	p := NewPolicy()
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	pos, _ := g.Position(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Plan(g, p, 0, pos, uint64(i))
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
	// Random radii, including distances engineered to sit on the boundary:
	// d <= r and d*d <= r*r can round differently in float64, so Classify
	// must delegate to ClassifySq rather than reimplement the comparison.
	rng = rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		q := &Policy{Pinned: map[protocol.ParticipantID]bool{}}
		q.FocusRadius = rng.Float64() * 10
		q.NearRadius = q.FocusRadius + rng.Float64()*10
		q.FarRadius = q.NearRadius + rng.Float64()*20
		q.CullRadius = q.FarRadius + rng.Float64()*50
		var d float64
		switch rng.Intn(3) {
		case 0:
			d = rng.Float64() * q.CullRadius * 1.2
		case 1: // exactly on a boundary
			d = [4]float64{q.FocusRadius, q.NearRadius, q.FarRadius, q.CullRadius}[rng.Intn(4)]
		case 2: // one ulp around a boundary
			b := [4]float64{q.FocusRadius, q.NearRadius, q.FarRadius, q.CullRadius}[rng.Intn(4)]
			d = math.Nextafter(b, b+float64(rng.Intn(3)-1))
		}
		if got, want := q.ClassifySq(1, d*d), q.Classify(1, d); got != want {
			t.Fatalf("policy %+v d=%v: ClassifySq = %v, Classify = %v", q, d, got, want)
		}
	}
}

func TestRefreshExcludesReceiver(t *testing.T) {
	g := NewGrid(4)
	p := NewPolicy()
	g.Update(1, mathx.V3(0, 0, 0)) // receiver
	g.Update(2, mathx.V3(1, 0, 0)) // focus neighbor
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

// TestPlanSetPinChurnAgreement drives Plan and Set.RefreshOwned through the
// same pin/unpin churn and random motion, asserting the two admission paths
// never drift: for every indexed source, Set.Allows must equal membership in
// Plan's output.
func TestPlanSetPinChurnAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := NewGrid(4)
	p := NewPolicy()
	const n = 60
	for i := 0; i < n; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*160-80, 0, rng.Float64()*160-80))
	}
	recv := protocol.ParticipantID(0)
	s := NewSet()
	for tick := uint64(1); tick <= 200; tick++ {
		// Churn pins (sometimes pinning the receiver itself) and positions.
		for j := 0; j < 3; j++ {
			id := protocol.ParticipantID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				p.Pin(id)
			} else {
				p.Unpin(id)
			}
		}
		id := protocol.ParticipantID(rng.Intn(n))
		g.Update(id, mathx.V3(rng.Float64()*160-80, 0, rng.Float64()*160-80))

		recvPos, _ := g.Position(recv)
		plan := Plan(g, p, recv, recvPos, tick)
		inPlan := make(map[protocol.ParticipantID]bool, len(plan))
		for _, id := range plan {
			inPlan[id] = true
		}
		s.RefreshOwned(g, p, recv, tick)
		for i := 0; i < n; i++ {
			id := protocol.ParticipantID(i)
			if got, want := s.Allows(g, id), inPlan[id]; got != want {
				t.Fatalf("tick %d source %d: Set.Allows = %v, Plan membership = %v (pinned=%v)",
					tick, id, got, want, p.Pinned[id])
			}
		}
	}
}

func TestNeighborsMatchesQueryRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGrid(4)
	for i := 0; i < 500; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50))
	}
	var buf []protocol.ParticipantID
	for trial := 0; trial < 50; trial++ {
		center := mathx.V3(rng.Float64()*100-50, 0, rng.Float64()*100-50)
		radius := rng.Float64() * 30
		want := g.QueryRadius(center, radius)
		buf = g.Neighbors(center, radius, buf[:0])
		if len(want) != len(buf) {
			t.Fatalf("trial %d: Neighbors found %d, QueryRadius %d", trial, len(buf), len(want))
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("trial %d: order diverged at %d: %v vs %v", trial, i, buf[i], want[i])
			}
		}
	}
	// A reused buffer with leftover capacity must not leak stale IDs.
	buf = g.Neighbors(mathx.V3(1000, 0, 1000), 1, buf[:0])
	if len(buf) != 0 {
		t.Errorf("query far away returned %v", buf)
	}
}

func BenchmarkNeighbors1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid(8)
	for i := 0; i < 1000; i++ {
		g.Update(protocol.ParticipantID(i), mathx.V3(rng.Float64()*400-200, 0, rng.Float64()*400-200))
	}
	pos, _ := g.Position(0)
	var buf []protocol.ParticipantID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Neighbors(pos, 60, buf[:0])
	}
}
