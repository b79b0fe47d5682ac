package geo

import (
	"strings"
	"testing"
	"time"

	"metaclass/internal/interest"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/rig"
	"metaclass/internal/vclock"
)

// TestGeoMigrateInFlight hands a session off while updates are in flight on
// both halves of the cut: the sa-poor access path has 215 ms of propagation
// against a 50 ms publish interval, so at any instant several frames ride
// each direction of the old link and the backbone is busy feeding the new
// relay. The baseline transfer must make every one of them either harmless
// (stale-duplicate path) or re-covered (owed debt) — converged-or-fail.
func TestGeoMigrateInFlight(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, d := testDeployment(t, 7)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, 2*time.Second)
	if _, err := d.Deploy(2); err != nil {
		t.Fatal(err)
	}
	if inFlight := protocol.LiveFrames() - live0; inFlight == 0 {
		t.Fatal("want frames in flight at the migration instant")
	}
	// Hand off the whole sa-poor cohort one at a time with traffic live, a
	// short stretch of real time between each cut.
	for _, id := range []protocol.ParticipantID{7, 8, 9} {
		if err := d.Migrate(id, "sa-poor"); err != nil {
			t.Fatalf("Migrate(%d): %v", id, err)
		}
		run(t, sim, 300*time.Millisecond)
	}
	run(t, sim, 2*time.Second)
	quiesce(t, d)
	converged(t, d)
	if leaked := protocol.LiveFrames() - live0; leaked != 0 {
		t.Fatalf("%d frames leaked", leaked)
	}
}

// TestGeoMigrateOwedDebt migrates sessions whose owed-sets hold unsettled
// debt: with interest tiers on, far-tier sources are decimated, so at any
// migration instant each peer owes suppressed updates that have not yet hit
// their phase slot. The exported baseline carries that debt to the adopting
// server, which must eventually flush it — the quiesced replicas converge
// only if no owed entry was dropped on the floor during the handoff.
func TestGeoMigrateOwedDebt(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim := vclock.New(11)
	fab := &rig.NetsimFabric{Net: netsim.New(sim)}
	d, err := New(sim, fab, Config{
		Topology:    region.GlobalCampus(),
		CloudRegion: "hk",
		Interest:    interest.NewPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nine learners spread over 9.6 m of seating: the ends of the row are in
	// each other's far tier, so decimation (and owed debt) is always active.
	id := protocol.ParticipantID(1)
	for _, reg := range []region.ID{"kr", "us-east", "sa-poor"} {
		for i := 0; i < 3; i++ {
			if _, err := d.Join(id, reg); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, 2*time.Second)
	if _, err := d.Deploy(2); err != nil {
		t.Fatal(err)
	}
	if moved, err := d.Roam(); err != nil || moved != 6 {
		t.Fatalf("Roam: moved=%d err=%v", moved, err)
	}
	run(t, sim, 2*time.Second)
	quiesce(t, d)
	converged(t, d)
	if leaked := protocol.LiveFrames() - live0; leaked != 0 {
		t.Fatalf("%d frames leaked", leaked)
	}
}

// TestGeoDoubleMigrate bounces one session cloud→relay→cloud with traffic
// live, then recycles its ID entirely (leave + rejoin in another region) —
// the seat/ID-reuse path. Every transition must leave the replica mesh
// convergent and the session's recycled identity freshly seated.
func TestGeoDoubleMigrate(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, d := testDeployment(t, 23)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, 2*time.Second)
	if _, err := d.Deploy(2); err != nil {
		t.Fatal(err)
	}
	const mover = protocol.ParticipantID(4) // a us-east learner
	if err := d.Migrate(mover, "us-east"); err != nil {
		t.Fatal(err)
	}
	run(t, sim, time.Second)
	if err := d.Migrate(mover, ""); err != nil {
		t.Fatal(err)
	}
	run(t, sim, time.Second)
	if err := d.Migrate(mover, "us-east"); err != nil {
		t.Fatal(err)
	}
	run(t, sim, time.Second)

	// Recycle the identity: leave, then rejoin from a different region. The
	// fresh session must route to its best server and get a fresh seat.
	if err := d.Leave(mover); err != nil {
		t.Fatal(err)
	}
	run(t, sim, time.Second)
	s, err := d.Join(mover, "kr")
	if err != nil {
		t.Fatal(err)
	}
	if s.ServedBy() != "" {
		t.Fatalf("rejoined kr session served by %q, want cloud", s.ServedBy())
	}
	run(t, sim, 2*time.Second)
	quiesce(t, d)
	converged(t, d)
	if leaked := protocol.LiveFrames() - live0; leaked != 0 {
		t.Fatalf("%d frames leaked", leaked)
	}
}

// TestGeoDrainRacingLeave interleaves a relay drain with client departures
// on both sides of it: one served client leaves just before the drain (the
// relay must not migrate a ghost) and another just after (the cloud must
// propagate the removal through every surviving replica).
func TestGeoDrainRacingLeave(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, d := testDeployment(t, 31)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, 2*time.Second)
	if _, err := d.Deploy(2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Roam(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, time.Second)

	// IDs 4-6 are the us-east cohort, relay-served after the roam.
	if err := d.Leave(5); err != nil {
		t.Fatalf("Leave(5): %v", err)
	}
	if err := d.Drain("us-east"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := d.Leave(6); err != nil {
		t.Fatalf("Leave(6): %v", err)
	}
	for _, id := range []protocol.ParticipantID{5, 6} {
		if _, ok := d.Session(id); ok {
			t.Fatalf("session %d still live after leave", id)
		}
	}
	if s, _ := d.Session(4); s.ServedBy() != "" {
		t.Fatalf("session 4 served by %q after drain, want cloud", s.ServedBy())
	}
	run(t, sim, 2*time.Second)
	quiesce(t, d)
	converged(t, d)
	if leaked := protocol.LiveFrames() - live0; leaked != 0 {
		t.Fatalf("%d frames leaked", leaked)
	}
}

// migrationFingerprint drives the full deploy→roam→drain→rebalance schedule
// and returns the concatenated metrics fingerprint of every node — the
// byte-identical cross-run determinism surface for handoffs.
func migrationFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	sim, d := testDeployment(t, seed)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, 2*time.Second)
	if _, err := d.Deploy(2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Roam(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, 2*time.Second)
	if err := d.Drain("us-east"); err != nil {
		t.Fatal(err)
	}
	run(t, sim, time.Second)
	if _, _, _, err := d.Rebalance(2); err != nil {
		t.Fatal(err)
	}
	run(t, sim, 2*time.Second)
	quiesce(t, d)
	converged(t, d)
	return fingerprint(d)
}

// TestGeoCrossRunDeterminism reruns the same migration schedule from the
// same seed and requires byte-identical registry fingerprints.
func TestGeoCrossRunDeterminism(t *testing.T) {
	run1 := migrationFingerprint(t, 42)
	run2 := migrationFingerprint(t, 42)
	if run1 != run2 {
		t.Fatalf("migration schedule diverged across runs:\n--- run1 ---\n%s\n--- run2 ---\n%s", run1, run2)
	}
	for _, want := range []string{"geo.migrations", "geo.drains", "pose.age"} {
		if !strings.Contains(run1, want) {
			t.Fatalf("fingerprint missing %q:\n%s", want, run1)
		}
	}
}

// TestGeoMigrationStorm churns handoffs as hard as the deployment allows —
// repeated rebalance cycles against alternating censuses over lossy links —
// and is in the -race smoke set: it exists to prove no migration path
// touches shared state off the simulation goroutine.
func TestGeoMigrationStorm(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, d := testDeployment(t, 99)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	run(t, sim, time.Second)
	extra := protocol.ParticipantID(100)
	for cycle := 0; cycle < 6; cycle++ {
		// Swing the census: even cycles pile learners into eu-west, odd
		// cycles into jp, so Rebalance keeps re-placing and draining.
		reg := region.ID("eu-west")
		if cycle%2 == 1 {
			reg = "jp"
		}
		for i := 0; i < 4; i++ {
			if _, err := d.Join(extra, reg); err != nil {
				t.Fatal(err)
			}
			extra++
		}
		if _, _, _, err := d.Rebalance(2); err != nil {
			t.Fatalf("cycle %d rebalance: %v", cycle, err)
		}
		run(t, sim, 500*time.Millisecond)
		for i := 0; i < 4; i++ {
			extra--
			if err := d.Leave(extra); err != nil {
				t.Fatal(err)
			}
		}
		run(t, sim, 200*time.Millisecond)
	}
	quiesce(t, d)
	converged(t, d)
	if leaked := protocol.LiveFrames() - live0; leaked != 0 {
		t.Fatalf("%d frames leaked", leaked)
	}
}
