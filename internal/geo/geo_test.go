package geo

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/rig"
	"metaclass/internal/vclock"
)

// testDeployment is the shared harness: the paper's global campus topology,
// the cloud in Hong Kong, and three learners in each of Korea, the US east
// coast, and the poorly-peered South-American region.
func testDeployment(t *testing.T, seed int64) (*vclock.Sim, *Deployment) {
	t.Helper()
	sim := vclock.New(seed)
	fab := &rig.NetsimFabric{Net: netsim.New(sim)}
	d, err := New(sim, fab, Config{
		Topology:    region.GlobalCampus(),
		CloudRegion: "hk",
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id := protocol.ParticipantID(1)
	for _, reg := range []region.ID{"kr", "us-east", "sa-poor"} {
		for i := 0; i < 3; i++ {
			if _, err := d.Join(id, reg); err != nil {
				t.Fatalf("Join(%d, %s): %v", id, reg, err)
			}
			id++
		}
	}
	return sim, d
}

// converged asserts that every session's replica agrees byte-for-byte with
// the cloud's world (Deployment.Converged): the zero-lost, zero-duplicated
// gate.
func converged(t *testing.T, d *Deployment) {
	t.Helper()
	if err := d.Converged(); err != nil {
		t.Error(err)
	}
}

// quiesce stops publishers, lets the servers flush owed debt and removals,
// then stops everything and drains in-flight traffic.
func quiesce(t *testing.T, d *Deployment) {
	t.Helper()
	sim := d.Sim()
	for _, id := range d.SessionIDs() {
		s, _ := d.Session(id)
		s.VR.Stop()
	}
	if err := sim.Run(sim.Now() + 3*time.Second); err != nil {
		t.Fatalf("quiesce run: %v", err)
	}
	d.Stop()
	if err := sim.Run(sim.Now() + 30*time.Second); err != nil {
		t.Fatalf("drain run: %v", err)
	}
}

func run(t *testing.T, sim *vclock.Sim, dt time.Duration) {
	t.Helper()
	if err := sim.Run(sim.Now() + dt); err != nil {
		t.Fatalf("sim run: %v", err)
	}
}

// fingerprint concatenates every node registry plus the deployment's own
// control-plane registry — the cross-run determinism surface.
func fingerprint(d *Deployment) string {
	var b strings.Builder
	b.WriteString(d.Cloud().Metrics().String())
	for _, rr := range d.RelayRegions() {
		rel, _ := d.Relay(rr)
		b.WriteString(rel.Metrics().String())
	}
	for _, id := range d.SessionIDs() {
		s, _ := d.Session(id)
		b.WriteString(s.VR.Metrics().String())
	}
	b.WriteString(d.Metrics().String())
	return b.String()
}

// TestGeoDeployRoamDrain is the end-to-end smoke: placement puts relays at
// us-east and sa-poor, roam migrates the six far learners onto them, a
// drain folds us-east back onto the cloud — and after all three handoffs
// every replica still converges to the cloud world with zero leaked frames.
func TestGeoDeployRoamDrain(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim, d := testDeployment(t, 42)
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	run(t, sim, 2*time.Second)

	placed, err := d.Deploy(2)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if fmt.Sprint(placed) != "[us-east sa-poor]" {
		t.Fatalf("placement = %v, want [us-east sa-poor]", placed)
	}
	moved, err := d.Roam()
	if err != nil {
		t.Fatalf("Roam: %v", err)
	}
	if moved != 6 {
		t.Fatalf("Roam moved %d sessions, want 6 (us-east and sa-poor cohorts)", moved)
	}
	for _, id := range d.SessionIDs() {
		s, _ := d.Session(id)
		want := region.ID("")
		switch s.Region {
		case "us-east", "sa-poor":
			want = s.Region
		}
		if s.ServedBy() != want {
			t.Errorf("session %d in %s served by %q, want %q", id, s.Region, s.ServedBy(), want)
		}
	}
	run(t, sim, 2*time.Second)

	if err := d.Drain("us-east"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, ok := d.Relay("us-east"); ok {
		t.Fatal("us-east relay still deployed after drain")
	}
	for _, id := range d.SessionIDs() {
		s, _ := d.Session(id)
		if s.Region == "us-east" && s.ServedBy() != "" {
			t.Errorf("drained session %d still served by %q", id, s.ServedBy())
		}
	}
	run(t, sim, 2*time.Second)

	quiesce(t, d)
	converged(t, d)
	if leaked := protocol.LiveFrames() - live0; leaked != 0 {
		t.Fatalf("%d frames leaked", leaked)
	}
}

// Converged compares whole entities, every field of the wire encoding: a
// replica that differs from the world only in Home is not converged.
func TestConvergedComparesEveryField(t *testing.T) {
	sim, d := testDeployment(t, 42)
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	run(t, sim, 2*time.Second)
	quiesce(t, d)
	if err := d.Converged(); err != nil {
		t.Fatalf("before the edit: %v", err)
	}
	s, _ := d.Session(1)
	store := s.VR.ReplicaStore()
	e, ok := store.Get(2)
	if !ok {
		t.Fatal("session 1's replica does not hold entity 2")
	}
	e.Home++
	store.Upsert(e)
	if err := d.Converged(); err == nil || !strings.Contains(err.Error(), "entity 2 diverged") {
		t.Fatalf("Converged after a wrong Home = %v, want entity 2 diverged", err)
	}
}
