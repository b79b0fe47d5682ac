package experiments

import (
	"testing"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
)

// drainDeployment stops every tick loop and then runs the simulator forward
// so all in-flight deliveries (and the finite ack chains they trigger)
// fire. After this, any frame still live is a leak.
func drainDeployment(t *testing.T, d *classroom.Deployment) {
	t.Helper()
	d.Stop()
	if err := d.Sim().Run(d.Now() + 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDeploymentLeaksNoFrames is the leak-detector gate for the whole
// experiment stack: a many-peer deployment — two campuses replicating to
// each other and the cloud, direct remote learners, and a relay-served
// region, with lossy residential links and a bandwidth/queue-limited cloud
// path so the loss and tail-drop release paths are exercised alongside
// normal delivery — must end with zero outstanding frames once stopped and
// drained.
func TestDeploymentLeaksNoFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second deployment; skipped in -short")
	}
	live0 := protocol.LiveFrames()

	cloudLink := netsim.EdgeToCloud()
	cloudLink.LossRate = 0.02
	cloudLink.Bandwidth = 2e6 // tight enough to queue under fan-out bursts
	cloudLink.QueueLimit = 16 << 10
	d, err := classroom.NewDeployment(classroom.Config{
		Seed: 7, EnableInterest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		t.Fatal(err)
	}
	cwb, err := d.AddCampus("cwb", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ConnectCampuses(gz, cwb); err != nil {
		t.Fatal(err)
	}
	shapeCloudLinks(t, d, cloudLink, "edge-gz", "edge-cwb")
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		anchor := mathx.V3(float64(i)-3, 0, 2)
		if _, err := gz.AddLearner("s", trace.Seated{Anchor: anchor}); err != nil {
			t.Fatal(err)
		}
		if _, err := cwb.AddLearner("s", trace.Seated{Anchor: anchor, Phase: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	lossy := netsim.ResidentialBroadband(25 * time.Millisecond)
	lossy.LossRate = 0.05
	for i := 0; i < 10; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{
			Anchor: mathx.V3(float64(i%5)*1.2, 0, float64(i/5)*1.2), Phase: float64(i),
		}, lossy); err != nil {
			t.Fatal(err)
		}
	}
	relay, err := d.AddRelay("far", netsim.LinkConfig{
		Latency: 150 * time.Millisecond, Jitter: 2 * time.Millisecond,
		LossRate: 0.01, Bandwidth: 10e6, QueueLimit: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := d.AddRemoteLearnerVia(relay, "v", trace.Seated{Phase: float64(i)},
			netsim.ResidentialBroadband(8*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}

	if err := d.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Network().Stats()
	if st.Dropped == 0 {
		t.Fatal("deployment dropped nothing; loss/queue release paths not exercised")
	}
	if st.Delivered == 0 {
		t.Fatal("deployment delivered nothing")
	}
	drainDeployment(t, d)
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by the deployment (delivered=%d dropped=%d)",
			live-live0, st.Delivered, st.Dropped)
	}
}

// TestNetworkCloseMidRunLeaksNoFrames kills the fabric mid-session (the
// network-close release path at deployment scale): every frame in flight at
// close, and every frame sent into the closed network afterwards, must be
// released.
func TestNetworkCloseMidRunLeaksNoFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second deployment; skipped in -short")
	}
	live0 := protocol.LiveFrames()
	d, err := classroom.NewDeployment(classroom.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{Phase: float64(i)},
			netsim.ResidentialBroadband(40*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	d.Network().Close()
	// Tickers keep firing into the closed network for a while: sends must
	// release immediately, in-flight deliveries as their events fire.
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	drainDeployment(t, d)
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across mid-run network close", live-live0)
	}
}

// shapeCloudLinks gives each named edge's links to and from the cloud the
// profile cfg, before the deployment runs.
func shapeCloudLinks(t *testing.T, d *classroom.Deployment, cfg netsim.LinkConfig, edges ...netsim.Addr) {
	t.Helper()
	for _, e := range edges {
		if err := d.Network().SetLink(e, "cloud", cfg); err != nil {
			t.Fatal(err)
		}
		if err := d.Network().SetLink("cloud", e, cfg); err != nil {
			t.Fatal(err)
		}
	}
}
