package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
)

// TestE11CrossRunDeterminism extends the golden determinism gate to the
// churn workload: same-seed runs must produce byte-identical tables, and the
// seed-42 table must match the committed golden (regenerate with
// `go run ./cmd/metaclass -seed 42 -exp E11 > internal/experiments/testdata/e11_seed42.golden`
// when the workload intentionally changes).
func TestE11CrossRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn workload; skipped in -short")
	}
	t1, t2 := E11Churn(42), E11Churn(42)
	run1, run2 := t1.String(), t2.String()
	if run1 != run2 {
		t.Fatalf("same-seed E11 runs diverged:\n%s", diffLines(run1, run2))
	}
	golden, err := os.ReadFile("testdata/e11_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimRight(string(golden), "\n")
	if got := strings.TrimRight(run1, "\n"); got != want {
		t.Fatalf("E11 table diverged from committed golden:\n%s", diffLines(want, got))
	}
	if !strings.Contains(run1, "frames.leaked") {
		t.Fatalf("E11 table missing lifecycle column:\n%s", run1)
	}
	for _, row := range t1.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("E11 leaked frames: %v", row)
		}
	}
}

// churnFingerprint drives a lossy deployment — campus + educator, a relay
// region, direct and relay-served base learners — through repeated
// join/leave storms on both paths, then renders the cloud and relay
// registries, every surviving client registry, and the network totals into
// one canonical string. The storms hit every teardown path the runtime
// owns: replicator peer removal, interest-grid eviction, pooled client
// reuse, and in-flight frame release on lossy and bandwidth-limited links.
func churnFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	cloudLink := netsim.EdgeToCloud()
	cloudLink.LossRate = 0.02
	cloudLink.Bandwidth = 4e6
	cloudLink.QueueLimit = 32 << 10
	d, err := classroom.NewDeployment(classroom.Config{
		Seed: seed, EnableInterest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		t.Fatal(err)
	}
	shapeCloudLinks(t, d, cloudLink, "edge-gz")
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	relay, err := d.AddRelay("far", netsim.LinkConfig{
		Latency: 120 * time.Millisecond, Jitter: 2 * time.Millisecond,
		LossRate: 0.01, Bandwidth: 10e6, QueueLimit: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	lossy := netsim.ResidentialBroadband(20 * time.Millisecond)
	lossy.LossRate = 0.05
	for i := 0; i < 4; i++ {
		if _, _, err := d.AddRemoteLearner("base", trace.Seated{Phase: float64(i)}, lossy); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}

	// Join/leave storms: every 400 ms, two direct joins and one relay-served
	// join; each batch leaves two events later, while frames are in flight
	// on its lossy links.
	type batch struct{ ids []classroom.ParticipantID }
	var batches []batch
	fired := 0
	var failed error
	cancel := d.Sim().Ticker(400*time.Millisecond, func() {
		if fired >= 8 || failed != nil {
			return
		}
		fired++
		var b batch
		for i := 0; i < 2; i++ {
			_, id, err := d.AddRemoteLearner("churn", trace.Seated{
				Anchor: mathx.V3(float64(i)*2+4, 0, 6), Phase: float64(fired + i)}, lossy)
			if err != nil {
				failed = err
				return
			}
			b.ids = append(b.ids, id)
		}
		_, id, err := d.AddRemoteLearnerVia(relay, "churn-r", trace.Seated{
			Anchor: mathx.V3(2, 0, 9), Phase: float64(fired)},
			netsim.ResidentialBroadband(8*time.Millisecond))
		if err != nil {
			failed = err
			return
		}
		b.ids = append(b.ids, id)
		batches = append(batches, b)
		if len(batches) >= 3 {
			for _, id := range batches[len(batches)-3].ids {
				if err := d.RemoveRemoteLearner(id); err != nil {
					failed = err
					return
				}
			}
		}
	})
	if err := d.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	cancel()
	if failed != nil {
		t.Fatal(failed)
	}

	var b strings.Builder
	b.WriteString(d.Cloud().Metrics().String())
	b.WriteString(relay.Metrics().String())
	ids := make([]classroom.ParticipantID, 0, len(d.Clients()))
	for id := range d.Clients() {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		b.WriteString(d.Clients()[id].Metrics().String())
	}
	st := d.Network().Stats()
	fmt.Fprintf(&b, "network: delivered=%d dropped=%d bytes=%d latency=%s\n",
		st.Delivered, st.Dropped, st.SentBytes, st.Latency.String())
	fmt.Fprintf(&b, "world=%d clients=%d\n", d.Cloud().World().Len(), d.Cloud().ClientCount())

	drainDeployment(t, d)
	return b.String()
}

// TestChurnLeaksNoFrames is the lifecycle gate for join/leave churn over the
// simulated fabric: repeated storms across direct and relay-served paths on
// lossy, bandwidth-limited links must end with zero live frames, and two
// same-seed runs must agree byte for byte on every registry the deployment
// produced. (The TCP side of the same guarantee is
// endpoint.TestChurnNetsimTCPParity, which drives join/leave rounds
// lock-step over both backends.)
func TestChurnLeaksNoFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn deployment; skipped in -short")
	}
	live0 := protocol.LiveFrames()
	run1 := churnFingerprint(t, 17)
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by churn run 1", live-live0)
	}
	run2 := churnFingerprint(t, 17)
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by churn run 2", live-live0)
	}
	if run1 != run2 {
		t.Fatalf("same-seed churn runs diverged:\n%s", diffLines(run1, run2))
	}
	for _, want := range []string{"forwarded.up", "sync.bytes.sent", "network:"} {
		if !strings.Contains(run1, want) {
			t.Fatalf("churn fingerprint missing %q:\n%s", want, run1)
		}
	}
}

// TestParallelChurnStorm drives the same lossy join/leave storm with every
// node's worker pool at width 8 and asserts the run leaks no frames and is
// byte-identical to the width-1 run — the whole-system stress for the
// tick pipeline under membership churn (peer tables and interest grids
// mutating between every pool run). CI runs this under -race as the
// dedicated parallel-tick smoke.
func TestParallelChurnStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second churn deployment; skipped in -short")
	}
	live0 := protocol.LiveFrames()
	pinWidth(t, 1)
	serial := churnFingerprint(t, 17)
	pinWidth(t, 8)
	wide := churnFingerprint(t, 17)
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked by the parallel churn storm", live-live0)
	}
	if serial != wide {
		t.Fatalf("width-8 churn diverged from width 1:\n%s", diffLines(serial, wide))
	}
}
