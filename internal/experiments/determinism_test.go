package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/trace"
)

// metricsFingerprint runs a short E4-style deployment (the C2 scale
// experiment: one cloud, n remote VR learners) and renders every counter and
// histogram the deployment produced — cloud sync bytes/msgs, seat counters,
// per-client pose-age histograms — into one canonical multi-line string.
func metricsFingerprint(t *testing.T, seed int64, n int, interest bool) string {
	t.Helper()
	d, err := classroom.NewDeployment(classroom.Config{
		Seed: seed, EnableInterest: interest,
	})
	if err != nil {
		t.Fatalf("build deployment: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{
			Anchor: mathx.V3(float64(i%25)*1.2, 0, float64(i/25)*1.2), Phase: float64(i),
		}, netsim.ResidentialBroadband(25*time.Millisecond)); err != nil {
			t.Fatalf("add learner %d: %v", i, err)
		}
	}
	if err := d.Run(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}

	var b strings.Builder
	b.WriteString(d.Cloud().Metrics().String())
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
	return b.String()
}

// diffLines renders the first mismatching lines of two fingerprints.
func diffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out strings.Builder
	for i := 0; i < len(al) || i < len(bl); i++ {
		var l1, l2 string
		if i < len(al) {
			l1 = al[i]
		}
		if i < len(bl) {
			l2 = bl[i]
		}
		if l1 != l2 {
			fmt.Fprintf(&out, "line %d:\n  run1: %s\n  run2: %s\n", i+1, l1, l2)
			if out.Len() > 2000 {
				out.WriteString("  ...\n")
				break
			}
		}
	}
	return out.String()
}

// TestE4CrossRunDeterminism is the repo's golden determinism gate: two runs
// of the same seeded deployment must produce byte-identical metrics — every
// counter, every histogram quantile, every network stat — with interest
// management on and off. Any hidden source of nondeterminism (map iteration
// reaching the RNG, pooling changing event order, host-time leakage) shows
// up here as a readable diff. TestE5CrossRunDeterminism and
// TestE9CrossRunDeterminism extend the same gate to the relay topology and
// the dead-reckoning table, so a refactor of the shared frame/send path is
// checked against more than one experiment's registry.
func TestE4CrossRunDeterminism(t *testing.T) {
	for _, interest := range []bool{true, false} {
		mode := "broadcast"
		if interest {
			mode = "interest"
		}
		t.Run(mode, func(t *testing.T) {
			run1 := metricsFingerprint(t, 42, 12, interest)
			run2 := metricsFingerprint(t, 42, 12, interest)
			if run1 != run2 {
				t.Fatalf("same-seed runs diverged (%s mode):\n%s", mode, diffLines(run1, run2))
			}
			if !strings.Contains(run1, "sync.bytes.sent") || !strings.Contains(run1, "pose.age") {
				t.Fatalf("fingerprint is missing expected metrics:\n%s", run1)
			}
		})
	}
}

// relayFingerprint runs a short E5-style deployment — one campus feeding
// the cloud, a far regional relay with its own clients, plus direct clients
// — and renders every registry it produced (cloud, relay, each client) and
// the network totals into one canonical string. The relay path exercises
// the forwarded-upstream copy and the two-stage fan-out that E4's topology
// does not.
func relayFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	d, err := classroom.NewDeployment(classroom.Config{Seed: seed})
	if err != nil {
		t.Fatalf("build deployment: %v", err)
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		t.Fatalf("add campus: %v", err)
	}
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		t.Fatalf("add educator: %v", err)
	}
	relay, err := d.AddRelay("far", netsim.LinkConfig{
		Latency: 170 * time.Millisecond, Jitter: 2 * time.Millisecond,
		LossRate: 0.005, Bandwidth: 10e9,
	})
	if err != nil {
		t.Fatalf("add relay: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := d.AddRemoteLearnerVia(relay, "v", trace.Seated{Phase: float64(i)},
			netsim.ResidentialBroadband(8*time.Millisecond)); err != nil {
			t.Fatalf("add relay learner %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{Phase: float64(i) + 0.5},
			netsim.ResidentialBroadband(25*time.Millisecond)); err != nil {
			t.Fatalf("add direct learner %d: %v", i, err)
		}
	}
	if err := d.Run(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
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
	return b.String()
}

// TestE5CrossRunDeterminism extends the golden gate to the regional-relay
// topology: same-seed runs must agree byte for byte on every cloud, relay,
// and client counter, including the relay's forwarded.up path.
func TestE5CrossRunDeterminism(t *testing.T) {
	run1 := relayFingerprint(t, 42)
	run2 := relayFingerprint(t, 42)
	if run1 != run2 {
		t.Fatalf("same-seed relay runs diverged:\n%s", diffLines(run1, run2))
	}
	for _, want := range []string{"forwarded.up", "sync.bytes.sent", "pose.age"} {
		if !strings.Contains(run1, want) {
			t.Fatalf("relay fingerprint is missing %q:\n%s", want, run1)
		}
	}
}

// TestE9CrossRunDeterminism gates the dead-reckoning experiment: its table
// (rates, wire sizes, per-extrapolator errors) must render byte-identically
// run to run — the E9 numbers come through the codec's frame size and the
// interpolation buffers, both of which the frame-lifecycle work touches.
func TestE9CrossRunDeterminism(t *testing.T) {
	t1 := E9DeadReckoning(42)
	t2 := E9DeadReckoning(42)
	run1, run2 := t1.String(), t2.String()
	if run1 != run2 {
		t.Fatalf("same-seed E9 tables diverged:\n%s", diffLines(run1, run2))
	}
	if !strings.Contains(run1, "linear") || !strings.Contains(run1, "bytes/s") {
		t.Fatalf("E9 table missing expected content:\n%s", run1)
	}
}

// pinWidth sets GOMAXPROCS — which every node built from here on reads as
// its tick pool's width — to n until the test ends.
func pinWidth(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelTickCrossWidthDeterminism is the tick pipeline's end-to-end
// gate: a whole deployment run at pool width 4 must produce byte-identical
// metrics — every counter, histogram quantile, and network stat — to the
// same seed at width 1, on both the E4 scale topology (interest on and off)
// and the relay topology. It holds regardless of how many CPUs the host
// exposes: GOMAXPROCS above the core count still spawns the pool's workers,
// so the deterministic-merge contract is exercised even on a single-core
// runner.
func TestParallelTickCrossWidthDeterminism(t *testing.T) {
	for _, interest := range []bool{true, false} {
		mode := "broadcast"
		if interest {
			mode = "interest"
		}
		t.Run("e4/"+mode, func(t *testing.T) {
			pinWidth(t, 1)
			serial := metricsFingerprint(t, 42, 12, interest)
			pinWidth(t, 4)
			wide := metricsFingerprint(t, 42, 12, interest)
			if serial != wide {
				t.Fatalf("width 4 diverged from width 1 (%s mode):\n%s",
					mode, diffLines(serial, wide))
			}
		})
	}
	t.Run("e5/relay", func(t *testing.T) {
		pinWidth(t, 1)
		serial := relayFingerprint(t, 42)
		pinWidth(t, 4)
		wide := relayFingerprint(t, 42)
		if serial != wide {
			t.Fatalf("relay run at width 4 diverged from width 1:\n%s",
				diffLines(serial, wide))
		}
	})
}
