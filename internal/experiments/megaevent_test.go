package experiments

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// e12Table runs E12 at the golden seed once per test binary; the
// determinism, tier-reduction, and golden checks all read the same run so
// the suite pays for the venue twice (here + the cross-run re-run), not four
// times.
var e12Table = sync.OnceValue(func() Table { return E12MegaEvent(42) })

// TestE12CrossRunDeterminism extends the golden determinism gate to the
// mega-event venue: same-seed runs must produce byte-identical tables, and
// the seed-42 table must match the committed golden (regenerate with
// `go run ./cmd/metaclass -seed 42 -exp E12 > internal/experiments/testdata/e12_seed42.golden`
// when the workload intentionally changes). The table embeds the measured
// egress of 256 avatars in both fan-out modes, so any nondeterminism in
// tier classification, phase-staggered decimation, or owed-change delivery
// shows up as a byte diff here.
func TestE12CrossRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("256-avatar venue workload; skipped in -short")
	}
	t1, tRerun := e12Table(), E12MegaEvent(42)
	run1, run2 := t1.String(), tRerun.String()
	if run1 != run2 {
		t.Fatalf("same-seed E12 runs diverged:\n%s", diffLines(run1, run2))
	}
	golden, err := os.ReadFile("testdata/e12_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimRight(string(golden), "\n")
	if got := strings.TrimRight(run1, "\n"); got != want {
		t.Fatalf("E12 table diverged from committed golden:\n%s", diffLines(want, got))
	}
	if len(t1.Rows) != 2 {
		t.Fatalf("E12 expected broadcast+tiers rows, got %d:\n%s", len(t1.Rows), run1)
	}
	for _, row := range t1.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("E12 leaked frames: %v", row)
		}
	}
}

// TestE12CrossWidthDeterminism re-runs the tiered venue with the worker
// pool pinned to 1 and to 4 and demands identical measurements: the owed
// merge-walk and per-source decimation phases must not depend on which
// worker builds which peer's message.
func TestE12CrossWidthDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("256-avatar venue workload; skipped in -short")
	}
	pinWidth(t, 1)
	serial := runMegaPoint(42, true)
	pinWidth(t, 4)
	wide := runMegaPoint(42, true)
	if serial.err != nil || wide.err != nil {
		t.Fatalf("venue runs failed: serial=%v wide=%v", serial.err, wide.err)
	}
	if serial != wide {
		t.Fatalf("width-4 venue diverged from width 1:\nserial: %+v\nwide:   %+v", serial, wide)
	}
	if serial.leaked != 0 {
		t.Fatalf("venue leaked %d frames", serial.leaked)
	}
}

// TestE12TierReduction is the headline claim gate: with most of the
// audience beyond the near radius, tier-rate decimation must cut cloud egress by
// at least 4x against broadcast (the far/ambient crowd replicates at 1/4
// and 1/8 rate). It reads the vs.broadcast column of the shared run, so a
// regression that quietly re-admits the crowd at full rate fails here even
// if determinism holds.
func TestE12TierReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("256-avatar venue workload; skipped in -short")
	}
	tbl := e12Table()
	if len(tbl.Rows) != 2 {
		t.Fatalf("E12 expected broadcast+tiers rows:\n%s", tbl.String())
	}
	vsCol := -1
	for i, c := range tbl.Columns {
		if c == "vs.broadcast" {
			vsCol = i
		}
	}
	if vsCol < 0 {
		t.Fatalf("E12 table missing vs.broadcast column:\n%s", tbl.String())
	}
	tiersRow := tbl.Rows[1]
	ratio, err := strconv.ParseFloat(strings.TrimSuffix(tiersRow[vsCol], "x"), 64)
	if err != nil {
		t.Fatalf("unparseable vs.broadcast cell %q: %v", tiersRow[vsCol], err)
	}
	if ratio < 4 {
		t.Fatalf("tiered fan-out saved only %.1fx over broadcast, want >= 4x:\n%s", ratio, tbl.String())
	}
}
