package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"metaclass/internal/netsim"
	"metaclass/internal/video"
)

// TestAllTablesRender asserts every experiment produces a non-degenerate
// table (columns, rows, consistent widths). E1/E2/E4 run real deployments,
// so this is also a smoke test of the whole stack.
func TestAllTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is seconds-long; skipped in -short")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tb := r.Run(7)
			if tb.ID != r.ID {
				t.Errorf("table ID %q != runner ID %q", tb.ID, r.ID)
			}
			if len(tb.Columns) < 2 {
				t.Fatalf("table has %d columns", len(tb.Columns))
			}
			if len(tb.Rows) == 0 {
				t.Fatal("table has no rows")
			}
			for i, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tb.Columns))
				}
			}
			out := tb.String()
			if !strings.Contains(out, r.ID) || !strings.Contains(out, tb.Columns[0]) {
				t.Error("rendered table missing header")
			}
		})
	}
}

// TestE1ShapeFullVisibility locks the Fig. 2 headline: every venue row must
// be marked ok.
func TestE1ShapeFullVisibility(t *testing.T) {
	tb := E1UnitCase(11)
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("venue %s not fully visible: %v", row[0], row)
		}
	}
}

// TestE3ShapeMonotoneDegradation locks the C1 shape: error never improves
// as latency grows, and the noticeable flag eventually flips.
func TestE3ShapeMonotoneDegradation(t *testing.T) {
	tb := E3LatencySweep(11)
	var prev float64
	flipped := false
	for i, row := range tb.Rows {
		rms, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("row %d rms %q: %v", i, row[2], err)
		}
		if i > 0 && rms < prev*0.97 { // allow 3% jitter between adjacent points
			t.Errorf("error improved with latency at row %d: %v -> %v", i, prev, rms)
		}
		prev = rms
		if row[4] == "yes" {
			flipped = true
		}
	}
	if !flipped {
		t.Error("noticeability never flipped across the sweep")
	}
}

// TestE7ShapeWhoWins locks the C4 crossover: on the long-RTT rows FEC and
// adaptive must beat ARQ by a wide margin.
func TestE7ShapeWhoWins(t *testing.T) {
	tb := E7Video(11)
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	byKey := map[string]float64{}
	for _, row := range tb.Rows {
		byKey[row[0]+"/"+row[1]+"/"+row[2]] = parse(row[3])
	}
	longARQ := byKey["5%/120ms/arq"]
	longFEC := byKey["5%/120ms/fec"]
	longAdaptive := byKey["5%/120ms/adaptive"]
	if longFEC < longARQ+15 {
		t.Errorf("FEC (%v%%) should beat ARQ (%v%%) by >=15 points on long RTT", longFEC, longARQ)
	}
	if longAdaptive < longFEC-2 {
		t.Errorf("adaptive (%v%%) should match FEC (%v%%) on long RTT", longAdaptive, longFEC)
	}
	shortARQ := byKey["1%/20ms/arq"]
	if shortARQ < 95 {
		t.Errorf("ARQ should be fine on short RTT: %v%%", shortARQ)
	}
}

// TestE9ShapeLinearBeatsHold locks the C8 ordering at every rate.
func TestE9ShapeLinearBeatsHold(t *testing.T) {
	tb := E9DeadReckoning(11)
	rms := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		rms[row[0]+"/"+row[2]] = v
	}
	for _, rate := range []string{"5Hz", "10Hz", "20Hz", "60Hz"} {
		if rms[rate+"/linear"] >= rms[rate+"/hold"] {
			t.Errorf("at %s linear (%v) not better than hold (%v)",
				rate, rms[rate+"/linear"], rms[rate+"/hold"])
		}
	}
}

// TestE6ShapeSplitAlwaysHolds locks the C3 claim: every split row holds the
// 72 Hz budget; at least one device-only row fails it.
func TestE6ShapeSplitAlwaysHolds(t *testing.T) {
	tb := E6Render(11)
	deviceOnlyFailed := false
	for _, row := range tb.Rows {
		plan, ok := row[2], row[4]
		if strings.HasPrefix(plan, "split") && ok != "yes" {
			t.Errorf("split plan missed budget: %v", row)
		}
		if plan == "device-only" && ok == "NO" {
			deviceOnlyFailed = true
		}
	}
	if !deviceOnlyFailed {
		t.Error("no device-only failure; scene too light to demonstrate C3")
	}
}

// TestRunVideoPointDeterministic guards the experiment harness itself.
func TestRunVideoPointDeterministic(t *testing.T) {
	link := netsim.LinkConfig{Latency: 40 * time.Millisecond, LossRate: 0.05}
	a1, b1, err1 := runVideoPoint(5, video.StrategyFEC, link)
	a2, b2, err2 := runVideoPoint(5, video.StrategyFEC, link)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a1 != a2 || b1 != b2 {
		t.Error("video experiment point not deterministic")
	}
}

// TestFailedPointReturnsError: a point whose setup fails reports the error,
// not zeros that would read as a perfect result.
func TestFailedPointReturnsError(t *testing.T) {
	if _, _, err := runLatencyPoint(5, -time.Millisecond); err == nil {
		t.Error("runLatencyPoint on a negative-latency link: no error")
	}
	if _, _, err := runVideoPoint(5, video.StrategyFEC, netsim.LinkConfig{Latency: -time.Millisecond}); err == nil {
		t.Error("runVideoPoint on a negative-latency link: no error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{ID: "T", Title: "demo", Columns: []string{"a", "long-column"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	out := tb.String()
	for _, want := range []string{"== T: demo ==", "long-column", "a note", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
