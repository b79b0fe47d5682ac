package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"metaclass/bench"
)

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns (the
// exclusive method), which is how the benchmark's acceptance check measures
// spread.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// checkRow is one workload × metric line of the selfcheck report.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	SpreadA  float64 `json:"spread_a"` // (q3-q1)/median
	SpreadB  float64 `json:"spread_b"`
	Shift    float64 `json:"shift"` // how much worse B's median is than A's, as a share of A's
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// runSelfcheck runs two interleaved sets (A B A B …) of n end-to-end runs per
// workload, every run in a process of its own with a seed of its own, and
// judges each workload × metric by the rule the bounds were set with: a
// spread above a third of the bound, or medians further apart than half of
// it, marks a metric too noisy to gate.
func runSelfcheck(n int, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := map[key]*[2][]float64{}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range bench.Workloads() {
				seed := 1000*(set+1) + i
				cmd := exec.Command(self, "-workload", w, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w\n%s", w, seed, err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", w, seed, res.Correct, res.Failed)
				}
				for name, v := range res.Metrics {
					k := key{w, name}
					if values[k] == nil {
						values[k] = &[2][]float64{}
					}
					values[k][set] = append(values[k][set], v.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s done\n", i+1, n, 'A'+set, w)
			}
		}
	}
	var rows []checkRow
	fmt.Printf("%-18s %-24s %14s %14s %9s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "shift", "bound", "verdict")
	for _, w := range bench.Workloads() {
		for _, d := range bench.EndToEnd {
			v := values[key{w, d.Name}]
			if v == nil {
				continue
			}
			qa, qb := quartiles(v[0]), quartiles(v[1])
			r := checkRow{Workload: w, Metric: d.Name, Unit: d.Unit, MedianA: qa[1], MedianB: qb[1], Bound: d.Bound, Verdict: "ok"}
			if qa[1] != 0 {
				r.SpreadA = (qa[2] - qa[0]) / qa[1]
				r.Shift = (qb[1] - qa[1]) / qa[1]
			}
			if qb[1] != 0 {
				r.SpreadB = (qb[2] - qb[0]) / qb[1]
			}
			if d.Better == "higher" {
				r.Shift = -r.Shift
			}
			switch {
			case d.Name != "setup_s" && math.Max(r.SpreadA, r.SpreadB) > d.Bound:
				r.Verdict = "spread above bound"
			case r.Shift > d.Bound/2:
				r.Verdict = "medians differ by more than half the bound"
			case d.Name != "setup_s" && math.Max(r.SpreadA, r.SpreadB) > d.Bound/3:
				r.Verdict = "spread above a third of the bound"
			}
			rows = append(rows, r)
			fmt.Printf("%-18s %-24s %14.6f %14.6f %8.3f%% %8.3f%% %+8.3f%% %6.1f%%  %s\n",
				r.Workload, r.Metric, r.MedianA, r.MedianB, 100*r.SpreadA, 100*r.SpreadB, 100*r.Shift, 100*r.Bound, r.Verdict)
		}
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "selfcheck.json"), append(b, '\n'), 0o644)
}
