// Command classbench runs one classbench workload and prints every metric by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. It exits 1 when an
// audit failed and 2 when the run could not be made.
//
// With -selfcheck N it runs itself instead: two interleaved sets of N
// end-to-end runs per workload, each run with another seed, and reports per
// workload and metric both medians, both inter-quartile spreads and the bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"metaclass/bench"
)

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

func main() {
	var o bench.Options
	trace := flag.Int("trace", 0, "1 = layer run: boundary spans, layer counters and kernels; 0 = end-to-end run")
	flag.StringVar(&o.Workload, "workload", "", "one of "+strings.Join(bench.Workloads(), ", "))
	flag.Int64Var(&o.Seed, "seed", 42, "workload generator seed")
	flag.Float64Var(&o.Seconds, "seconds", 12, "fixed-work scale: the window has steps-per-second × seconds steps")
	flag.StringVar(&o.OutDir, "out", "bench/out", "directory for trace-<workload>.json and selfcheck.json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of N end-to-end runs per workload and compare them")
	flag.Parse()
	o.Trace = *trace != 0
	if *selfcheck > 0 {
		if err := runSelfcheck(*selfcheck, o.Seconds, o.OutDir); err != nil {
			fail(2, err)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(2, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(2, err)
		}
		defer pprof.StopCPUProfile()
	}

	res, err := bench.Run(o)
	if err != nil {
		pprof.StopCPUProfile()
		fail(2, err)
	}
	fmt.Printf("%s  seed=%d  steps=%d  ops=%d  failed_ops=%d\n", res.Workload, o.Seed, res.Steps, res.Ops, res.FailedOps)
	out := jsonResult{res.Correct(), res.Ops, res.FailedOps, map[string]jsonValue{}}
	for _, m := range res.Metrics {
		fmt.Printf("  %-40s %16.6f %s\n", m.Name, m.Value, m.Unit)
		out.Metrics[m.Name] = jsonValue{m.Value, m.Unit}
	}
	for _, p := range res.Problems {
		fmt.Println("  PROBLEM:", p)
	}
	if o.Trace { // itemise what audit.stale_sessions counts
		for i, st := range res.Stale {
			if i == 5 {
				fmt.Printf("  stale: … and %d more\n", len(res.Stale)-i)
				break
			}
			fmt.Println("  stale:", st)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail(2, err)
	}
	fmt.Println(string(b))
	if !res.Correct() {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "classbench:", err)
	os.Exit(code)
}
