// Package bench is classbench: four fixed-work workloads over the classroom
// stack, nine gated end-to-end metrics, and a boundary-traced layer budget. It
// measures every layer from outside, through the public functions of
// internal/*, and changes nothing in them.
//
// Work is fixed in steps, never in seconds: one step advances every node of a
// workload by one server tick interval. A run's step count is the workload's
// committed steps-per-second constant times the -seconds argument, so two
// commits measured with the same arguments do identical work.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/interest"
	"metaclass/internal/netsim"
	"metaclass/internal/node"
	"metaclass/internal/protocol"
)

// Options selects one run.
type Options struct {
	Workload string
	// Seed feeds the workload generators (motion phases, join instants,
	// capture jitter, the simulated links' loss and jitter draws). The system
	// under test receives the generated inputs, never the seed.
	Seed int64
	// Seconds scales the fixed work: the window has
	// round(stepsPerSecond × Seconds) steps.
	Seconds float64
	// Trace selects the layer run: a quarter of the steps, boundary spans
	// recorded on alternate blocks, kernels timed on captured traffic.
	Trace bool
	// OutDir receives trace-<workload>.json from a layer run ("" = none).
	OutDir string

	// steps, when set, overrides the window length (tests compare a traced
	// and an untraced run over the same work).
	steps int
}

// Value is one reported metric.
type Value struct {
	Name  string
	Unit  string
	Value float64
}

// Result is one run's outcome.
type Result struct {
	Workload  string
	Steps     int
	Ops       int
	FailedOps int
	// Problems lists what failed the whole run (leaked frames, decode
	// errors, a TCP registry that differs from its netsim twin) and every
	// failed operation.
	Problems []string
	// Stale itemises the sessions the strict comparison found different at
	// quiesce (counted as audit.stale_sessions, not failed).
	Stale   []string
	Metrics []Value
}

// Correct reports whether every audit passed.
func (r *Result) Correct() bool { return len(r.Problems) == 0 }

// workload is one deployment under measurement.
type workload interface {
	// prepare computes step i's inputs outside the timed region.
	prepare(i int)
	// step advances every node by one server tick interval. Only this call
	// is timed.
	step(i int) error
	// finish quiesces the deployment and marks every session whose replica
	// disagrees with its serving node.
	finish() error
	// close tears the deployment down; afterwards no frame may stay held.
	close() error
	// problems reports whole-run failures found by workload-specific audits.
	problems() []string
	// probes names what the audits and the layer run read through public
	// accessors; counts sums the receivers' apply counters (departed ones
	// included) and the sessions that have joined and left so far.
	probes() probes
	counts() (stats core.ReplicaStats, joins, leaves uint64)
}

// probes is a workload's fixed set of observation points.
type probes struct {
	runtimes []*node.Runtime  // every serving node
	world    *node.Runtime    // the cloud: the kernels probe its live store and grid
	policy   *interest.Policy // the cloud's fan-out policy (nil = broadcast)
	net      *netsim.Network  // the simulated fabric (nil without one)
}

// counter sums one named counter over every serving node's registry.
func (p probes) counter(name string) (n uint64) {
	for _, rt := range p.runtimes {
		n += rt.Metrics().Counter(name).Value()
	}
	return n
}

// spec is a workload's committed shape.
type spec struct {
	name string
	// stepsPerSecond converts -seconds into steps. It was chosen once, on
	// the reference host, so that one second of -seconds is about one second
	// of measured wall time; it is a constant of the benchmark, not a
	// measurement.
	stepsPerSecond float64
	// warmup is the number of steps run before the window, long enough for
	// pools, first-contact snapshots and lazy set-up to finish.
	warmup int
	// refEvery is how many steps pass between two samples of the host
	// reference (hostref.go): about 20 ms of steps for 3 ms of reference.
	// refSockets adds the reference's socket loop.
	refEvery   int
	refSockets bool
	// procs, when set, is the run's GOMAXPROCS; zero leaves the default.
	procs int
	build func(col *collector, rng *rand.Rand) (workload, error)
}

const (
	// setupRepeats is how many times a run sets the workload up; setup_s is
	// the median, and the last instance is the one measured.
	setupRepeats = 3
	// traceBlock is the length of the alternating untraced/traced blocks of
	// a layer run, which let trace.overhead_ratio compare like with like.
	traceBlock = 25
	// minSteps keeps a scaled-down smoke run meaningful.
	minSteps = 8
)

var specs = []spec{lecture100, venue256, churn48, campusRelay}

// Workloads lists the workload names in run order.
func Workloads() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, Workloads())
}

func (sp spec) steps(seconds float64, trace bool) int {
	n := sp.stepsPerSecond * seconds
	if trace {
		n /= 4
	}
	return max(minSteps, int(math.Round(n)))
}

// Run executes one workload once.
func Run(o Options) (Result, error) {
	res, _, err := run(o)
	return res, err
}

// run is Run returning every value measured, whichever mode reports it.
func run(o Options) (Result, map[string]float64, error) {
	sp, err := findSpec(o.Workload)
	if err != nil {
		return Result{}, nil, err
	}
	steps := sp.steps(o.Seconds, o.Trace)
	if o.steps > 0 {
		steps = o.steps
	}
	// Runs scaled below one unit (smoke tests) scale warm-up and kernel
	// repetitions with them: they check the plumbing, not the numbers.
	scale := min(1, o.Seconds)
	warmup := max(minSteps, int(float64(sp.warmup)*scale))
	res := Result{Workload: sp.name, Steps: steps}
	live0 := protocol.LiveFrames()
	if sp.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sp.procs))
	}
	ref, err := newHostRef(sp.refSockets)
	if err != nil {
		return res, nil, err
	}
	defer ref.close()

	// Set-up, several times over: build, joins, warm-up steps.
	var (
		w      workload
		col    *collector
		setups []float64
	)
	defer func() {
		if w != nil { // an error cut the run short: stop what was started
			_ = w.close()
		}
	}()
	for rep := 0; rep < setupRepeats; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return res, nil, err
			}
			w = nil
		}
		t0 := time.Now()
		ref.reset()
		col = newCollector(o.Trace)
		if w, err = sp.build(col, newRand(o.Seed)); err != nil {
			return res, nil, fmt.Errorf("%s: build: %w", sp.name, err)
		}
		for i := 0; i < warmup; i++ {
			w.prepare(i)
			if err := w.step(i); err != nil {
				return res, nil, fmt.Errorf("%s: warm-up step %d: %w", sp.name, i, err)
			}
			col.endStep()
			if i%sp.refEvery == 0 {
				ref.sample()
			}
		}
		setups = append(setups, (time.Since(t0)-ref.spent()).Seconds()/ref.slowdown())
	}

	// The measured window.
	col.resetWindow()
	ls := newLayerSampler(o.Trace, w, col)
	stepMs := make([]float64, 0, steps)
	var tracedMs, untracedMs []float64
	runtime.GC()
	ref.reset()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var allocs uint64
	var cpu time.Duration
	for i := 0; i < steps; i++ {
		k := warmup + i
		w.prepare(k)
		col.tr.on = o.Trace && (i/traceBlock)%2 == 1
		col.tr.step = i
		if col.tr.on {
			col.tr.kept++
		}
		a0, c0, t0 := allocObjects(), cpuTime(), time.Now()
		col.tr.begin(spanStep, "driver")
		err := w.step(k)
		col.tr.end()
		d := time.Since(t0)
		allocs += allocObjects() - a0
		cpu += cpuTime() - c0
		if err != nil {
			return res, nil, fmt.Errorf("%s: step %d: %w", sp.name, i, err)
		}
		ms := float64(d.Nanoseconds()) / 1e6
		stepMs = append(stepMs, ms)
		if o.Trace {
			if col.tr.on {
				tracedMs = append(tracedMs, ms)
			} else {
				untracedMs = append(untracedMs, ms)
			}
		}
		col.endStep()
		ls.sample()
		if i%sp.refEvery == 0 {
			ref.sample()
		}
	}
	col.tr.on = false
	if ref.err != nil {
		return res, nil, ref.err
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	runtime.GC()
	runtime.GC() // twice: the first only moves sync.Pool contents to the victim cache
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	// Everything measured over the window is fixed here, before the quiesce
	// traffic adds to the counters.
	ages := col.ages
	updates := float64(max(ages.n, 1))
	vals := map[string]float64{
		"setup_s":               quantile(setups, 0.5),
		"step_ms_mean":          mean(stepMs) / ref.slowdown(),
		"step_ms_wall":          mean(stepMs),
		"host.ref_slowdown":     ref.slowdown(),
		"step_ms_p95":           quantile(append([]float64(nil), stepMs...), 0.95),
		"pose_age_ms_p50":       ages.quantileMs(0.50),
		"pose_age_ms_p95":       ages.quantileMs(0.95),
		"fresh_ratio":           float64(ages.fresh) / updates,
		"wire_bytes_per_update": float64(col.servedBytes) / updates,
		"allocs_per_step":       float64(allocs) / float64(steps),
		"live_heap_mb":          float64(heap.HeapAlloc) / (1 << 20),
	}
	defs := EndToEnd
	if o.Trace {
		defs = PerLayer
		ls.metrics(vals, max(kernelReps/20, int(kernelReps*scale)), layerInputs{
			steps: steps, tracedMs: tracedMs, untracedMs: untracedMs,
			cpu: cpu, gcCount: gc1.NumGC - gc0.NumGC, gcPause: time.Duration(gc1.PauseTotalNs - gc0.PauseTotalNs),
		})
	}

	// Quiesce, audit, tear down.
	if err := w.finish(); err != nil {
		return res, nil, fmt.Errorf("%s: quiesce: %w", sp.name, err)
	}
	joinMs, failed, stale := col.joinStats()
	vals["join_ms_p50"], vals["join_ms_p90"] = quantile(joinMs, 0.50), quantile(joinMs, 0.90)
	vals["audit.stale_sessions"] = float64(stale)
	res.Ops, res.FailedOps = len(col.sessions), failed
	for _, s := range col.sessions {
		if s.diverged != "" {
			res.Problems = append(res.Problems, fmt.Sprintf("session %d: %s", s.id, s.diverged))
		} else if s.stale != "" {
			res.Stale = append(res.Stale, fmt.Sprintf("session %d: %s", s.id, s.stale))
		}
	}
	res.Problems = append(res.Problems, w.problems()...)
	if n := w.probes().counter("recv.decode_errors") + col.decodeErrs; n != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d frames failed to decode", n))
	}
	err = w.close()
	w = nil
	if err != nil {
		return res, nil, err
	}
	if leaked := protocol.LiveFrames() - live0; leaked != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d frames still held after teardown", leaked))
	}
	if o.Trace && o.OutDir != "" {
		if err := col.tr.write(o.OutDir + "/trace-" + sp.name + ".json"); err != nil {
			return res, nil, err
		}
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return res, nil, fmt.Errorf("%s: metric %s was not measured", sp.name, d.Name)
		}
		res.Metrics = append(res.Metrics, Value{d.Name, d.Unit, v})
	}
	return res, vals, nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// allocObjects returns the cumulative count of heap objects allocated,
// without stopping the world.
func allocObjects() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
