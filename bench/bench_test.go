package bench

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// smokeSeconds scales every workload down to a few dozen steps.
const smokeSeconds = 0.05

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end and as a layer run at smoke scale
// and checks that each declared metric is reported with a finite value and
// its declared unit, that no audit failed, and that no frame leaked.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads() {
		for _, trace := range []bool{false, true} {
			live0 := protocol.LiveFrames()
			res, err := Run(Options{Workload: w, Seed: 42, Seconds: smokeSeconds, Trace: trace, OutDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct() || res.FailedOps != 0 || res.Ops == 0 {
				t.Errorf("%s trace=%v: ops=%d failed=%d problems=%v", w, trace, res.Ops, res.FailedOps, res.Problems)
			}
			if n := protocol.LiveFrames() - live0; n != 0 {
				t.Errorf("%s trace=%v: %d frames leaked", w, trace, n)
			}
			defs := EndToEnd
			if trace {
				defs = PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for i, d := range defs {
				m := res.Metrics[i]
				if m.Name != d.Name || m.Unit != d.Unit {
					t.Errorf("%s: metric %d is %s [%s], want %s [%s]", w, i, m.Name, m.Unit, d.Name, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w, m.Name, m.Value)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w, m.Name)
				}
			}
		}
	}
}

// deterministic lists the metrics that depend only on the seed.
var deterministic = []string{"pose_age_ms_p50", "pose_age_ms_p95", "fresh_ratio", "join_ms_p50", "join_ms_p90", "wire_bytes_per_update"}

// TestSecondSeed checks that seed 7 passes every audit and that every
// virtual-time and count metric repeats exactly across two runs.
func TestSecondSeed(t *testing.T) {
	for _, w := range Workloads() {
		var first map[string]float64
		for rep := 0; rep < 2; rep++ {
			res, vals, err := run(Options{Workload: w, Seed: 7, Seconds: smokeSeconds})
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if !res.Correct() {
				t.Errorf("%s: %v", w, res.Problems)
			}
			if rep == 0 {
				first = vals
				continue
			}
			for _, name := range deterministic {
				if first[name] != vals[name] {
					t.Errorf("%s: %s = %v then %v", w, name, first[name], vals[name])
				}
			}
		}
	}
}

// TestTracingChangesNoWork checks that a traced lecture moves the same bytes
// and applies the same updates at the same ages as an untraced one, and
// holds no frame afterwards.
func TestTracingChangesNoWork(t *testing.T) {
	live0 := protocol.LiveFrames()
	var vals [2]map[string]float64
	for i, trace := range []bool{false, true} {
		res, v, err := run(Options{Workload: "lecture100_sim", Seed: 42, Seconds: smokeSeconds, Trace: trace, steps: 2 * traceBlock})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct() {
			t.Errorf("trace=%v: %v", trace, res.Problems)
		}
		vals[i] = v
	}
	for _, name := range []string{"pose_age_ms_p50", "wire_bytes_per_update", "fresh_ratio", "join_ms_p50"} {
		if vals[0][name] != vals[1][name] {
			t.Errorf("%s: untraced %v, traced %v", name, vals[0][name], vals[1][name])
		}
	}
	if vals[1]["transport.bytes_per_step"] == 0 || vals[1]["endpoint.recv_client_us"] == 0 {
		t.Errorf("layer run recorded nothing: %v", vals[1])
	}
	if n := protocol.LiveFrames() - live0; n != 0 {
		t.Errorf("%d frames leaked", n)
	}
}

type plainReceiver struct{ got int }

func (r *plainReceiver) Receive(endpoint.Addr, []byte) { r.got++ }

type frameReceiver struct {
	plainReceiver
	frames int
}

func (r *frameReceiver) ReceiveFrame(endpoint.Addr, *protocol.Frame) { r.frames++ }

type batchingTransport struct {
	kernelSink
	begun, flushed int
}

func (b *batchingTransport) BeginBatch()       { b.begun++ }
func (b *batchingTransport) FlushBatch() error { b.flushed++; return nil }

// TestTapForwards checks that the decorator offers Batcher exactly when the
// backing transport does, hands frames to a FrameReceiver and bytes to a
// plain Receiver, and leaves frame references to the backing transport: one
// consumed on every SendFrame outcome.
func TestTapForwards(t *testing.T) {
	col := newCollector(true)
	col.now = func() time.Duration { return 0 }

	bt := &batchingTransport{}
	b, ok := col.wrap(bt, false, true, nil).(endpoint.Batcher)
	if !ok {
		t.Fatal("tap over a batching transport is not a Batcher")
	}
	b.BeginBatch()
	if err := b.FlushBatch(); err != nil || bt.begun != 1 || bt.flushed != 1 {
		t.Errorf("batch calls not forwarded: begun=%d flushed=%d err=%v", bt.begun, bt.flushed, err)
	}
	if _, ok := col.wrap(kernelSink{}, false, true, nil).(endpoint.Batcher); ok {
		t.Error("tap over a plain transport claims Batcher")
	}

	live0 := protocol.LiveFrames()
	sim := vclock.New(1)
	net := netsim.New(sim)
	a := col.wrap(net.Endpoint("a"), false, true, nil)
	fr := &frameReceiver{}
	if err := a.Bind(&plainReceiver{}); err != nil {
		t.Fatal(err)
	}
	dst := col.wrap(net.Endpoint("b"), true, false, newReceiverState())
	if err := dst.Bind(fr); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectBoth("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	send := func(tr endpoint.Transport, to endpoint.Addr) error {
		f, err := protocol.EncodeFrame(&protocol.Snapshot{Tick: 1})
		if err != nil {
			t.Fatal(err)
		}
		return tr.SendFrame(to, f)
	}
	// Delivered, to a FrameReceiver and to a plain Receiver.
	if err := send(a, "b"); err != nil {
		t.Errorf("send a->b: %v", err)
	}
	if err := send(dst, "a"); err != nil {
		t.Errorf("send b->a: %v", err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fr.frames != 1 || fr.got != 0 {
		t.Errorf("FrameReceiver got %d frames and %d payloads, want 1 and 0", fr.frames, fr.got)
	}
	if p := tapOf(a).bound.r.(*plainReceiver); p.got != 1 {
		t.Errorf("plain Receiver got %d payloads, want 1", p.got)
	}
	if len(col.captured) != 1 {
		t.Fatalf("%d frames captured, want 1 (the sampled receiver's)", len(col.captured))
	}
	col.endStep()
	// Refused with an error.
	if err := send(a, "nowhere"); !errors.Is(err, netsim.ErrUnknownHost) {
		t.Errorf("send to an unknown host: %v", err)
	}
	// Closed.
	net.Close()
	if err := send(a, "b"); !errors.Is(err, netsim.ErrNetworkClosed) {
		t.Errorf("send on a closed network: %v", err)
	}
	if n := protocol.LiveFrames() - live0; n != 0 {
		t.Errorf("%d frame references outstanding after delivered, refused and closed sends", n)
	}
	if col.framesSent != 4 || col.snapshotsSent != 4 {
		t.Errorf("tap counted %d frames, %d snapshots; want 4, 4", col.framesSent, col.snapshotsSent)
	}
}

// TestSettleReportsShortCount checks that a TCP step whose traffic does not
// land fails with the counts instead of hanging.
func TestSettleReportsShortCount(t *testing.T) {
	col := newCollector(false)
	w, err := campusRelay.build(col, newRand(42))
	if err != nil {
		t.Fatal(err)
	}
	tw := w.(*tcpWorkload)
	defer func() {
		if err := tw.close(); err != nil {
			t.Error(err)
		}
	}()
	tw.timeout = 50 * time.Millisecond
	tw.prepare(0)
	if err := tw.step(0); err != nil {
		t.Fatalf("first step: %v", err)
	}
	col.endStep()
	tw.prepare(1)
	tw.twin.taps[chainRelay].syncRecv++ // the twin claims a frame TCP will never see
	err = tw.step(1)
	if err == nil || !strings.Contains(err.Error(), "relay-east received") {
		t.Errorf("step with a short count: %v", err)
	}
	col.endStep()
}

// TestBenchmarkJSON checks that BENCHMARK.json, when the checkout has it,
// declares exactly the workloads and metrics this package reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside bench/")
	}
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []Def `json:"end_to_end"`
		PerLayer []Def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d built", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, specs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []Def) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: declared %+v, reported %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, EndToEnd)
	same("per_layer", f.PerLayer, PerLayer)
	for _, d := range EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestHostRefChain checks that the host reference walks one cycle through
// every link, so that each sample does the same work wherever it starts.
func TestHostRefChain(t *testing.T) {
	ref, err := newHostRef(false)
	if err != nil {
		t.Fatal(err)
	}
	at, n := ref.chain[0], 1
	for ; at != 0 && n <= refWords; n++ {
		at = ref.chain[at]
	}
	if n != refWords {
		t.Errorf("the chain returns to its start after %d links, want %d", n, refWords)
	}
}
