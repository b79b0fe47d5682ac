// Root benchmark suite: one benchmark per experiment in DESIGN.md §4.
// Each bench regenerates (a reduced-duration version of) the corresponding
// EXPERIMENTS.md table and reports its headline metric, so
//
//	go test -bench=. -benchmem
//
// reproduces every figure/claim of the paper in one run. The full tables
// print via `go run ./cmd/metaclass`.
package metaclass

import (
	"fmt"
	"testing"
	"time"

	"metaclass/classroom"
	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/experiments"
	"metaclass/internal/fusion"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/netsim"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/render"
	"metaclass/internal/sensors"
	"metaclass/internal/sickness"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
	"metaclass/internal/video"
	"metaclass/internal/work"
)

// benchSeed keeps benchmark workloads deterministic run to run.
const benchSeed = 42

// BenchmarkE1UnitCase replays the Fig. 2 deployment (2 campuses + cloud +
// remote learners) for one simulated second per iteration.
func BenchmarkE1UnitCase(b *testing.B) {
	d, gz := buildBenchDeployment(b, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	visible := len(gz.Edge().VisibleParticipants())
	b.ReportMetric(float64(visible), "participants-visible")
}

// BenchmarkE2PipelineBudget measures the simulated capture-to-apply latency
// across the Fig. 3 pipeline.
func BenchmarkE2PipelineBudget(b *testing.B) {
	d, _ := buildBenchDeployment(b, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var worst time.Duration
	for _, v := range d.Clients() {
		if p := v.Metrics().Histogram("pose.age").P95(); p > worst {
			worst = p
		}
	}
	b.ReportMetric(float64(worst)/1e6, "p95-pose-age-ms")
}

// BenchmarkE3LatencySweep runs one latency point of the C1 sweep per
// iteration pair (alternating below/above the 100 ms threshold).
func BenchmarkE3LatencySweep(b *testing.B) {
	lats := []time.Duration{25 * time.Millisecond, 150 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		runLatencyBenchPoint(b, lats[i%2])
	}
}

func runLatencyBenchPoint(b *testing.B, oneWay time.Duration) {
	b.Helper()
	d, err := classroom.NewDeployment(classroom.Config{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		b.Fatal(err)
	}
	if _, _, err := d.AddRemoteLearner("u", trace.Seated{},
		netsim.ResidentialBroadband(oneWay)); err != nil {
		b.Fatal(err)
	}
	if err := d.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE4Scale measures cloud fan-out cost per simulated second at 100
// interest-managed remote users.
func BenchmarkE4Scale(b *testing.B) {
	d, err := classroom.NewDeployment(classroom.Config{Seed: benchSeed, EnableInterest: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{
			Anchor: mathx.V3(float64(i%25)*1.2, 0, float64(i/25)*1.2), Phase: float64(i),
		}, netsim.ResidentialBroadband(25*time.Millisecond)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	egress := float64(d.Cloud().Metrics().Counter("sync.bytes.sent").Value()) /
		d.Now().Seconds() / 1024
	b.ReportMetric(egress, "cloud-egress-KB/s")
}

// BenchmarkE5Regional runs the poorly-peered client through a regional
// relay (the C2 remedy) for one simulated second per iteration.
func BenchmarkE5Regional(b *testing.B) {
	d, err := classroom.NewDeployment(classroom.Config{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		b.Fatal(err)
	}
	relay, err := d.AddRelay("remote-region", netsim.LinkConfig{
		Latency: 170 * time.Millisecond, Jitter: 2 * time.Millisecond, Bandwidth: 10e9})
	if err != nil {
		b.Fatal(err)
	}
	cl, _, err := d.AddRemoteLearnerVia(relay, "u", trace.Seated{},
		netsim.ResidentialBroadband(8*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cl.Metrics().Histogram("pose.age").P95())/1e6, "p95-pose-age-ms")
}

// BenchmarkOnboard measures the onboarding hot path: each iteration joins a
// storm of clients at the cloud, runs one tick (planning and sending each
// newcomer's first snapshot), and removes them again. With the node
// runtime's pooled client/peer state the per-join allocation cost must stay
// flat as the storm grows — the regression gate in scripts/bench.sh
// compares the storm=64 allocs/op the same way it gates E4Scale.
func BenchmarkOnboard(b *testing.B) {
	for _, storm := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("storm=%d", storm), func(b *testing.B) { benchOnboard(b, storm) })
	}
}

func benchOnboard(b *testing.B, storm int) {
	b.Helper()
	d, err := classroom.NewDeployment(classroom.Config{Seed: benchSeed, EnableInterest: true})
	if err != nil {
		b.Fatal(err)
	}
	// A persistent population keeps the world and fan-out warm. Short access
	// latency keeps acks well inside the delta window while removal
	// bookkeeping advances the store tick per leave.
	for i := 0; i < 20; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{
			Anchor: mathx.V3(float64(i%5)*1.2, 0, float64(i/5)*1.2), Phase: float64(i),
		}, netsim.ResidentialBroadband(5*time.Millisecond)); err != nil {
			b.Fatal(err)
		}
	}
	// Pre-registered hosts and links for the churned clients, reused every
	// storm so the fabric itself does not grow.
	net := d.Network()
	ids := make([]protocol.ParticipantID, storm)
	addrs := make([]endpoint.Addr, storm)
	for k := 0; k < storm; k++ {
		ids[k] = protocol.ParticipantID(10000 + k)
		name := netsim.Addr(fmt.Sprintf("churn-%d", k))
		addrs[k] = endpoint.Addr(name)
		if err := net.AddHost(name, nil); err != nil {
			b.Fatal(err)
		}
		if err := net.ConnectBoth(name, netsim.Addr(d.Cloud().Addr()),
			netsim.LinkConfig{Latency: 5 * time.Millisecond, Bandwidth: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	cl := d.Cloud()
	tick := time.Second / 30
	cycle := func() {
		for k := 0; k < storm; k++ {
			if err := cl.AddClient(ids[k], addrs[k]); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Run(tick); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < storm; k++ {
			if err := cl.RemoveClient(ids[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm the onboarding pools to steady state. One cycle is not enough:
	// session teardown drains through 5ms links, so a departing client's
	// pooled state can return after the next storm already started, and the
	// pools keep growing (allocating) for a few cycles before the population
	// of in-flight departures settles.
	for i := 0; i < 4; i++ {
		cycle()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(storm), "joins/op")
}

// BenchmarkColdJoin measures the receiver-side cold path: each iteration
// joins one fresh client into an already-populated interest-managed
// classroom, runs the clock until the newcomer applies its first replication
// update (client.VR.FirstSyncAt), and leaves again. The headline metric is
// the mean join-to-first-sync latency; the allocation count covers the
// client's first full world apply — the path the pose.InterpPool exists for
// (one pooled playout buffer per visible entity instead of one allocation
// each). Migration re-joins make both numbers load-bearing: every geo
// handoff that falls back to a snapshot pays exactly this path.
// scripts/bench.sh gates cold-join-ms alongside the alloc/ns floors.
func BenchmarkColdJoin(b *testing.B) {
	d, err := classroom.NewDeployment(classroom.Config{Seed: benchSeed, EnableInterest: true})
	if err != nil {
		b.Fatal(err)
	}
	// A sizeable resident world: the cold join's first snapshot carries all
	// of it, so the buffer-per-entity cost is visible.
	for i := 0; i < 48; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{
			Anchor: mathx.V3(float64(i%8)*1.2, 0, float64(i/8)*1.2), Phase: float64(i),
		}, netsim.ResidentialBroadband(5*time.Millisecond)); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Run(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	link := netsim.ResidentialBroadband(5 * time.Millisecond)
	tick := time.Second / 30
	var total time.Duration
	joins := 0
	coldJoin := func() {
		v, id, err := d.AddRemoteLearner("cold", trace.Seated{
			Anchor: mathx.V3(9.6, 0, 9.6), Phase: 99,
		}, link)
		if err != nil {
			b.Fatal(err)
		}
		joined := d.Now()
		for i := 0; i < 60; i++ {
			if _, ok := v.FirstSyncAt(); ok {
				break
			}
			if err := d.Run(tick); err != nil {
				b.Fatal(err)
			}
		}
		first, ok := v.FirstSyncAt()
		if !ok {
			b.Fatal("cold join never synced")
		}
		total += first - joined
		joins++
		if err := d.RemoveRemoteLearner(id); err != nil {
			b.Fatal(err)
		}
		if err := d.Run(tick); err != nil { // drain the departure
			b.Fatal(err)
		}
	}
	// Warm the replica/interp pools to steady state (same rationale as
	// benchOnboard: pooled state returns a few cycles behind the joins).
	for i := 0; i < 4; i++ {
		coldJoin()
	}
	total, joins = 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldJoin()
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(joins)/1e6, "cold-join-ms")
}

// BenchmarkE11Churn measures one complete churn scenario per iteration: a
// fresh class with a base population warms up, rides 6 join/leave storm
// events (4 joins per event; each batch leaves two events later), and
// settles. Each iteration is self-contained — nothing carries over, so
// ns/op and egress are comparable across -benchtime settings instead of
// drifting with an ever-growing fabric.
func BenchmarkE11Churn(b *testing.B) {
	var egress float64
	for i := 0; i < b.N; i++ {
		egress = benchChurnScenario(b)
	}
	b.ReportMetric(egress, "cloud-egress-KB/s")
}

func benchChurnScenario(b *testing.B) float64 {
	b.Helper()
	d, err := classroom.NewDeployment(classroom.Config{Seed: benchSeed, EnableInterest: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := d.AddRemoteLearner("u", trace.Seated{Phase: float64(i)},
			netsim.ResidentialBroadband(25*time.Millisecond)); err != nil {
			b.Fatal(err)
		}
	}
	var batches [][]classroom.ParticipantID
	fired := 0
	cancel := d.Sim().Ticker(500*time.Millisecond, func() {
		if fired >= 6 {
			return
		}
		fired++
		var batch []classroom.ParticipantID
		for i := 0; i < 4; i++ {
			_, id, err := d.AddRemoteLearner("c", trace.Seated{
				Anchor: mathx.V3(float64(i)*1.5+6, 0, 8), Phase: float64(fired + i),
			}, netsim.ResidentialBroadband(25*time.Millisecond))
			if err != nil {
				b.Fatal(err)
			}
			batch = append(batch, id)
		}
		batches = append(batches, batch)
		if len(batches) >= 3 {
			for _, id := range batches[len(batches)-3] {
				if err := d.RemoveRemoteLearner(id); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	if err := d.Run(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	cancel()
	egress := float64(d.Cloud().Metrics().Counter("sync.bytes.sent").Value()) /
		d.Now().Seconds() / 1024
	d.Stop()
	return egress
}

// BenchmarkE12MegaEvent measures steady tiered fan-out for the mega-event
// venue: 256 remote users on a 16x16 seat grid at 3.2 m pitch (nearly every
// pair beyond NearRadius), the first user pinned focus as the performer,
// fan-out ticking at the clients' 20 Hz upload rate. cloud-egress-KB/s is
// the gated headline: it must stay at the decimated tier mix (far 1/4,
// ambient 1/8 with per-source phase stagger), a fraction of the broadcast
// cost E12's table reports — regressions that re-admit the crowd at full
// rate move this number, not just ns/op.
func BenchmarkE12MegaEvent(b *testing.B) {
	d, err := classroom.NewDeployment(classroom.Config{
		Seed: benchSeed, EnableInterest: true, TickHz: 20,
		VRRows: 16, VRCols: 16, VRPitch: 3.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	link := netsim.ResidentialBroadband(25 * time.Millisecond)
	var performer classroom.ParticipantID
	for i := 0; i < 256; i++ {
		_, id, err := d.AddRemoteLearner(fmt.Sprintf("crowd-%03d", i), trace.Seated{
			Anchor: mathx.V3(float64(i%16)*3.2, 0, float64(i/16)*3.2), Phase: float64(i),
		}, link)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			performer = id
		}
	}
	d.Cloud().PinFocus(performer)
	// Warm until everyone is seated and past their snapshot ramp, so the
	// timed window measures steady decimated deltas only.
	if err := d.Run(time.Second); err != nil {
		b.Fatal(err)
	}
	egress0 := d.Cloud().Metrics().Counter("sync.bytes.sent").Value()
	t0 := d.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	egress := float64(d.Cloud().Metrics().Counter("sync.bytes.sent").Value()-egress0) /
		(d.Now() - t0).Seconds() / 1024
	b.ReportMetric(egress, "cloud-egress-KB/s")
}

// BenchmarkE6Render evaluates the full C3 plan/device/complexity grid.
func BenchmarkE6Render(b *testing.B) {
	cfg := render.PipelineConfig{RTT: 40 * time.Millisecond}
	var holds int
	for i := 0; i < b.N; i++ {
		holds = 0
		for _, n := range []int64{10, 30, 60} {
			for _, plan := range render.Plans() {
				rep := render.Evaluate(plan, render.DeviceStandalone, n*500_000, n*5_000, cfg, 0.6)
				if rep.LocalFrameTime <= time.Second/72 {
					holds++
				}
			}
		}
	}
	b.ReportMetric(float64(holds), "configs-holding-72Hz")
}

// BenchmarkE7Video streams one simulated second of FEC-protected lecture
// video over a 3%-loss link per iteration.
func BenchmarkE7Video(b *testing.B) {
	table := experiments.E7Video // ensure the full table stays reachable
	_ = table
	for i := 0; i < b.N; i++ {
		benchVideoSecond(b)
	}
}

func benchVideoSecond(b *testing.B) {
	b.Helper()
	sim, net := newBenchNet(b)
	cfg := video.StreamConfig{Strategy: video.StrategyFEC, K: 8, R: 3}
	var receiver *video.Receiver
	sender := video.NewSender(sim, cfg, func(c *protocol.VideoChunk) {
		if frame, err := protocol.Encode(c); err == nil {
			_ = net.SendFrame("tx", "rx", protocol.CopyFrame(frame))
		}
	})
	receiver = video.NewReceiver(sim, cfg, nil)
	_ = net.Bind("rx", netsim.HandlerFunc(func(_ netsim.Addr, payload []byte) {
		if msg, _, err := protocol.Decode(payload); err == nil {
			if c, ok := msg.(*protocol.VideoChunk); ok {
				receiver.HandleChunk(c)
			}
		}
	}))
	sender.Start()
	if err := sim.Run(time.Second); err != nil {
		b.Fatal(err)
	}
	sender.Stop()
}

func newBenchNet(b *testing.B) (*vclock.Sim, *netsim.Network) {
	b.Helper()
	sim := vclock.New(benchSeed)
	net := netsim.New(sim)
	if err := net.AddHost("tx", nil); err != nil {
		b.Fatal(err)
	}
	if err := net.AddHost("rx", nil); err != nil {
		b.Fatal(err)
	}
	if err := net.ConnectBoth("tx", "rx", netsim.LinkConfig{
		Latency: 20 * time.Millisecond, LossRate: 0.03}); err != nil {
		b.Fatal(err)
	}
	return sim, net
}

// BenchmarkE8Sickness evaluates the fuzzy predictor over the full C5 grid.
func BenchmarkE8Sickness(b *testing.B) {
	profile := sickness.DefaultProfile()
	var sum float64
	for i := 0; i < b.N; i++ {
		for _, lat := range []time.Duration{20, 80, 150, 250} {
			for _, fps := range []float64{90, 45, 20} {
				sum += sickness.Predict(sickness.Conditions{
					MotionToPhoton: lat * time.Millisecond,
					FrameRateHz:    fps, FOVDegrees: 100, NavSpeed: 1.5,
				}, profile)
			}
		}
	}
	b.ReportMetric(sum/float64(b.N)/12, "mean-sickness-score")
}

// BenchmarkE9DeadReckoning reconstructs 30 s of walker motion from 10 Hz
// updates with linear dead reckoning per iteration.
func BenchmarkE9DeadReckoning(b *testing.B) {
	script := trace.Walker{Waypoints: []mathx.Vec3{{}, {X: 6}, {X: 6, Z: 4}, {Z: 4}}, Speed: 1.4}
	for i := 0; i < b.N; i++ {
		buf := pose.NewInterpBuffer(0, 64, pose.Linear{})
		next := time.Duration(0)
		for at := time.Duration(0); at < 30*time.Second; at += 10 * time.Millisecond {
			for next <= at {
				buf.Push(script.PoseAt(next))
				next += 100 * time.Millisecond
			}
			if _, ok := buf.Sample(at); !ok {
				b.Fatal("no sample")
			}
		}
	}
}

// BenchmarkE10Fusion runs one second of 2-source sensor fusion per
// iteration.
func BenchmarkE10Fusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := vclock.New(benchSeed)
		script := trace.Seated{Anchor: mathx.V3(1, 0, 2)}
		f := fusion.New()
		sink := func(o sensors.Observation) { f.Observe(o) }
		h := sensors.NewHeadset("p", sim, script, sensors.HeadsetConfig{}, sink)
		arr := sensors.NewArray(3, 10, 8, sim, sensors.RoomSensorConfig{}, sink)
		arr.Track("p", script)
		h.Start()
		arr.Start()
		if err := sim.Run(time.Second); err != nil {
			b.Fatal(err)
		}
		if _, ok := f.Estimate(sim.Now()); !ok {
			b.Fatal("fusion produced no estimate")
		}
	}
}

func buildBenchDeployment(b *testing.B, localsPerCampus, remotes int) (*classroom.Deployment, *classroom.Campus) {
	b.Helper()
	d, err := classroom.NewDeployment(classroom.Config{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		b.Fatal(err)
	}
	cwb, err := d.AddCampus("cwb", 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.ConnectCampuses(gz, cwb); err != nil {
		b.Fatal(err)
	}
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < localsPerCampus; i++ {
		anchor := mathx.V3(float64(i%8)-3.5, 0, 2+float64(i/8)*1.2)
		if _, err := gz.AddLearner("s", trace.Seated{Anchor: anchor, Phase: float64(i)}); err != nil {
			b.Fatal(err)
		}
		if _, err := cwb.AddLearner("s", trace.Seated{Anchor: anchor, Phase: float64(i) + 0.4}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < remotes; i++ {
		if _, _, err := d.AddRemoteLearner("r", trace.Seated{Phase: float64(i)},
			netsim.ResidentialBroadband(30*time.Millisecond)); err != nil {
			b.Fatal(err)
		}
	}
	return d, gz
}

// sinkTransport is a Transport that counts and releases every frame — the
// minimal backend for benchmarking the fan-out encode path with no
// simulated network in the way.
type sinkTransport struct{ frames, bytes uint64 }

func (s *sinkTransport) SendFrame(_ endpoint.Addr, f *protocol.Frame) error {
	s.frames++
	s.bytes += uint64(f.Len())
	f.Release()
	return nil
}
func (s *sinkTransport) LocalAddr() endpoint.Addr     { return "bench-sink" }
func (s *sinkTransport) Bind(endpoint.Receiver) error { return nil }
func (s *sinkTransport) Close() error                 { return nil }

// buildPlanFixture assembles a store and replicator loaded like the venue's
// server tick: 256 entities seated 16×16 at 3.2 m, each also a peer whose
// interest is asked the way node.Runtime asks a client's — its own
// interest.Set refreshed under interest.NewPolicy(), then AppendRefused —
// pre-warmed past first-contact snapshots. step advances one tick: every
// avatar shifts inside its seat and every peer re-acks at its fixed lag of
// one to three ticks, so each iteration plans the same amount of work.
func buildPlanFixture(b testing.TB, pool *work.Pool) (*core.Replicator, func()) {
	b.Helper()
	const side, pitch = 16, 3.2
	s := core.NewStore()
	g := interest.NewGrid(4)
	policy := interest.NewPolicy()
	r := core.NewReplicator(s, core.ReplConfig{Pool: pool})
	peers := make([]string, side*side)
	for i := range peers {
		id, set := protocol.ParticipantID(i+1), interest.NewSet()
		peers[i] = fmt.Sprintf("peer-%03d", i)
		if err := r.AddPeerRefusing(peers[i], func(tick uint64, dst []protocol.ParticipantID) []protocol.ParticipantID {
			set.RefreshOwned(g, policy, id, tick)
			return set.AppendRefused(g, dst)
		}); err != nil {
			b.Fatal(err)
		}
	}
	ack := func() {
		tick := s.Tick()
		for i, peer := range peers {
			if lag := uint64(1 + i%3); tick > lag {
				if err := r.Ack(peer, tick-lag); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	step := func() {
		tick := s.BeginTick()
		for i := range peers {
			id := protocol.ParticipantID(i + 1)
			pos := mathx.V3(pitch*float64(i%side)+0.01*float64(tick%7), 0, pitch*float64(i/side))
			s.Upsert(protocol.EntityState{Participant: id, Pose: protocol.QuantizePose(pos, mathx.QuatIdentity())})
			g.Update(id, pos)
		}
		ack()
	}
	step()
	_ = r.PlanTick()          // first-contact snapshots
	for i := 0; i < 12; i++ { // settle into steady-state deltas
		step()
		_ = r.PlanTick()
	}
	return r, step
}

// BenchmarkPlanTick measures the replication planner alone at pool widths
// 1, 2, and 4: width 1 runs the builds inline on the caller; wider pools
// shard the per-peer builds, each peer's interest refresh included. The plan is
// byte-identical at every width (the TestPlanTickWidthInvariant contract),
// so ns/op is the only thing that may move.
func BenchmarkPlanTick(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := work.New(workers)
			defer pool.Close()
			r, step := buildPlanFixture(b, pool)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
				if plan := r.PlanTick(); len(plan) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// BenchmarkFanout measures the dispatcher's send walk over a plan of the
// fixture (a frame per peer, built by PlanTick on a pool of width 1, 2 or 4)
// against a sink transport. Fanout consumes its plan, so every iteration
// plans a fresh tick with the timer stopped; the walk itself runs in plan
// order on the caller at every width.
func BenchmarkFanout(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := work.New(workers)
			defer pool.Close()
			r, step := buildPlanFixture(b, pool)
			sink := &sinkTransport{}
			d, err := endpoint.NewDispatcher(sink, metrics.NewRegistry("bench"), endpoint.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				step()
				plan := r.PlanTick()
				if len(plan) == 0 {
					b.Fatal("empty plan")
				}
				b.StartTimer()
				d.Fanout(plan)
			}
			b.StopTimer()
			if sink.frames == 0 {
				b.Fatal("fanout sent nothing")
			}
			b.ReportMetric(float64(sink.bytes)/float64(b.N), "bytes/op")
		})
	}
}

// TestPlanTickAllocationFree pins the tick pipeline's steady state at zero
// heap objects per tick — world churn, acks, PlanTick, and Fanout on the
// venue-shaped plan fixture — inline at width 1 and sharded at width 4.
func TestPlanTickAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; alloc counts are meaningless")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pool := work.New(workers)
			defer pool.Close()
			r, step := buildPlanFixture(t, pool)
			d, err := endpoint.NewDispatcher(&sinkTransport{}, metrics.NewRegistry("allocs"), endpoint.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tick := func() {
				step()
				d.Fanout(r.PlanTick())
			}
			// Warm-up: more than one lap of the store's 256-slot dirty ring,
			// whose slots each grow on first use, plus the plan scratch, the
			// frame pool, and the pool's helpers.
			for i := 0; i < 300; i++ {
				tick()
			}
			if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
				t.Fatalf("steady-state tick allocates %.2f objects, want 0", allocs)
			}
		})
	}
}

// hostRefSink keeps BenchmarkHostRef's loop from being optimised away.
var hostRefSink uint64

// BenchmarkHostRef is the host reference: a fixed serial loop that calls into
// no package of this module, so its ns/op moves only with the machine.
// scripts/bench.sh --compare divides the gated rows' ns/op by it before
// comparing two files. Never edit it: a changed loop invalidates every
// comparison against older files.
func BenchmarkHostRef(b *testing.B) {
	var table [4096]uint32
	for i := range table {
		table[i] = uint32(i) * 2654435761
	}
	x := uint64(88172645463325252)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x += uint64(table[x&4095])
		}
	}
	hostRefSink = x
}
