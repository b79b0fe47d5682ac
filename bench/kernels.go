package bench

import (
	"fmt"
	"io"
	"net"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/netsim"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/transport"
	"metaclass/internal/vclock"
	"metaclass/internal/work"
)

// kernelReps is how many times each kernel is timed; the median is reported.
const kernelReps = 1000

// kernels times single layers, each reps times.
type kernels struct{ reps int }

// medianNs times fn reps times and returns the median in nanoseconds.
func (k kernels) medianNs(fn func()) float64 {
	ns := make([]float64, k.reps)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return quantile(ns, 0.5)
}

// runKernels times single layers on the traffic the window captured and on
// the live state of the workload's cloud, between the window and the
// quiesce. Each number is what one call costs alone, so that the spans it
// should explain can be checked against it.
func runKernels(p probes, ring [][]byte, framesPerStep, reps int) []Value {
	k := kernels{reps}
	out := k.codec(ring)
	var refreshUs float64
	if p.policy != nil {
		refreshUs = k.interest(p.world.Grid(), p.policy)
	}
	store := p.world.Store()
	var delta protocol.Delta
	var snap protocol.Snapshot
	base := store.Tick() - min(store.Tick(), 2)
	planUs, fanoutUs := k.fixture()
	return append(out,
		Value{"interest.refresh_us_per_client", "us", refreshUs},
		Value{"core.Store.delta_us", "us", k.medianNs(func() { store.DeltaSinceInto(base, nil, &delta) }) / 1e3},
		Value{"core.Store.snapshot_us", "us", k.medianNs(func() { store.SnapshotInto(nil, &snap) }) / 1e3},
		Value{"core.Replicator.plan_us.fixture", "us", planUs},
		Value{"endpoint.fanout_us.fixture", "us", fanoutUs},
		Value{"netsim.send_deliver_ns", "ns", k.netsim()},
		Value{"vclock.schedule_fire_ns", "ns", k.vclock()},
		Value{"transport.conn_flush_us", "us", k.connFlush(ring, min(max(framesPerStep, 1), 256))},
		Value{"work.run_overhead_ns", "ns", k.work()},
	)
}

// codecKernels replays the captured frame ring through the decoder, the
// encoder, a fresh replica and a playout buffer.
func (k kernels) codec(ring [][]byte) []Value {
	var (
		msgs     []protocol.Message
		entities int
		bytes    int
	)
	for _, b := range ring {
		msg, _, err := protocol.Decode(b)
		if err != nil {
			continue
		}
		switch m := msg.(type) {
		case *protocol.Snapshot:
			entities += len(m.Entities)
		case *protocol.Delta:
			entities += len(m.Changed)
		}
		msgs = append(msgs, msg)
		bytes += len(b)
	}
	per := func(totalNs float64) float64 { return ratio(totalNs, float64(entities)) }

	var dec protocol.Decoder
	decodeNs := k.medianNs(func() {
		for _, b := range ring {
			_, _, _ = dec.Decode(b)
		}
	})
	var buf []byte
	encodeNs := k.medianNs(func() {
		for _, m := range msgs {
			buf, _ = protocol.AppendEncode(buf[:0], m)
		}
	})

	applyNs := k.apply(msgs)

	const pushes = 64
	ib := pose.NewInterpBuffer(100*time.Millisecond, 64, pose.Linear{})
	var at time.Duration
	pushNs := k.medianNs(func() {
		for i := 0; i < pushes; i++ {
			at += 50 * time.Millisecond
			ib.Push(pose.Pose{Time: at, Position: mathx.V3(float64(i), 1.2, 0)})
		}
	}) / pushes

	return []Value{
		{"protocol.decode_ns_per_entity", "ns", per(decodeNs)},
		{"protocol.encode_ns_per_entity", "ns", per(encodeNs)},
		{"protocol.bytes_per_entity", "B", per(float64(bytes))},
		{"core.Replica.apply_ns_per_entity", "ns", applyNs},
		{"pose.push_ns", "ns", pushNs},
	}
}

// applyReplicas is how many replicas the apply kernel spreads the captured
// messages over: one per ring frame.
const applyReplicas = frameRingSize

// apply returns the median cost per entity of Replica.Apply. Every captured
// entity list is applied to its own replica as a delta with a fresh tick and
// fresh capture stamps, so each call takes the replica's live path (known
// entity, newest sample, full buffer) and not its stale-duplicate shortcut.
// The first 64 rounds fill the buffers and are not timed.
//
// Between timed rounds the cache is streamed out. A replica's playout buffers
// are 6 KB per entity and a push into a full one moves all of it, so what
// Apply costs is decided by whether those buffers are in cache. In a real run
// a buffer is touched once every one to eight ticks with tens of megabytes of
// other replicas' buffers touched in between; one hot replica would flatter
// the number several times over, so every round starts as cold as that.
func (k kernels) apply(msgs []protocol.Message) float64 {
	var lists [][]protocol.EntityState
	for _, m := range msgs {
		switch m := m.(type) {
		case *protocol.Snapshot:
			lists = append(lists, m.Entities)
		case *protocol.Delta:
			lists = append(lists, m.Changed)
		}
		if len(lists) == applyReplicas {
			break
		}
	}
	if len(lists) == 0 {
		return 0
	}
	reps := make([]*core.Replica, len(lists))
	for i := range reps {
		reps[i] = core.NewReplica(100*time.Millisecond, pose.Linear{})
		reps[i].RetainOmitted = true
	}
	const fill = 64
	evict := make([]uint64, 8<<20)
	rounds := fill + (k.reps+len(lists)-1)/len(lists)
	var ns []float64
	scratch := &protocol.Delta{}
	for round := 1; round <= rounds; round++ {
		now := time.Duration(round) * 50 * time.Millisecond
		if round > fill {
			for i := range evict {
				evict[i]++
			}
		}
		for i, ents := range lists {
			if len(ents) == 0 {
				continue
			}
			scratch.BaseTick, scratch.Tick = uint64(round-1), uint64(round)
			scratch.Changed = append(scratch.Changed[:0], ents...)
			for k := range scratch.Changed {
				scratch.Changed[k].CapturedAt = now
			}
			t0 := time.Now()
			reps[i].Apply(scratch, now)
			if d := time.Since(t0); round > fill {
				ns = append(ns, float64(d.Nanoseconds())/float64(len(ents)))
			}
		}
	}
	return quantile(ns, 0.5)
}

// interestKernel refreshes a bench-owned interest set for every placed
// receiver of the live grid and returns the cost per receiver in µs.
func (k kernels) interest(g *interest.Grid, p *interest.Policy) float64 {
	var ids []protocol.ParticipantID
	for id := protocol.ParticipantID(1); len(ids) < g.Len() && id < 1<<16; id++ {
		if _, ok := g.Position(id); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	set := interest.NewSet()
	var tick uint64
	ns := k.medianNs(func() {
		for _, id := range ids {
			tick++ // a set rebuilds at most once per tick
			set.RefreshOwned(g, p, id, tick)
		}
	})
	return ns / 1e3 / float64(len(ids))
}

// kernelSink is a transport that releases what it is sent.
type kernelSink struct{}

func (kernelSink) SendFrame(_ endpoint.Addr, f *protocol.Frame) error { f.Release(); return nil }
func (kernelSink) LocalAddr() endpoint.Addr                           { return "kernel-sink" }
func (kernelSink) Bind(endpoint.Receiver) error                       { return nil }
func (kernelSink) Close() error                                       { return nil }

// fixtureKernels rebuilds the planner fixture of the root BenchmarkPlanTick
// and BenchmarkFanout — 192 entities, 96 peers, a third of them filtered, six
// ack baselines — and times PlanTick and Fanout on it at the default worker
// count.
func (k kernels) fixture() (planUs, fanoutUs float64) {
	pool := work.New(0)
	defer pool.Close()
	s := core.NewStore()
	r := core.NewReplicator(s, core.ReplConfig{Pool: pool})
	entity := func(id int, x float64) protocol.EntityState {
		return protocol.EntityState{
			Participant: protocol.ParticipantID(id),
			Pose:        protocol.QuantizePose(mathx.V3(x, 0, x*0.5), mathx.QuatIdentity()),
		}
	}
	evens := func(id protocol.ParticipantID, _ uint64) bool { return id%2 == 0 }
	thirds := func(id protocol.ParticipantID, _ uint64) bool { return id%3 != 0 }
	for i := 0; i < 96; i++ {
		var f core.FilterFunc
		if i%3 == 0 {
			f = thirds
			if i%2 == 0 {
				f = evens
			}
		}
		_ = r.AddPeer(fmt.Sprintf("peer-%03d", i), f)
	}
	var peers []string
	ack := func() {
		peers = r.PeersAppend(peers[:0])
		for i, id := range peers {
			if lag := uint64(i%6) * 2; s.Tick() > lag {
				_ = r.Ack(id, s.Tick()-lag)
			}
		}
	}
	step := func() {
		tick := s.BeginTick()
		for i := 0; i < 48; i++ {
			s.Upsert(entity(1+int((tick*7+uint64(i)*11)%192), float64((tick+uint64(i))%40)))
		}
		ack()
	}
	s.BeginTick()
	for i := 1; i <= 192; i++ {
		s.Upsert(entity(i, float64(i%40)))
	}
	_ = r.PlanTick()
	ack()
	for i := 0; i < 12; i++ {
		step()
		_ = r.PlanTick()
	}
	var plan []core.PeerMessage
	planUs = k.medianNs(func() {
		step()
		plan = r.PlanTick()
	}) / 1e3
	d, err := endpoint.NewDispatcher(kernelSink{}, metrics.NewRegistry("kernel"), endpoint.Config{Pool: pool})
	if err != nil {
		return planUs, 0
	}
	fanoutUs = k.medianNs(func() { d.Fanout(plan) }) / 1e3
	d.ReleaseFrames()
	return planUs, fanoutUs
}

// netsimKernel times one SendFrame plus its delivery on a two-host net.
func (k kernels) netsim() float64 {
	sim := vclock.New(1)
	n := netsim.New(sim)
	_ = n.AddHost("a", nil)
	_ = n.AddHost("b", netsim.HandlerFunc(func(netsim.Addr, []byte) {}))
	_ = n.ConnectBoth("a", "b", netsim.LinkConfig{Latency: time.Millisecond})
	payload := make([]byte, 256)
	const batch = 32
	ns := k.medianNs(func() {
		for i := 0; i < batch; i++ {
			_ = n.SendFrame("a", "b", protocol.CopyFrame(payload))
		}
		_ = sim.Run(sim.Now() + 2*time.Millisecond)
	})
	n.Close()
	return ns / batch
}

// vclockKernel times scheduling one pooled event and firing it.
func (k kernels) vclock() float64 {
	sim := vclock.New(1)
	fn := func(any) {}
	const batch = 32
	return k.medianNs(func() {
		for i := 0; i < batch; i++ {
			sim.AfterCall(time.Duration(i+1)*time.Microsecond, fn, nil)
		}
		_ = sim.RunAll()
	}) / batch
}

// connFlushKernel times one vectored Conn.Flush of frames captured frames on
// a loopback connection whose far side reads and discards.
func (k kernels) connFlush(ring [][]byte, frames int) float64 {
	if len(ring) == 0 {
		return 0
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c)
		_ = c.Close()
	}()
	c, err := transport.Dial(ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		<-drained
		return 0
	}
	ns := make([]float64, k.reps)
	for r := range ns {
		for i := 0; i < frames; i++ {
			c.QueueFrame(protocol.CopyFrame(ring[i%len(ring)]))
		}
		t0 := time.Now()
		_ = c.Flush()
		ns[r] = float64(time.Since(t0).Nanoseconds())
	}
	_ = c.Close()
	<-drained
	return quantile(ns, 0.5) / 1e3
}

// workKernel times an empty Pool.Run at the default width.
func (k kernels) work() float64 {
	pool := work.New(0)
	defer pool.Close()
	fn := func(int, int) {}
	n := pool.Workers()
	return k.medianNs(func() { pool.Run(n, fn) })
}
