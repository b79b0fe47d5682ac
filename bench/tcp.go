package bench

import (
	"fmt"
	"math/rand"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/edge"
	"metaclass/internal/endpoint"
	"metaclass/internal/netsim"
	"metaclass/internal/node"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/transport"
	"metaclass/internal/vclock"
)

// campusRelay is the only workload through transport.Conn and
// transport.Endpoint (queue, vectored flush, ReadFrame, inbox): large
// unfiltered frames, three node kinds, no interest, no netsim. Traffic
// crosses the host loopback, not a real link. It runs on one P: the three
// nodes share a process only because the benchmark put them there, and on two
// a step times the hypervisor waking a second virtual CPU for the read loops
// (a third slower, stalls of up to 140 ms), not the program.
var campusRelay = spec{name: "campus_relay_tcp", stepsPerSecond: 2000, warmup: 3000, refEvery: 64, refSockets: true, procs: 1, build: buildCampusRelay}

const (
	chainEdge = iota
	chainCloud
	chainRelay
	chainNodes

	// chainAuthored is how many participants each of the edge and the cloud
	// authors.
	chainAuthored = 64
	// chainHz is every node's tick rate, chainTick the interval.
	chainHz   = 30
	chainTick = time.Second / chainHz
	// settleTimeout is how long a step may wait for its traffic to land.
	settleTimeout = 5 * time.Second
)

var chainAddrs = [chainNodes]endpoint.Addr{"edge-campus", "cloud", "relay-east"}

// chain is edge.Server → cloud.Server → cloud.Relay on one virtual clock over
// some transport, driven in lock-step: the edge authors campus participants,
// the cloud mirrors them and authors its own (Home == 0), the relay mirrors
// the cloud.
type chain struct {
	sim   *vclock.Sim
	edge  *edge.Server
	cloud *cloud.Server
	relay *cloud.Relay
	taps  [chainNodes]*tap
	rts   [chainNodes]*node.Runtime
}

func newChain(col *collector, sim *vclock.Sim, trs [chainNodes]endpoint.Transport, sampled bool) (*chain, error) {
	c := &chain{sim: sim}
	col.now = c.sim.Now
	var wrapped [chainNodes]endpoint.Transport
	for i, tr := range trs {
		var rs *receiverState
		if sampled {
			rs = newReceiverState()
		}
		wrapped[i] = col.wrap(tr, false, true, rs)
		c.taps[i] = tapOf(wrapped[i])
	}
	var err error
	if c.edge, err = edge.New(c.sim, wrapped[chainEdge], edge.Config{Classroom: 1, TickHz: chainHz}); err != nil {
		return nil, err
	}
	if c.cloud, err = cloud.New(c.sim, wrapped[chainCloud], cloud.Config{TickHz: chainHz}); err != nil {
		return nil, err
	}
	if c.relay, err = cloud.NewRelay(c.sim, wrapped[chainRelay], cloud.RelayConfig{Upstream: chainAddrs[chainCloud], TickHz: chainHz}); err != nil {
		return nil, err
	}
	c.rts = [chainNodes]*node.Runtime{c.edge.Runtime(), c.cloud.Runtime(), c.relay.Runtime()}
	if err := c.edge.ConnectPeer(chainAddrs[chainCloud]); err != nil {
		return nil, err
	}
	if err := c.cloud.ConnectEdge(chainAddrs[chainEdge], 1); err != nil {
		return nil, err
	}
	if err := c.cloud.AddRelay(chainAddrs[chainRelay]); err != nil {
		return nil, err
	}
	for _, start := range []func() error{c.edge.Start, c.cloud.Start, c.relay.Start} {
		if err := start(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// advance authors the step's inputs and runs every node's tick. Authoring
// happens between ticks, so — like the nodes' own out-of-tick mutations — it
// opens a store tick of its own first.
func (c *chain) advance(inputs []protocol.EntityState) error {
	if len(inputs) > 0 {
		local, world := c.edge.LocalStore(), c.cloud.World()
		local.BeginTick()
		world.BeginTick()
		for i := range inputs {
			if inputs[i].Home == 0 {
				world.Upsert(inputs[i])
			} else {
				local.Upsert(inputs[i])
			}
		}
	}
	return c.sim.Run(c.sim.Now() + chainTick)
}

func (c *chain) stop() {
	c.edge.Stop()
	c.cloud.Stop()
	c.relay.Stop()
}

// fingerprint renders every node's registry; two chains that did the same
// work in the same order render identically.
func (c *chain) fingerprint() string {
	var s string
	for _, rt := range c.rts {
		s += rt.Metrics().String()
	}
	return s
}

// replicaOf returns node's replica of the sync partner at addr.
func (c *chain) replicaOf(nodeIdx int, addr endpoint.Addr) *core.Store {
	p, _ := c.rts[nodeIdx].SyncPeer(addr)
	return p.Replica.Store()
}

// tcpWorkload runs the chain over loopback TCP beside a netsim twin with
// zero-latency links, the same wiring and the same inputs. The twin takes
// each step first and tells the TCP pass how many frames every node must
// have received when the step's traffic has landed; the TCP pass blocks until
// its counts match. That makes every virtual-time metric deterministic, and
// the two chains' registries must end byte-identical.
type tcpWorkload struct {
	col   *collector
	rng   *rand.Rand
	tcp   *chain
	twin  *chain
	eps   [chainNodes]*transport.Endpoint
	net   *netsim.Network
	quiet bool
	// timeout fails a step whose traffic has not landed.
	timeout time.Duration

	scripts  []trace.MotionScript
	sessions map[protocol.ParticipantID]*session
	inputs   []protocol.EntityState
	stepNo   int
	issues   []string
	err      error // the twin's first failure
}

func buildCampusRelay(col *collector, rng *rand.Rand) (workload, error) {
	w := &tcpWorkload{col: col, rng: rng, timeout: settleTimeout, sessions: make(map[protocol.ParticipantID]*session)}
	simSeed := rng.Int63()

	// The twin: same nodes over netsim, links with no latency, jitter or loss.
	twinSim := vclock.New(simSeed)
	w.net = netsim.New(twinSim)
	var twinTrs [chainNodes]endpoint.Transport
	var err error
	for i, a := range chainAddrs {
		twinTrs[i] = w.net.Endpoint(netsim.Addr(a))
	}
	if w.twin, err = newChain(newCollector(false), twinSim, twinTrs, false); err != nil {
		return nil, err
	}
	for _, peer := range []int{chainEdge, chainRelay} {
		if err := w.net.ConnectBoth(netsim.Addr(chainAddrs[peer]), netsim.Addr(chainAddrs[chainCloud]), netsim.LinkConfig{}); err != nil {
			return nil, err
		}
	}

	// The TCP pass: three endpoints on loopback, exactly two connections.
	var trs [chainNodes]endpoint.Transport
	for i, a := range chainAddrs {
		if w.eps[i], err = transport.ListenEndpoint(a, "127.0.0.1:0"); err != nil {
			return nil, err
		}
		trs[i] = w.eps[i]
	}
	for _, peer := range []int{chainEdge, chainRelay} {
		if err := w.eps[peer].Dial(chainAddrs[chainCloud], w.eps[chainCloud].TCPAddr()); err != nil {
			return nil, err
		}
	}
	col.transit = make(map[[2]endpoint.Addr][]time.Time)
	if w.tcp, err = newChain(col, vclock.New(simSeed), trs, true); err != nil {
		return nil, err
	}

	// 64 campus participants (8×8 at 1.2 m) and 64 cloud-authored ones. A
	// participant's session runs from its first authored pose to the first
	// time the relay — the far end of the chain — applies it.
	far := w.tcp.taps[chainRelay].state
	far.entities = w.sessions
	for i := 0; i < 2*chainAuthored; i++ {
		k := i % chainAuthored
		w.scripts = append(w.scripts, seatedAt(rng, float64(k%8)*1.2, float64(k/8)*1.2+10*float64(i/chainAuthored)))
	}
	return w, nil
}

// prepare generates the step's poses and lets the twin take the step first.
// The twin is the benchmark's oracle, not the system under test, so its cost
// stays outside the timed region.
func (w *tcpWorkload) prepare(int) {
	w.inputs = w.inputs[:0]
	if !w.quiet {
		w.author()
	}
	if err := w.twin.advance(w.inputs); err != nil && w.err == nil {
		w.err = err
	}
}

func (w *tcpWorkload) author() {
	start := w.tcp.sim.Now()
	n := len(w.scripts)
	for i, script := range w.scripts {
		at := captureInstant(w.rng, start, chainTick, i, w.stepNo, n)
		p := script.PoseAt(at)
		id := protocol.ParticipantID(i + 1)
		e := protocol.EntityState{
			Participant: id, CapturedAt: at,
			Pose:   protocol.QuantizePose(p.Position, p.Rotation),
			VelMMS: velMMS(p),
			Seat:   uint16(i % chainAuthored),
		}
		if i < chainAuthored {
			e.Home = 1
		}
		if w.sessions[id] == nil {
			w.sessions[id] = w.col.newSession(id, at)
		}
		w.inputs = append(w.inputs, e)
	}
	w.stepNo++
}

// step advances the TCP chain by the same inputs and blocks until the step's
// traffic has landed.
func (w *tcpWorkload) step(int) error {
	if w.err != nil {
		return w.err
	}
	if err := w.tcp.advance(w.inputs); err != nil {
		return err
	}
	return w.settle()
}

// settle pumps every endpoint until it has received what its twin received.
// Replication frames first: they were all flushed by the ticks, so blocking
// for them cannot wait on another node's pump. Then the rest (acks), which
// the first pass produced and flushed.
func (w *tcpWorkload) settle() error {
	for pass := 0; pass < 2; pass++ {
		for i, ep := range w.eps {
			have, want := &w.tcp.taps[i].syncRecv, w.twin.taps[i].syncRecv
			if pass == 1 {
				have, want = &w.tcp.taps[i].otherRecv, w.twin.taps[i].otherRecv
			}
			for *have < want {
				w.col.tr.begin(spanSettle, w.tcp.taps[i].node)
				n := ep.PumpWait(w.timeout)
				w.col.tr.end()
				if n == 0 {
					return fmt.Errorf("bench: %s received %d of %d frames (pass %d) within %v", chainAddrs[i], *have, want, pass, w.timeout)
				}
			}
			if *have > want {
				return fmt.Errorf("bench: %s received %d frames, its twin %d (pass %d)", chainAddrs[i], *have, want, pass)
			}
		}
	}
	return nil
}

func (w *tcpWorkload) finish() error {
	w.quiet = true
	for i := 0; i < 60; i++ {
		w.prepare(0)
		if err := w.step(0); err != nil {
			return err
		}
		w.col.endStep()
	}
	c := w.tcp
	report := func(eid protocol.ParticipantID) *session {
		if s := w.sessions[eid]; s != nil {
			return s
		}
		return w.col.newSession(eid, 0) // a ghost: fails as its own operation
	}
	edgeAuthored := func(eid protocol.ParticipantID) bool { e, _ := c.cloud.World().Get(eid); return e.Home != 0 }
	cloudAuthored := func(eid protocol.ParticipantID) bool { return !edgeAuthored(eid) }
	all := func(protocol.ParticipantID) bool { return true }
	audit(c.edge.LocalStore(), c.replicaOf(chainCloud, chainAddrs[chainEdge]), all, report)
	audit(c.cloud.World(), c.replicaOf(chainRelay, chainAddrs[chainCloud]), all, report)
	audit(c.cloud.World(), c.replicaOf(chainEdge, chainAddrs[chainCloud]), cloudAuthored, report)
	if a, b := w.twin.fingerprint(), c.fingerprint(); a != b {
		w.issues = append(w.issues, "TCP registries differ from the netsim twin's:\n--- twin\n"+a+"--- tcp\n"+b)
	}
	return nil
}

func (w *tcpWorkload) close() error {
	w.tcp.stop()
	w.twin.stop()
	var first error
	for _, ep := range w.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	w.net.Close()
	w.col.endStep()
	return first
}

func (w *tcpWorkload) problems() []string { return w.issues }

func (w *tcpWorkload) probes() probes {
	return probes{runtimes: w.tcp.rts[:], world: w.tcp.rts[chainCloud]}
}

func (w *tcpWorkload) counts() (st core.ReplicaStats, joins, leaves uint64) {
	for _, r := range []struct {
		n    int
		peer endpoint.Addr
	}{{chainCloud, chainAddrs[chainEdge]}, {chainRelay, chainAddrs[chainCloud]}, {chainEdge, chainAddrs[chainCloud]}} {
		p, _ := w.tcp.rts[r.n].SyncPeer(r.peer)
		addStats(&st, p.Replica.Stats())
	}
	return st, uint64(len(w.sessions)), 0
}
