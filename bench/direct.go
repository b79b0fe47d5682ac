package bench

import (
	"math/rand"
	"strconv"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/node"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// venue256 is cloud.Server alone on an in-memory transport: no netsim, no
// client.VR. The server tick (ingest → interest → plan → encode → send) is
// about all of the work and the receive path none of it, so planner,
// interest and FrameCache changes show here and client-side changes must
// not; step_ms_mean is one cloud core's cost per tick at 256 avatars.
var venue256 = spec{name: "venue256_direct", stepsPerSecond: 105, warmup: 160, refEvery: 2, build: buildVenue}

// sinkTransport is the in-memory endpoint.Transport under the cloud's tap.
// A sent frame's reference is handed to the collector as a capture addressed
// to the learner it was sent to, so the frames of a step are counted,
// decoded and released after the timed region.
type sinkTransport struct {
	w    *directWorkload
	recv endpoint.FrameReceiver
}

func (s *sinkTransport) LocalAddr() endpoint.Addr { return "cloud" }
func (s *sinkTransport) Close() error             { return nil }

func (s *sinkTransport) Bind(r endpoint.Receiver) error {
	s.recv = r.(endpoint.FrameReceiver)
	return nil
}

func (s *sinkTransport) SendFrame(to endpoint.Addr, f *protocol.Frame) error {
	l, ok := s.w.byAddr[to]
	if !ok {
		f.Release()
		return netsim.ErrUnknownHost
	}
	c := s.w.col
	c.captured = append(c.captured, capture{f: f, now: c.now(), rs: l.rs})
	return nil
}

// directLearner is one synthetic learner: a script that feeds poses in, and
// a shadow store that applies what the server sends so the learner can ack
// exact ticks and be audited like a replica.
type directLearner struct {
	id     protocol.ParticipantID
	addr   endpoint.Addr
	script trace.MotionScript
	sess   *session // nil for the performer, which is not replicated to
	rs     *receiverState
	shadow *core.Store
	joined bool
	// acks holds the ticks applied one and two steps ago; the older one is
	// acknowledged each step, so acks lag the sends by two ticks.
	acks [2]uint64
	seq  uint32
}

type directWorkload struct {
	col      *collector
	rng      *rand.Rand
	sim      *vclock.Sim
	tick     time.Duration
	cloud    *cloud.Server
	policy   *interest.Policy
	sink     *sinkTransport
	learners []*directLearner
	byAddr   map[endpoint.Addr]*directLearner
	inputs   []directInput
	quiet    bool // sources stopped: acks only
	stepNo   int
	joins    uint64
	err      error
}

type directInput struct {
	from endpoint.Addr
	f    *protocol.Frame
}

func buildVenue(col *collector, rng *rand.Rand) (workload, error) {
	const rows, cols, pitch = 16, 16, 3.2
	w := &directWorkload{
		col: col, rng: rng, sim: vclock.New(rng.Int63()), tick: time.Second / 20,
		policy: interest.NewPolicy(), byAddr: make(map[endpoint.Addr]*directLearner),
	}
	col.now = w.sim.Now
	w.sink = &sinkTransport{w: w}
	// One spare row so the performer's seat displaces no learner.
	cl, err := cloud.New(w.sim, col.wrap(w.sink, false, true, nil), cloud.Config{
		TickHz: 20, VRRows: rows + 1, VRCols: cols, VRPitch: pitch, Interest: w.policy,
	})
	if err != nil {
		return nil, err
	}
	w.cloud = cl
	performer := &directLearner{
		id: rows*cols + 1, addr: "stage", joined: true,
		script: trace.Lecturer{Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0), PeriodS: 20 + 3*rng.Float64()},
	}
	if err := cl.RegisterRelayClient(performer.id, performer.addr); err != nil {
		return nil, err
	}
	cl.PinFocus(performer.id)
	w.learners = append(w.learners, performer)
	for i, at := range evenly(rng, rows*cols, 10*w.tick) {
		l := &directLearner{
			id:     protocol.ParticipantID(i + 1),
			addr:   endpoint.Addr("vr-" + strconv.Itoa(i+1)),
			script: seatedAt(rng, float64(i%cols)*pitch, float64(i/cols)*pitch),
			rs:     newReceiverState(),
			shadow: core.NewStore(),
		}
		l.rs.onMsg = l.apply
		w.learners = append(w.learners, l)
		w.byAddr[l.addr] = l
		w.sim.At(at, func() {
			if err := cl.AddClient(l.id, l.addr); err != nil && w.err == nil {
				w.err = err
			}
			l.sess = col.newSession(l.id, w.sim.Now())
			l.rs.sess = l.sess
			l.joined = true
			w.joins++
		})
	}
	return w, cl.Start()
}

// apply mirrors what a replica's store does with a replication message and
// remembers the tick to acknowledge.
func (l *directLearner) apply(msg protocol.Message) {
	switch m := msg.(type) {
	case *protocol.Snapshot:
		l.shadow.ApplySnapshot(m)
		l.acks[1] = m.Tick
	case *protocol.Delta:
		if l.shadow.ApplyDelta(m) {
			l.acks[1] = l.shadow.Tick()
		}
	}
}

// prepare encodes the step's inputs: every joined learner's pose, captured at
// a random instant inside the step, and the ack of the tick it applied two
// steps ago.
func (w *directWorkload) prepare(int) {
	w.releaseInputs()
	start := w.sim.Now()
	n := len(w.learners)
	w.stepNo++
	for i, l := range w.learners {
		if !l.joined {
			continue
		}
		if !w.quiet {
			at := captureInstant(w.rng, start, w.tick, i, w.stepNo, n)
			p := l.script.PoseAt(at)
			l.seq++
			w.encode(l.addr, &protocol.PoseUpdate{
				Participant: l.id, Seq: l.seq, CapturedAt: at,
				Pose:   protocol.QuantizePose(p.Position, p.Rotation),
				VelMMS: velMMS(p),
			})
		}
		if l.shadow != nil {
			if l.acks[0] != 0 {
				w.encode(l.addr, &protocol.Ack{Participant: l.id, Tick: l.acks[0]})
			}
			l.acks[0], l.acks[1] = l.acks[1], 0
		}
	}
}

func (w *directWorkload) encode(from endpoint.Addr, msg protocol.Message) {
	f, err := protocol.EncodeFrame(msg)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.inputs = append(w.inputs, directInput{from: from, f: f})
}

func (w *directWorkload) releaseInputs() {
	for i, in := range w.inputs {
		in.f.Release()
		w.inputs[i] = directInput{}
	}
	w.inputs = w.inputs[:0]
}

// step hands the bound Receiver the prepared frames and runs the tick.
func (w *directWorkload) step(int) error {
	for _, in := range w.inputs {
		w.sink.recv.ReceiveFrame(in.from, in.f)
	}
	if err := w.sim.Run(w.sim.Now() + w.tick); err != nil {
		return err
	}
	return w.err
}

func (w *directWorkload) finish() error {
	w.quiet = true
	for end := w.sim.Now() + quiesceFor; w.sim.Now() < end; {
		w.prepare(0)
		if err := w.step(0); err != nil {
			return err
		}
		w.col.endStep()
	}
	rt := w.cloud.Runtime()
	for _, l := range w.learners {
		if l.sess != nil {
			audit(rt.Store(), l.shadow, func(eid protocol.ParticipantID) bool {
				return eid != l.id && !culled(rt, w.policy, l.id, eid)
			}, func(protocol.ParticipantID) *session { return l.sess })
		}
	}
	return nil
}

func (w *directWorkload) close() error {
	w.releaseInputs()
	w.cloud.Stop()
	w.col.endStep()
	return nil
}

func (w *directWorkload) problems() []string { return nil }

func (w *directWorkload) probes() probes {
	rt := w.cloud.Runtime()
	return probes{runtimes: []*node.Runtime{rt}, world: rt, policy: w.policy}
}

// counts reports no apply counters: the learners are shadow stores, not
// replicas.
func (w *directWorkload) counts() (core.ReplicaStats, uint64, uint64) {
	return core.ReplicaStats{}, w.joins, 0
}
