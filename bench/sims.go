package bench

import (
	"math"
	"math/rand"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
)

// lecture100 is the paper's remote-VR lecture: the full stack on the virtual
// clock. By profile the client receive path (protocol.Decoder,
// core.Replica.Apply, pose.InterpBuffer) does most of the work, netsim and
// vclock come next, and the server tick is about a quarter; the relay's
// zero-copy Dispatcher.Forward runs nowhere else.
var lecture100 = spec{name: "lecture100_sim", stepsPerSecond: 170, warmup: 300, refEvery: 3, build: buildLecture}

// churn48 is the E11 shape: the same layers as the lecture used differently —
// snapshots instead of deltas, AddPeer/RemovePeer and InterpPool recycling,
// netsim.RemoveHost cancellation, cold-join apply — so a steady-state delta
// win that taxes keyframes or onboarding shows here. It is the only workload
// with thousands of joins and the only one through edge, fusion and sensors.
var churn48 = spec{name: "churn48_sim", stepsPerSecond: 260, warmup: 450, refEvery: 5, build: buildChurn}

const (
	// stormEvery and stormSize shape the churn: every stormEvery steps
	// stormSize learners join and the storm from two events earlier leaves.
	stormEvery = 15
	stormSize  = 8
)

// simWorkload drives a simRig one server tick per step.
type simWorkload struct {
	rig *simRig
	rng *rand.Rand
	err error // first failure inside a scheduled join or leave

	// churn state (unused by the lecture)
	storming bool
	lossy    netsim.LinkConfig
	storms   [][]protocol.ParticipantID
}

// evenly returns n instants spread evenly over span, each nudged by the seed
// inside the middle tenth of its slice. Join and leave instants are part of a
// workload's shape, not of its seed: the seed varies what varies in a real
// class — motion, and the links' jitter and loss — so the virtual-time
// metrics differ between seeds only by those draws and by the nudge, which
// keeps them from being bit-identical where nothing else is random.
func evenly(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + 0.45 + 0.1*rng.Float64()) / float64(n) * float64(span))
	}
	return out
}

func seatedAt(rng *rand.Rand, x, z float64) trace.Seated {
	return trace.Seated{Anchor: mathx.V3(x, 0, z), Phase: rng.Float64() * 2 * math.Pi}
}

func buildLecture(col *collector, rng *rand.Rand) (workload, error) {
	rig, err := newSimRig(col, rng.Int63(), cloud.Config{TickHz: 30, Interest: interest.NewPolicy()})
	if err != nil {
		return nil, err
	}
	relay, err := rig.addRelay("east", netsim.LinkConfig{
		Latency: 40 * time.Millisecond, Jitter: 2 * time.Millisecond, LossRate: 0.0005, Bandwidth: 10e9,
	})
	if err != nil {
		return nil, err
	}
	w := &simWorkload{rig: rig, rng: rng}
	// 25×4 seats at 1.2 m; the back row attaches through the relay. Learners
	// arrive over the first ten ticks.
	const cols, n = 25, 100
	link := netsim.ResidentialBroadband(25 * time.Millisecond)
	for i, at := range evenly(rng, n, 10*rig.tick()) {
		script := seatedAt(rng, float64(i%cols)*1.2, float64(i/cols)*1.2)
		via := relay
		if i/cols < 3 {
			via = nil
		}
		rig.sim.At(at, func() {
			if _, err := rig.addLearner(script, link, via); err != nil && w.err == nil {
				w.err = err
			}
		})
	}
	return w, nil
}

func buildChurn(col *collector, rng *rand.Rand) (workload, error) {
	rig, err := newSimRig(col, rng.Int63(), cloud.Config{TickHz: 30, Interest: interest.NewPolicy()})
	if err != nil {
		return nil, err
	}
	w := &simWorkload{rig: rig, rng: rng, storming: true, lossy: netsim.ResidentialBroadband(25 * time.Millisecond)}
	w.lossy.LossRate = 0.01
	for ci, name := range []string{"gz", "cwb"} {
		c, err := rig.addCampus(name, protocol.ClassroomID(ci+1))
		if err != nil {
			return nil, err
		}
		if err := rig.addLocal(c, "prof", protocol.RoleEducator, trace.Lecturer{
			Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0), PeriodS: 20 + 3*rng.Float64(),
		}); err != nil {
			return nil, err
		}
		for i := 0; i < 10; i++ {
			if err := rig.addLocal(c, "learner", protocol.RoleLearner, seatedAt(rng, float64(i%5)*1.2-2.4, 2+float64(i/5)*1.2)); err != nil {
				return nil, err
			}
		}
	}
	// 48 residents (12×4 at 1.2 m) arrive over the first ten ticks.
	for i, at := range evenly(rng, 48, 10*rig.tick()) {
		script := seatedAt(rng, float64(i%12)*1.2, float64(i/12)*1.2)
		rig.sim.At(at, func() { w.join(script) })
	}
	return w, nil
}

func (w *simWorkload) join(script trace.MotionScript) *learner {
	l, err := w.rig.addLearner(script, w.lossy, nil)
	if err != nil && w.err == nil {
		w.err = err
	}
	return l
}

// prepare schedules the step's churn at instants inside the step, so joins
// and leaves land between server ticks as they would in a live class.
func (w *simWorkload) prepare(i int) {
	if !w.storming || i == 0 || i%stormEvery != 0 {
		return
	}
	rig := w.rig
	event := len(w.storms)
	w.storms = append(w.storms, make([]protocol.ParticipantID, 0, stormSize))
	for k, at := range evenly(w.rng, stormSize, rig.tick()) {
		script := seatedAt(w.rng, float64(k)*1.5+6, 8)
		rig.sim.At(rig.sim.Now()+at, func() {
			if l := w.join(script); l != nil {
				w.storms[event] = append(w.storms[event], l.sess.id)
			}
		})
	}
	if event >= 2 {
		leaving := w.storms[event-2]
		w.storms[event-2] = nil
		rig.sim.At(rig.sim.Now()+rig.tick()/2, func() {
			for _, id := range leaving {
				if err := rig.removeLearner(id); err != nil && w.err == nil {
					w.err = err
				}
			}
		})
	}
}

func (w *simWorkload) step(int) error {
	if err := w.rig.sim.Run(w.rig.sim.Now() + w.rig.tick()); err != nil {
		return err
	}
	return w.err
}

func (w *simWorkload) finish() error {
	if err := w.rig.quiesce(); err != nil {
		return err
	}
	w.rig.audit()
	return nil
}

func (w *simWorkload) close() error       { return w.rig.close() }
func (w *simWorkload) problems() []string { return nil }

func (w *simWorkload) probes() probes {
	return probes{runtimes: w.rig.runtimes(), world: w.rig.cloud.Runtime(), policy: w.rig.policy, net: w.rig.net}
}

func (w *simWorkload) counts() (core.ReplicaStats, uint64, uint64) {
	st := w.rig.gone
	for _, l := range w.rig.learners {
		addStats(&st, l.vr.ReplicaStats())
	}
	return st, w.rig.joins, w.rig.leaves
}
