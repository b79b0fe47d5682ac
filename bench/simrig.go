package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"metaclass/internal/avatar"
	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/core"
	"metaclass/internal/edge"
	"metaclass/internal/endpoint"
	"metaclass/internal/expression"
	"metaclass/internal/interest"
	"metaclass/internal/netsim"
	"metaclass/internal/node"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/sensors"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// simRig is a classroom deployment on the virtual clock over netsim, wired
// exactly as classroom.Deployment wires one (same constructors, same link
// and registration order) but with every node's transport passed through the
// collector's tap. classroom itself offers no seam for that — its nodes take
// d.net.Endpoint(addr) directly and client.VR exposes no dispatcher — so the
// composition is repeated here from the public functions of internal/*.
type simRig struct {
	col    *collector
	sim    *vclock.Sim
	net    *netsim.Network
	policy *interest.Policy
	tickHz float64

	cloud    *cloud.Server
	relays   []*cloud.Relay
	campuses []*campus
	learners map[protocol.ParticipantID]*learner
	nextID   protocol.ParticipantID
	// gone sums the apply counters of learners that have left, so totals
	// stay monotonic under churn.
	gone          core.ReplicaStats
	joins, leaves uint64
}

// learner is one remote VR session.
type learner struct {
	sess  *session
	vr    *client.VR
	relay *cloud.Relay // nil: served by the cloud
}

// campus is one physical classroom: an edge server fed by the real sensors →
// fusion path.
type campus struct {
	id       protocol.ClassroomID
	edge     *edge.Server
	array    *sensors.Array
	headsets []*sensors.Headset
}

func newSimRig(col *collector, simSeed int64, cfg cloud.Config) (*simRig, error) {
	r := &simRig{
		col: col, sim: vclock.New(simSeed), tickHz: cfg.TickHz,
		policy:   cfg.Interest,
		learners: make(map[protocol.ParticipantID]*learner),
		nextID:   1,
	}
	r.net = netsim.New(r.sim)
	col.now = r.sim.Now
	cl, err := cloud.New(r.sim, col.wrap(r.net.Endpoint("cloud"), false, true, nil), cfg)
	if err != nil {
		return nil, err
	}
	r.cloud = cl
	return r, cl.Start()
}

func (r *simRig) tick() time.Duration {
	return time.Duration(float64(time.Second) / r.tickHz)
}

// addRelay mirrors classroom.Deployment.AddRelay.
func (r *simRig) addRelay(name string, link netsim.LinkConfig) (*cloud.Relay, error) {
	addr := netsim.Addr("relay-" + name)
	rl, err := cloud.NewRelay(r.sim, r.col.wrap(r.net.Endpoint(addr), false, true, nil), cloud.RelayConfig{
		Upstream: r.cloud.Addr(), TickHz: r.tickHz, Interest: r.policy,
	})
	if err != nil {
		return nil, err
	}
	if err := r.net.ConnectBoth(addr, netsim.Addr(r.cloud.Addr()), link); err != nil {
		return nil, err
	}
	if err := r.cloud.AddRelay(endpoint.Addr(addr)); err != nil {
		return nil, err
	}
	r.relays = append(r.relays, rl)
	return rl, rl.Start()
}

// addLearner mirrors classroom.Deployment.addRemote for a mid-session join:
// the learner goes live at once. relay is nil for a learner the cloud serves.
func (r *simRig) addLearner(script trace.MotionScript, link netsim.LinkConfig, relay *cloud.Relay) (*learner, error) {
	id := r.nextID
	r.nextID++
	server := r.cloud.Addr()
	if relay != nil {
		server = relay.Addr()
	}
	addr := netsim.Addr("vr-" + strconv.FormatUint(uint64(id), 10))
	rs := newReceiverState()
	rs.sess = r.col.newSession(id, r.sim.Now())
	v, err := client.NewVR(r.sim, r.col.wrap(r.net.Endpoint(addr), true, false, rs), client.VRConfig{
		Participant: id, Server: server, Script: script,
	})
	if err != nil {
		return nil, err
	}
	if err := r.net.ConnectBoth(addr, netsim.Addr(server), link); err != nil {
		return nil, err
	}
	if relay == nil {
		err = r.cloud.AddClient(id, endpoint.Addr(addr))
	} else if err = r.cloud.RegisterRelayClient(id, server); err == nil {
		err = relay.AddClient(id, endpoint.Addr(addr))
	}
	if err != nil {
		return nil, err
	}
	l := &learner{sess: rs.sess, vr: v, relay: relay}
	r.learners[id] = l
	r.joins++
	return l, v.Start()
}

// removeLearner mirrors classroom.Deployment.RemoveRemoteLearner.
func (r *simRig) removeLearner(id protocol.ParticipantID) error {
	l, ok := r.learners[id]
	if !ok {
		return fmt.Errorf("bench: unknown learner %d", id)
	}
	delete(r.learners, id)
	r.leaves++
	addStats(&r.gone, l.vr.ReplicaStats())
	l.vr.Stop()
	if l.relay != nil {
		if err := l.relay.RemoveClient(id); err != nil {
			return err
		}
	}
	if err := r.cloud.RemoveClient(id); err != nil {
		return err
	}
	return r.net.RemoveHost(netsim.Addr(l.vr.Addr()))
}

// addCampus mirrors classroom.Deployment.AddCampus (and ConnectCampuses with
// every campus already present).
func (r *simRig) addCampus(name string, id protocol.ClassroomID) (*campus, error) {
	addr := netsim.Addr("edge-" + name)
	es, err := edge.New(r.sim, r.col.wrap(r.net.Endpoint(addr), false, true, nil), edge.Config{
		Classroom: id, TickHz: r.tickHz, Interest: r.policy,
	})
	if err != nil {
		return nil, err
	}
	if err := r.net.ConnectBoth(addr, netsim.Addr(r.cloud.Addr()), netsim.EdgeToCloud()); err != nil {
		return nil, err
	}
	if err := es.ConnectPeer(r.cloud.Addr()); err != nil {
		return nil, err
	}
	if err := r.cloud.ConnectEdge(endpoint.Addr(addr), id); err != nil {
		return nil, err
	}
	c := &campus{id: id, edge: es}
	c.array = sensors.NewArray(4, 12, 10, r.sim, sensors.RoomSensorConfig{}, func(o sensors.Observation) {
		// SensorID is "camN/<participant>".
		for i := len(o.SensorID) - 1; i >= 0; i-- {
			if o.SensorID[i] == '/' {
				if n, err := strconv.ParseUint(o.SensorID[i+1:], 10, 32); err == nil {
					_ = es.IngestObservation(protocol.ParticipantID(n), o)
				}
				return
			}
		}
	})
	for _, other := range r.campuses {
		if err := r.net.ConnectBoth(addr, netsim.Addr(other.edge.Addr()), netsim.InterCampus()); err != nil {
			return nil, err
		}
		if err := es.ConnectPeer(other.edge.Addr()); err != nil {
			return nil, err
		}
		if err := other.edge.ConnectPeer(es.Addr()); err != nil {
			return nil, err
		}
	}
	r.campuses = append(r.campuses, c)
	if err := es.Start(); err != nil {
		return nil, err
	}
	c.array.Start()
	return c, nil
}

// addLocal mirrors classroom.Campus.addLocal: a physically present
// participant sensed by a headset and the room array. An educator is pinned
// as every receiver's focus.
func (r *simRig) addLocal(c *campus, name string, role protocol.Role, script trace.MotionScript) error {
	id := r.nextID
	r.nextID++
	vacant := c.edge.Seats().VacantIndices()
	if len(vacant) == 0 {
		return fmt.Errorf("bench: campus %d is full", c.id)
	}
	if err := c.edge.RegisterLocal(avatar.Avatar{Participant: id, Name: name, Role: role, Preferred: avatar.LoDHigh}, vacant[0]); err != nil {
		return err
	}
	key := strconv.FormatUint(uint64(id), 10)
	hs := sensors.NewHeadset(key, r.sim, script, sensors.HeadsetConfig{RateHz: 60},
		func(o sensors.Observation) { _ = c.edge.IngestObservation(id, o) })
	hs.SetExpressionSource(
		func(time.Duration) expression.Expression { return expression.PresetNeutral.Make() },
		func(_ time.Duration, e expression.Expression) { _ = c.edge.IngestExpression(id, e) },
	)
	c.headsets = append(c.headsets, hs)
	c.array.Track(key, script)
	hs.Start()
	if role == protocol.RoleEducator {
		r.cloud.PinFocus(id)
	}
	return nil
}

// servingRuntime returns the node whose world a learner's replica mirrors.
func (r *simRig) servingRuntime(l *learner) *node.Runtime {
	if l.relay != nil {
		return l.relay.Runtime()
	}
	return r.cloud.Runtime()
}

// quiesce ends the run so that replicas can be compared with their serving
// worlds: the sources stop, and the servers keep ticking until decimated
// tiers and owed debt have drained.
func (r *simRig) quiesce() error {
	for _, l := range r.learners {
		l.vr.Stop()
	}
	for _, c := range r.campuses {
		c.array.Stop()
		for _, hs := range c.headsets {
			hs.Stop()
		}
	}
	return r.run(quiesceFor)
}

// run advances virtual time and drains the collector as a step would.
func (r *simRig) run(d time.Duration) error {
	for end := r.sim.Now() + d; r.sim.Now() < end; {
		if err := r.sim.Run(r.sim.Now() + r.tick()); err != nil {
			return err
		}
		r.col.endStep()
	}
	return nil
}

// audit compares every live learner's replica with its serving world over
// the entities the server's interest policy does not cull for that learner.
func (r *simRig) audit() {
	for _, l := range r.learners {
		rt := r.servingRuntime(l)
		audit(rt.Store(), l.vr.ReplicaStore(), func(eid protocol.ParticipantID) bool {
			return eid != l.sess.id && !culled(rt, r.policy, l.sess.id, eid)
		}, func(protocol.ParticipantID) *session { return l.sess })
	}
}

// culled reports whether the serving node's interest policy never sends
// source to recv (both placed, beyond the cull radius, not pinned).
func culled(rt *node.Runtime, p *interest.Policy, recv, source protocol.ParticipantID) bool {
	if p == nil {
		return false
	}
	a, okA := rt.Grid().Position(recv)
	b, okB := rt.Grid().Position(source)
	if !okA || !okB {
		return false
	}
	dx, dz := a.X-b.X, a.Z-b.Z
	return p.ClassifySq(source, dx*dx+dz*dz) == interest.TierCulled
}

// close stops every node and drains the fabric so that no frame stays held.
func (r *simRig) close() error {
	for _, c := range r.campuses {
		c.edge.Stop()
		c.array.Stop()
		for _, hs := range c.headsets {
			hs.Stop()
		}
	}
	for _, rl := range r.relays {
		rl.Stop()
	}
	for _, l := range r.learners {
		l.vr.Stop()
	}
	r.cloud.Stop()
	r.net.Close()
	r.col.endStep()
	return nil
}

// runtimes lists every serving node.
func (r *simRig) runtimes() []*node.Runtime {
	out := []*node.Runtime{r.cloud.Runtime()}
	for _, rl := range r.relays {
		out = append(out, rl.Runtime())
	}
	for _, c := range r.campuses {
		out = append(out, c.edge.Runtime())
	}
	return out
}

// addStats adds the apply counters the layer run reports.
func addStats(sum *core.ReplicaStats, st core.ReplicaStats) {
	sum.Applied += st.Applied
	sum.Rejected += st.Rejected
	sum.BufferCreates += st.BufferCreates
}

// velMMS converts a velocity to the wire's millimetres per second.
func velMMS(p pose.Pose) [3]int64 {
	return [3]int64{int64(p.Velocity.X * 1000), int64(p.Velocity.Y * 1000), int64(p.Velocity.Z * 1000)}
}

// captureInstant spreads the capture instants of a step's n sources evenly
// over the step — source i takes a different slice each step — and nudges
// each by the seed inside its slice, so age percentiles converge as 1/n.
func captureInstant(rng *rand.Rand, start, tick time.Duration, i, step, n int) time.Duration {
	slot := (i*97 + step*31) % n
	return start + time.Duration((float64(slot)+rng.Float64())/float64(n)*float64(tick))
}
