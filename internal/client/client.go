// Package client implements the simulated end-user devices of the paper's
// architecture: the remote VR learner (Fig. 2's "Digital Metaverse
// Classroom Online in VR") who publishes their own pose stream and renders
// the replicated classroom, and the measurement harness for perceived lag
// and interaction error that experiment E3 sweeps against the paper's
// 100 ms latency threshold.
package client

import (
	"errors"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// pingEvery is the interval of a VR client's RTT probes.
const pingEvery = 2 * time.Second

// VRConfig parameterizes a remote VR client.
type VRConfig struct {
	// Participant is the learner's ID.
	Participant protocol.ParticipantID
	// Server is where pose updates go and replication comes from (the
	// cloud, or a regional relay).
	Server endpoint.Addr
	// PublishHz is the own-pose upload rate (default 20).
	PublishHz float64
	// Script drives the user's own motion (default Seated at origin).
	Script trace.MotionScript
}

func (c *VRConfig) applyDefaults() {
	if c.PublishHz <= 0 {
		c.PublishHz = 20
	}
	if c.Script == nil {
		c.Script = trace.Seated{}
	}
}

// VR is a remote learner's client endpoint.
type VR struct {
	cfg     VRConfig
	period  time.Duration // of cfg.PublishHz
	pingGap time.Duration // pingEvery; a field so a test can turn probes off
	sim     *vclock.Sim
	addr    endpoint.Addr
	ep      *endpoint.Dispatcher
	replica *core.Replica
	reg     *metrics.Registry

	mPublish     *metrics.Counter
	mRecvUpdates *metrics.Counter
	hRTT         *metrics.Histogram

	pingScratch protocol.Ping
	poseScratch protocol.PoseUpdate
	seq         uint32
	nonce       uint64
	cancel      func()
	cancelPing  func()

	// firstSync is the virtual time of the first applied replication update
	// — the end of the onboarding ramp the E11 churn experiment measures.
	firstSync   time.Duration
	firstSynced bool
}

// NewVR creates a client on the given transport endpoint.
func NewVR(sim *vclock.Sim, tr endpoint.Transport, cfg VRConfig) (*VR, error) {
	cfg.applyDefaults()
	if cfg.Participant == 0 {
		return nil, errors.New("client: participant ID must be nonzero")
	}
	period, ok := vclock.Period(cfg.PublishHz)
	if !ok {
		return nil, errors.New("client: publish rate has no positive period")
	}
	v := &VR{
		cfg:     cfg,
		period:  period,
		pingGap: pingEvery,
		sim:     sim,
		addr:    tr.LocalAddr(),
		replica: core.NewReplica(core.PlayoutDelay, pose.Linear{}),
		reg:     metrics.NewRegistry(string(tr.LocalAddr())),
	}
	v.replica.Latency = v.reg.Histogram("pose.age")
	// The cloud/relay filters this client's snapshots by interest: an entity
	// omitted from a snapshot is out of tier, not departed, so its playout
	// buffer keeps extrapolating instead of churning.
	v.replica.RetainOmitted = true
	v.mPublish = v.reg.Counter("publish.poses")
	v.mRecvUpdates = v.reg.Counter("recv.updates")
	v.hRTT = v.reg.Histogram("rtt")
	ep, err := endpoint.NewDispatcher(tr, v.reg, endpoint.Config{
		Now: sim.Now,
		// Auto-acks carry the learner's ID so servers can attribute them.
		AckParticipant: cfg.Participant,
	})
	if err != nil {
		return nil, err
	}
	ep.OnSync(
		func(endpoint.Addr) *core.Replica { return v.replica },
		func(endpoint.Addr, uint64) {
			v.mRecvUpdates.Inc()
			if !v.firstSynced {
				v.firstSynced = true
				v.firstSync = v.sim.Now()
			}
		},
	)
	ep.OnPong(func(_ endpoint.Addr, m *protocol.Pong) {
		v.hRTT.Observe(v.sim.Now() - m.SentAt)
	})
	// The server answers a join with a HelloAck, which needs no reply; any
	// other message no hook claims counts recv.unhandled.
	ep.OnFallback(func(from endpoint.Addr, _ []byte, msg protocol.Message) {
		if _, ok := msg.(*protocol.HelloAck); !ok || from != v.cfg.Server {
			ep.CountUnhandled()
		}
	})
	v.ep = ep
	return v, nil
}

// Addr returns the client's endpoint address.
func (v *VR) Addr() endpoint.Addr { return v.addr }

// Retarget repoints the client at a new server mid-session — the client
// half of a relay handoff. Publishes, pings, and (via the dispatcher's
// reply-to-sender auto-acks) replication acks all follow the new address
// from the next event on; the replica and its playout buffers carry over
// untouched, so remote avatars keep interpolating across the cut.
func (v *VR) Retarget(server endpoint.Addr) { v.cfg.Server = server }

// Metrics exposes the client's registry. The "pose.age" histogram is the
// capture-to-apply staleness of remote entities — the quantity the paper's
// 100 ms budget constrains.
func (v *VR) Metrics() *metrics.Registry { return v.reg }

// Start begins publishing the client's own pose.
func (v *VR) Start() error {
	if v.cancel != nil {
		return errors.New("client: already started")
	}
	v.cancel = v.sim.Ticker(v.period, v.publish)
	if v.pingGap > 0 {
		v.cancelPing = v.sim.Ticker(v.pingGap, v.ping)
	}
	return nil
}

func (v *VR) ping() {
	v.nonce++
	v.pingScratch = protocol.Ping{Nonce: v.nonce, SentAt: v.sim.Now()}
	_ = v.ep.Send(v.cfg.Server, &v.pingScratch)
}

// Stop halts publishing.
func (v *VR) Stop() {
	if v.cancel != nil {
		v.cancel()
		v.cancel = nil
	}
	if v.cancelPing != nil {
		v.cancelPing()
		v.cancelPing = nil
	}
}

func (v *VR) publish() {
	now := v.sim.Now()
	v.seq++
	v.poseScratch = protocol.PoseUpdate{Participant: v.cfg.Participant, Seq: v.seq, CapturedAt: now}
	v.poseScratch.Pose, v.poseScratch.VelMMS = protocol.Sample(v.cfg.Script.PoseAt(now))
	// publish.poses counts poses the client produced (encode succeeded),
	// whether or not the transport could carry them — a client on a dead
	// link is still publishing, and E1's per-client rate derives from this.
	if err := v.ep.Send(v.cfg.Server, &v.poseScratch); err == nil || !errors.Is(err, protocol.ErrTooLarge) {
		v.mPublish.Inc()
	}
}

// DisplayedPose returns how the client's display renders participant id at
// display time at — a live display time (the client's now): history reaches
// only as far back as such a read does (core.Replica.Pose), and an earlier at
// is answered with the oldest pose still held.
func (v *VR) DisplayedPose(id protocol.ParticipantID, at time.Duration) (pose.Pose, bool) {
	return v.replica.Pose(id, at)
}

// VisibleParticipants lists entities the client currently replicates.
func (v *VR) VisibleParticipants() []protocol.ParticipantID {
	return v.replica.Participants()
}

// ReplicaStats exposes the client's replication apply/buffer-churn counters.
func (v *VR) ReplicaStats() core.ReplicaStats { return v.replica.Stats() }

// ReplicaStore exposes the replicated entity table — convergence gates
// compare it entity-by-entity against the serving world after quiescing.
func (v *VR) ReplicaStore() *core.Store { return v.replica.Store() }

// FirstSyncAt returns the virtual time the client applied its first
// replication update (false before that). Join-to-FirstSyncAt is the
// onboarding latency the churn experiment reports.
func (v *VR) FirstSyncAt() (time.Duration, bool) { return v.firstSync, v.firstSynced }

// OwnPose returns the client's locally-predicted own pose — rendered with
// zero latency, which is why clients exclude themselves from replication.
func (v *VR) OwnPose(at time.Duration) pose.Pose {
	return v.cfg.Script.PoseAt(at)
}
