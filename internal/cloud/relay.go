package cloud

import (
	"fmt"

	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/metrics"
	"metaclass/internal/node"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// RelayConfig parameterizes a regional fan-out server (the paper's "regional
// servers" remedy): it mirrors the cloud's world state once per region and
// serves nearby clients locally, so a lecture crosses the Pacific once
// instead of per-client. Client pose updates are forwarded upstream
// unchanged — zero-copy: the received frame itself is retained and pushed
// on.
type RelayConfig struct {
	// Upstream is the cloud server's endpoint address.
	Upstream endpoint.Addr
	// TickHz is the local fan-out rate (default 30).
	TickHz float64
	// Interest is the local fan-out policy (nil = broadcast).
	Interest *interest.Policy
}

// Relay mirrors the cloud world for one region: the forward-upstream policy
// over the shared node runtime.
type Relay struct {
	cfg RelayConfig
	rt  *node.Runtime

	mForwardedUp *metrics.Counter
}

// NewRelay creates a relay on the given transport endpoint.
func NewRelay(sim *vclock.Sim, tr endpoint.Transport, cfg RelayConfig) (*Relay, error) {
	rt, err := node.New(sim, tr, node.Config{
		TickHz:   cfg.TickHz,
		Interest: cfg.Interest,
	})
	if err != nil {
		return nil, err
	}
	r := &Relay{cfg: cfg, rt: rt}
	r.mForwardedUp = rt.Metrics().Counter("forwarded.up")
	// Replication is mirrored only from upstream; the runtime resolves sync
	// traffic through its peer table, so anything from another source falls
	// through to the forward fallback with the rest. Stray upstream acks are
	// unhandled, not unknown (the cloud is not a local replication client) —
	// the runtime's shared ack policy handles that because the upstream is a
	// sync peer without a replicator registration.
	if _, err := rt.ConnectReplica(cfg.Upstream, "upstream.pose.age", false); err != nil {
		return nil, err
	}
	// From a client: acks terminate in the runtime and pings are auto-ponged
	// (RTT probes are answered whoever asks); everything else
	// (pose streams) forwards upstream unchanged. Stray non-ping
	// traffic from upstream is counted, never echoed back.
	ep := rt.Dispatcher()
	ep.OnFallback(func(from endpoint.Addr, payload []byte, _ protocol.Message) {
		if from == r.cfg.Upstream {
			ep.CountUnhandled()
			return
		}
		r.mForwardedUp.Inc()
		// The payload is borrowed for the duration of this callback, but the
		// frame behind it is retainable: Forward retains and sends the exact
		// frame upstream, copying nothing.
		_ = ep.Forward(r.cfg.Upstream, payload)
	})
	return r, nil
}

// Addr returns the relay's endpoint address.
func (r *Relay) Addr() endpoint.Addr { return r.rt.Addr() }

// Metrics exposes the relay's registry.
func (r *Relay) Metrics() *metrics.Registry { return r.rt.Metrics() }

// Runtime exposes the shared node runtime (tests and experiments).
func (r *Relay) Runtime() *node.Runtime { return r.rt }

// AddClient registers a client served by this relay, interest-gated by the
// runtime's shared set-based filter.
func (r *Relay) AddClient(id protocol.ParticipantID, addr endpoint.Addr) error {
	return r.rt.AddClient(id, addr)
}

// RemoveClient drops a locally-served client: its replication peer (and
// scratch) and interest state are torn down by the runtime; the mirrored
// world entry, grid entry included, expires via the cloud's own removal.
func (r *Relay) RemoveClient(id protocol.ParticipantID) error {
	if _, err := r.rt.RemoveClient(id); err != nil {
		return fmt.Errorf("cloud: relay: %w", err)
	}
	return nil
}

// Start begins the local fan-out loop.
func (r *Relay) Start() error {
	if err := r.rt.Start(r.ingestUpstream); err != nil {
		return fmt.Errorf("cloud: relay %w", err)
	}
	return nil
}

// Stop halts the loop.
func (r *Relay) Stop() { r.rt.Stop() }

// ingestUpstream mirrors the upstream replica into the local store and
// propagates upstream removals (nothing is authored locally, so every
// absent entity is gone).
func (r *Relay) ingestUpstream() { r.rt.MirrorPeers(nil) }

// ClientCount returns the number of clients served locally.
func (r *Relay) ClientCount() int { return r.rt.ClientCount() }
