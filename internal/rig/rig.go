// Package rig is the one place a deployment is stood up and torn down: on a
// Fabric it creates every node's endpoint, constructs the cloud, the campus
// edges, the regional relays and the client sessions of the paper's topology
// (Fig. 2/3), and runs their lifecycle — join, leave, session handoff, relay
// retire, Start and Stop. classroom.Deployment and geo.Deployment are policy
// over it and wire nothing themselves.
//
// Addresses are the caller's (peer tables iterate in address order, so a name
// is part of the output); every node is linked before it is registered, so
// no tick plans a frame for a route that does not exist yet; and a call that
// fails leaves nothing behind. PERFORMANCE.md "The deployment rig" has more.
package rig

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/edge"
	"metaclass/internal/endpoint"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

// Rig errors.
var (
	ErrUnknownSession = errors.New("rig: unknown session")
	ErrForeignRelay   = errors.New("rig: relay is not part of this deployment")
	ErrRelayInUse     = errors.New("rig: relay still serves sessions")
	ErrStarted        = errors.New("rig: already started")
)

// Config parameterizes a Rig.
type Config struct {
	// CloudAddr names the cloud's endpoint.
	CloudAddr endpoint.Addr
	// Cloud configures the cloud server. Its TickHz is also every edge's and
	// relay's, and its Interest every relay's (one policy instance, so pins
	// and tier radii agree wherever a client attaches).
	Cloud cloud.Config
	// PublishHz is each client's pose upload rate (0 = the client default).
	PublishHz float64
}

// Node is what Start and Stop walk: the rig's own servers and sessions, and
// whatever a caller attaches to an edge.
type Node interface {
	Start() error
	Stop()
}

// Rig is one deployment's nodes and their endpoints. Like the nodes it is
// single-threaded: call it between simulation events, never from a tick.
type Rig struct {
	sim *vclock.Sim
	fab Fabric
	cfg Config

	cloud *cloud.Server
	// edges holds each campus's edge and, behind it, what its owner attached.
	edges   map[protocol.ClassroomID][2]Node
	relays  map[endpoint.Addr]*cloud.Relay
	clients map[protocol.ParticipantID]*client.VR
	// via is each session's serving relay, nil for the cloud.
	via     map[protocol.ParticipantID]*cloud.Relay
	started bool
}

// New creates a rig with its cloud server up at cfg.CloudAddr.
func New(sim *vclock.Sim, fab Fabric, cfg Config) (*Rig, error) {
	tr, err := fab.Transport(cfg.CloudAddr)
	if err != nil {
		return nil, err
	}
	r := &Rig{
		sim:     sim,
		fab:     fab,
		cfg:     cfg,
		edges:   make(map[protocol.ClassroomID][2]Node),
		relays:  make(map[endpoint.Addr]*cloud.Relay),
		clients: make(map[protocol.ParticipantID]*client.VR),
		via:     make(map[protocol.ParticipantID]*cloud.Relay),
	}
	if r.cloud, err = cloud.New(sim, tr, cfg.Cloud); err != nil {
		return nil, r.abandon(cfg.CloudAddr, err)
	}
	return r, nil
}

// abandon is the failure path of every call that created an endpoint: addr —
// host or listener, links, whatever is queued toward it — goes back to the
// fabric, and cause is returned (it outranks what the cleanup could report).
func (r *Rig) abandon(addr endpoint.Addr, cause error) error {
	_ = r.fab.Remove(addr)
	return cause
}

// Cloud returns the cloud server.
func (r *Rig) Cloud() *cloud.Server { return r.cloud }

// Clients returns the live sessions by ID (the rig's own table: read only).
func (r *Rig) Clients() map[protocol.ParticipantID]*client.VR { return r.clients }

// Started reports whether the deployment is live.
func (r *Rig) Started() bool { return r.started }

// server is the address a session served by rel (nil = the cloud) talks to.
// A relay this rig did not create is refused: the cloud would record the
// session as routed through a server it does not replicate to.
func (r *Rig) server(rel *cloud.Relay) (endpoint.Addr, error) {
	if rel == nil {
		return r.cfg.CloudAddr, nil
	}
	if r.relays[rel.Addr()] != rel {
		return "", fmt.Errorf("%w: %s", ErrForeignRelay, rel.Addr())
	}
	return rel.Addr(), nil
}

// AddEdge stands up campus id's edge server at addr, linked to the cloud
// over link and replicating both ways. attached (a campus's sensors) starts
// right after the edge and stops with it. Edges cannot be added while live.
func (r *Rig) AddEdge(addr endpoint.Addr, id protocol.ClassroomID, link netsim.LinkConfig, attached Node) (*edge.Server, error) {
	if r.started {
		return nil, ErrStarted
	}
	if _, ok := r.edges[id]; ok {
		return nil, fmt.Errorf("rig: classroom %d already has an edge", id)
	}
	tr, err := r.fab.Transport(addr)
	if err != nil {
		return nil, err
	}
	es, err := edge.New(r.sim, tr, edge.Config{Classroom: id, TickHz: r.cfg.Cloud.TickHz})
	if err == nil {
		err = r.fab.Link(r.cfg.CloudAddr, addr, link)
	}
	if err == nil {
		err = es.ConnectPeer(r.cfg.CloudAddr)
	}
	if err == nil {
		err = r.cloud.ConnectEdge(addr, id)
	}
	if err != nil {
		return nil, r.abandon(addr, err)
	}
	r.edges[id] = [2]Node{es, attached}
	return es, nil
}

// ConnectEdges joins two edges over link so each replicates directly to the
// other (Fig. 3's inter-campus path).
func (r *Rig) ConnectEdges(a, b *edge.Server, link netsim.LinkConfig) error {
	if err := r.fab.Link(a.Addr(), b.Addr(), link); err != nil {
		return err
	}
	if err := a.ConnectPeer(b.Addr()); err != nil {
		return err
	}
	return b.ConnectPeer(a.Addr())
}

// AddRelay stands up a regional relay at addr, linked to the cloud over link
// and mirroring the full world. On a live deployment it starts at once.
func (r *Rig) AddRelay(addr endpoint.Addr, link netsim.LinkConfig) (*cloud.Relay, error) {
	tr, err := r.fab.Transport(addr)
	if err != nil {
		return nil, err
	}
	rel, err := cloud.NewRelay(r.sim, tr, cloud.RelayConfig{
		Upstream: r.cfg.CloudAddr,
		TickHz:   r.cfg.Cloud.TickHz,
		Interest: r.cfg.Cloud.Interest,
	})
	if err == nil {
		err = r.fab.Link(r.cfg.CloudAddr, addr, link)
	}
	if err == nil {
		err = r.cloud.AddRelay(addr)
	}
	if err != nil {
		return nil, r.abandon(addr, err)
	}
	r.relays[addr] = rel
	if r.started {
		if err := rel.Start(); err != nil {
			_ = r.RetireRelay(rel) // the full teardown is the undo; err is what failed
			return nil, err
		}
	}
	return rel, nil
}

// RetireRelay reclaims a relay whose sessions the caller has already handed
// off, and refuses nil, a foreign relay or one still serving a session
// before it changes anything: it stops ticking, the cloud drops its
// replication peer, the backbone link is cut (unlike a leaver's, its
// in-flight upstream is cancelled: those sessions already publish
// elsewhere) and the endpoint reclaimed — in that order, so no tick plans a
// frame for a route being torn down.
func (r *Rig) RetireRelay(rel *cloud.Relay) error {
	if rel == nil { // server(nil) is the cloud, which is not a relay
		return fmt.Errorf("%w: nil relay", ErrForeignRelay)
	}
	addr, err := r.server(rel)
	if err != nil {
		return err
	}
	for id, via := range r.via {
		if via == rel {
			return fmt.Errorf("%w: %s serves %d", ErrRelayInUse, addr, id)
		}
	}
	delete(r.relays, addr)
	rel.Stop()
	if err := r.cloud.RemoveRelay(addr); err != nil {
		return err
	}
	if err := r.fab.Unlink(r.cfg.CloudAddr, addr); err != nil {
		return err
	}
	return r.fab.Remove(addr)
}

// Join creates session id at addr, served by relay via (nil = the cloud) over
// the access link; on a live deployment it starts publishing at once. Either
// way the cloud seats and authors the learner — only who replicates differs.
func (r *Rig) Join(id protocol.ParticipantID, addr endpoint.Addr, script trace.MotionScript, via *cloud.Relay, link netsim.LinkConfig) (*client.VR, error) {
	server, err := r.server(via)
	if err != nil {
		return nil, err
	}
	tr, err := r.fab.Transport(addr)
	if err != nil {
		return nil, err
	}
	v, err := client.NewVR(r.sim, tr, client.VRConfig{
		Participant: id,
		Server:      server,
		PublishHz:   r.cfg.PublishHz,
		Script:      script,
	})
	if err == nil {
		err = r.fab.Link(server, addr, link)
	}
	if err == nil {
		if via == nil {
			err = r.cloud.AddClient(id, addr)
		} else if err = r.cloud.RegisterRelayClient(id, server); err == nil {
			if err = via.AddClient(id, addr); err != nil {
				_ = r.cloud.RemoveClient(id) // undo the half-made registration; err is what failed
			}
		}
	}
	if err != nil {
		return nil, r.abandon(addr, err)
	}
	r.clients[id], r.via[id] = v, via
	if r.started {
		if err := v.Start(); err != nil {
			_ = r.Leave(id) // the full teardown is the undo; err is what failed
			return nil, err
		}
	}
	return v, nil
}

// Leave withdraws session id. The one teardown policy: the client stops
// publishing, its relay (if any) and then the cloud drop it — peer, interest
// state and seat go, the authored entity is removed so the departure
// replicates — and the endpoint is reclaimed with Fabric.Remove alone. That
// releases its links and what is queued toward the leaver exactly once; what
// the leaver already sent still arrives (servers drop an unknown client's).
func (r *Rig) Leave(id protocol.ParticipantID) error {
	v, ok := r.clients[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	via := r.via[id]
	delete(r.clients, id)
	delete(r.via, id)
	v.Stop()
	if via != nil {
		if err := via.RemoveClient(id); err != nil {
			return err
		}
	}
	if err := r.cloud.RemoveClient(id); err != nil {
		return err
	}
	return r.fab.Remove(v.Addr())
}

// Handoff moves live session id to relay to (nil = the cloud) over a new
// access link without losing or duplicating an update. Synchronous: it runs
// between simulation events, so no tick interleaves with the cut. A no-op
// when the session is already served there.
func (r *Rig) Handoff(id protocol.ParticipantID, to *cloud.Relay, link netsim.LinkConfig) error {
	v, ok := r.clients[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSession, id)
	}
	newAddr, err := r.server(to)
	if err != nil {
		return err
	}
	from := r.via[id]
	if from == to {
		return nil
	}
	oldAddr, _ := r.server(from) // from is ours: Join or a Handoff put it there
	// 1. Bring the new path up first: a refused link leaves the session
	// served and routed where it was.
	if err := r.fab.Link(newAddr, v.Addr(), link); err != nil {
		return err
	}
	// 2. The old server exports the replication baseline (ack floor plus owed
	// debt) and retires its route; seat and entity stay with the cloud.
	b, err := r.cloud.ReleaseSession(id, from, to)
	if err != nil {
		_ = r.fab.Unlink(newAddr, v.Addr())
		return err
	}
	// 3. Cut the old access path: what the old server had in flight for this
	// client dies here, which is why the baseline flattens sends back to debt.
	if err := r.fab.Unlink(oldAddr, v.Addr()); err != nil {
		return err
	}
	// 4. The new server adopts the session, seeded from the baseline plus a
	// conservative re-owe (node.Runtime.ImportClientBaseline).
	if err := r.cloud.AdoptSession(id, v.Addr(), from, to, b); err != nil {
		return err
	}
	r.via[id] = to
	// 5. Repoint the client: publishes, pings and auto-acks follow.
	v.Retarget(newAddr)
	return nil
}

// nodes lists every node in the pinned lifecycle order: the cloud; each edge
// ascending by classroom ID, its attachment right behind it; relays ascending
// by address; sessions ascending by ID. Map order would reorder tick
// registration from run to run and derail reproducibility.
func (r *Rig) nodes() []Node {
	out := []Node{r.cloud}
	for _, id := range slices.Sorted(maps.Keys(r.edges)) {
		out = append(out, r.edges[id][0], r.edges[id][1])
	}
	for _, addr := range slices.Sorted(maps.Keys(r.relays)) {
		out = append(out, r.relays[addr])
	}
	for _, id := range slices.Sorted(maps.Keys(r.clients)) {
		out = append(out, r.clients[id])
	}
	return out
}

// Start brings every node live at the same virtual instant, which keeps the
// tick domains aligned — what lets a handoff's transferred ack floor be
// honored instead of falling back to a snapshot. Idempotent; the rig counts
// as started only once every node has.
func (r *Rig) Start() error {
	if r.started {
		return nil
	}
	for _, n := range r.nodes() {
		if err := n.Start(); err != nil {
			return err
		}
	}
	r.started = true
	return nil
}

// Stop halts every node in the same order. Endpoints stay on the fabric:
// in-flight traffic drains as the simulation runs on (or the fabric closes).
func (r *Rig) Stop() {
	for _, n := range r.nodes() {
		n.Stop()
	}
	r.started = false
}
