// Package node is the shared runtime every sync server is built on. The
// cloud VR host, the regional relays, and the campus edge servers each used
// to hand-roll the same half of a node: a peer table, per-peer replicator
// wiring and interest filters, a tick loop, and join/leave lifecycle. The
// Runtime owns all of it once — the authoritative store, the replicator and
// its peer registrations, the replica table for inbound sync partners, the
// per-client interest sets, the onboarding pool, the tick skeleton
// (ingest → plan → fan-out → flush), and teardown on leave — so cloud,
// relay, and edge are thin policies over one lifecycle: an interest filter
// here, an upstream forward there, sensor fusion at the edge.
//
// Like the nodes it serves, a Runtime is single-threaded: every method must
// be called from the goroutine that owns the node (the simulation
// goroutine, or the goroutine pumping a TCP endpoint).
package node

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/pose"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
	"metaclass/internal/work"
)

// Runtime errors. Node packages alias these so errors.Is keeps working at
// either level.
var (
	ErrPeerExists    = errors.New("node: peer already connected")
	ErrClientExists  = errors.New("node: client already registered")
	ErrUnknownClient = errors.New("node: unknown client")
	ErrStarted       = errors.New("node: already started")
)

// Config parameterizes a Runtime.
type Config struct {
	// TickHz is the replication tick rate (default 30).
	TickHz float64
	// Interest is the client fan-out policy; nil disables interest
	// management (broadcast).
	Interest *interest.Policy
}

func (c *Config) applyDefaults() {
	if c.TickHz <= 0 {
		c.TickHz = 30
	}
}

// SyncPeer is one inbound sync partner (a campus edge at the cloud, the
// cloud at a relay or edge, a peer edge) whose Snapshot/Delta traffic lands
// in a dedicated replica: a display replica with playout buffers on the edge,
// whose MR displays render it; on the cloud and a relay, which only merge and
// fan out, a sync replica keeping each entity's newest capture stamp.
type SyncPeer struct {
	Addr    endpoint.Addr
	Replica *core.Replica
}

// Client is one downstream learner endpoint, replicated with the runtime's
// interest filter. Client values are pooled across join/leave churn: the
// interest set and the closure asking it survive a leave and are reused by
// the next join, so onboarding is allocation-flat under storms.
type Client struct {
	ID   protocol.ParticipantID
	Addr endpoint.Addr
	// Replicated is false for passively registered clients (the cloud's
	// relay-routed learners): tracked in the table, never a replicator peer.
	Replicated bool

	iset    *interest.Set
	refused core.RefusedFunc
}

// Runtime owns the shared node machinery.
type Runtime struct {
	cfg  Config
	sim  *vclock.Sim
	addr endpoint.Addr
	ep   *endpoint.Dispatcher

	store *core.Store
	repl  *core.Replicator
	grid  *interest.Grid
	reg   *metrics.Registry

	peers      map[endpoint.Addr]*SyncPeer
	peerAddrs  []endpoint.Addr // sorted scratch; see SyncPeerAddrs
	peersDirty bool

	clients     map[protocol.ParticipantID]*Client
	byAddr      map[endpoint.Addr]*Client
	freeClients []*Client

	// onTick is the node's ingest policy, run between BeginTick and the
	// fan-out (set once via Start).
	onTick func()

	// MirrorPeers' reused source list, and its grid upkeep, built once.
	mirrorSrcs []*core.Store
	moved      func(uint32, *protocol.EntityState)
	removed    func(protocol.ParticipantID)

	// pool runs the tick's per-peer jobs — ack settling, the build, its
	// frame and checksum; its width is GOMAXPROCS at construction. Width is
	// proven not to change the output (see package work).
	pool *work.Pool

	period time.Duration // of cfg.TickHz
	cancel func()
}

// New creates a runtime on the given transport endpoint: address, send path,
// and receive dispatch all come from tr, so the same node construction works
// over netsim and TCP. The dispatcher is wired with the shared peer-table
// resolution for sync and ack traffic; node policies register their own
// pose and fallback hooks on Dispatcher().
func New(sim *vclock.Sim, tr endpoint.Transport, cfg Config) (*Runtime, error) {
	cfg.applyDefaults()
	period, ok := vclock.Period(cfg.TickHz)
	if !ok {
		return nil, fmt.Errorf("node: tick rate %v Hz has no positive period", cfg.TickHz)
	}
	r := &Runtime{
		cfg:   cfg,
		sim:   sim,
		addr:  tr.LocalAddr(),
		store: core.NewStore(),
		grid:  interest.NewGrid(),
		reg:   metrics.NewRegistry(string(tr.LocalAddr())),

		peers:   make(map[endpoint.Addr]*SyncPeer),
		clients: make(map[protocol.ParticipantID]*Client),
		byAddr:  make(map[endpoint.Addr]*Client),
		period:  period,
	}
	r.moved = func(slot uint32, e *protocol.EntityState) { r.grid.Update(e.Participant, slot, e.Pose.Position()) }
	r.removed = r.grid.Remove
	r.pool = work.New(0)
	r.repl = core.NewReplicator(r.store, core.ReplConfig{Pool: r.pool})
	ep, err := endpoint.NewDispatcher(tr, r.reg, endpoint.Config{Now: sim.Now})
	if err != nil {
		return nil, err
	}
	// Shared receive policy: sync traffic resolves through the peer table;
	// acks land in the replicator — except from a sync partner that is not a
	// replication peer (a relay's upstream), whose stray acks are unhandled
	// rather than unknown.
	ep.OnSync(func(from endpoint.Addr) *core.Replica {
		if p, ok := r.peers[from]; ok {
			return p.Replica
		}
		return nil
	}, nil)
	ep.OnAck(func(from endpoint.Addr, m *protocol.Ack) error {
		if _, sync := r.peers[from]; sync && !r.repl.HasPeer(string(from)) {
			ep.CountUnhandled()
			return nil
		}
		return r.repl.Ack(string(from), m.Tick)
	})
	r.ep = ep
	return r, nil
}

// Sim returns the virtual clock.
func (r *Runtime) Sim() *vclock.Sim { return r.sim }

// Addr returns the node's endpoint address.
func (r *Runtime) Addr() endpoint.Addr { return r.addr }

// TickHz returns the rate the tick loop runs at (Config.TickHz, defaulted).
func (r *Runtime) TickHz() float64 { return r.cfg.TickHz }

// Metrics exposes the node's registry.
func (r *Runtime) Metrics() *metrics.Registry { return r.reg }

// Dispatcher exposes the receive/send surface for policy hooks.
func (r *Runtime) Dispatcher() *endpoint.Dispatcher { return r.ep }

// Store exposes the authoritative (or mirrored) entity state.
func (r *Runtime) Store() *core.Store { return r.store }

// Replicator exposes the planner (tests and stats).
func (r *Runtime) Replicator() *core.Replicator { return r.repl }

// Grid exposes the spatial interest index. It places every entity the
// runtime writes (Upsert, MirrorPeers) at the entity's store slot and drops
// every one it removes (RemoveEntity, MirrorPeers); a write to Store() alone
// is not placed.
func (r *Runtime) Grid() *interest.Grid { return r.grid }

// Upsert writes e into the store, stamped at the current tick, and places it
// on the interest grid at pos, at the store's slot for it: the one write of
// an entity the node authors. The store copies *e; no reference is kept.
func (r *Runtime) Upsert(e *protocol.EntityState, pos mathx.Vec3) {
	r.grid.Update(e.Participant, r.store.Put(e), pos)
}

// ConnectReplica registers a sync partner: inbound Snapshot/Delta frames
// from addr apply into the returned peer's replica, whose capture-to-apply
// latency lands in the named histogram (shared across peers using the same
// name). display says whether this node renders the partner's entities: a
// display replica keeps playout buffers (core.NewReplica), any other keeps
// only a capture watermark per entity (core.NewSyncReplica).
func (r *Runtime) ConnectReplica(addr endpoint.Addr, ageHist string, display bool) (*SyncPeer, error) {
	if _, ok := r.peers[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrPeerExists, addr)
	}
	p := &SyncPeer{Addr: addr}
	if display {
		p.Replica = core.NewReplica(core.PlayoutDelay, pose.Linear{})
	} else {
		p.Replica = core.NewSyncReplica()
	}
	p.Replica.Latency = r.reg.Histogram(ageHist)
	r.peers[addr] = p
	r.peersDirty = true
	return p, nil
}

// HasSyncPeer reports whether addr is a registered sync partner.
func (r *Runtime) HasSyncPeer(addr endpoint.Addr) bool {
	_, ok := r.peers[addr]
	return ok
}

// SyncPeer returns the sync partner at addr.
func (r *Runtime) SyncPeer(addr endpoint.Addr) (*SyncPeer, bool) {
	p, ok := r.peers[addr]
	return p, ok
}

// SyncPeerAddrs returns the sync partners' addresses in ascending order —
// the pinned iteration order for everything that walks the peer table, so
// no map-iteration nondeterminism can reach the RNG or the experiment
// tables. The slice is runtime scratch, valid until the next ConnectReplica.
func (r *Runtime) SyncPeerAddrs() []endpoint.Addr {
	if r.peersDirty {
		r.peerAddrs = r.peerAddrs[:0]
		for a := range r.peers {
			r.peerAddrs = append(r.peerAddrs, a)
		}
		sort.Slice(r.peerAddrs, func(i, j int) bool { return r.peerAddrs[i] < r.peerAddrs[j] })
		r.peersDirty = false
	}
	return r.peerAddrs
}

// Replicate registers addr as a downstream replication peer with an optional
// interest filter (nil = full state). Used for server-to-server links; use
// AddClient for learner endpoints.
func (r *Runtime) Replicate(addr endpoint.Addr, filter core.FilterFunc) error {
	return r.repl.AddPeer(string(addr), filter)
}

// acquireClient returns a pooled Client, or a new one whose interest is its
// own set, refreshed once per build: one pass over the grid's slot table
// classifying by squared distance, and the bits of every placed slot it does not admit,
// the client's own included (clients predict themselves locally; a nil
// policy refuses only that one). The closure reads c.ID dynamically, so reuse
// across joins allocates nothing, and it writes only the client's own set, so
// concurrent builds for distinct clients share nothing but the read-only grid
// and policy.
func (r *Runtime) acquireClient() *Client {
	if n := len(r.freeClients); n > 0 {
		c := r.freeClients[n-1]
		r.freeClients[n-1] = nil
		r.freeClients = r.freeClients[:n-1]
		return c
	}
	c := &Client{iset: interest.NewSet()}
	c.refused = func(tick uint64) []uint64 { return c.iset.RefreshOwned(r.grid, r.cfg.Interest, c.ID, tick) }
	return c
}

func (r *Runtime) releaseClient(c *Client) {
	c.ID, c.Addr, c.Replicated = 0, "", false
	c.iset.Reset()
	r.freeClients = append(r.freeClients, c)
}

// AddClient registers a learner replicated directly by this node, gated by
// the runtime's interest filter. An address that is already a replication
// peer is refused before any table is written.
func (r *Runtime) AddClient(id protocol.ParticipantID, addr endpoint.Addr) error {
	if _, ok := r.clients[id]; ok {
		return fmt.Errorf("%w: %d", ErrClientExists, id)
	}
	c := r.acquireClient()
	if err := r.repl.AddPeerRefusing(string(addr), c.refused); err != nil {
		r.releaseClient(c)
		return err
	}
	c.ID, c.Addr, c.Replicated = id, addr, true
	r.clients[id] = c
	r.byAddr[addr] = c
	return nil
}

// RegisterClient records a learner this node seats and authors but does not
// replicate to (the cloud's relay-routed clients: their relay replicates to
// them).
func (r *Runtime) RegisterClient(id protocol.ParticipantID, via endpoint.Addr) error {
	if _, ok := r.clients[id]; ok {
		return fmt.Errorf("%w: %d", ErrClientExists, id)
	}
	c := r.acquireClient()
	c.ID, c.Addr = id, via
	r.clients[id] = c
	return nil
}

// Client returns the table entry for id.
func (r *Runtime) Client(id protocol.ParticipantID) (*Client, bool) {
	c, ok := r.clients[id]
	return c, ok
}

// ClientByAddr returns the replicated client registered at addr — the
// reverse lookup receive hooks use to resolve a sender to its session.
func (r *Runtime) ClientByAddr(addr endpoint.Addr) (*Client, bool) {
	c, ok := r.byAddr[addr]
	return c, ok
}

// RemoveClient tears a learner down: the replicator peer (and its scratch,
// returned to the pool) and the table slots go, but not a stored entity or its
// interest-grid entry; the Client value is recycled for the next join. The
// client's former address is returned so policies can finish their teardown.
func (r *Runtime) RemoveClient(id protocol.ParticipantID) (endpoint.Addr, error) {
	c, ok := r.clients[id]
	if !ok {
		return "", fmt.Errorf("%w: %d", ErrUnknownClient, id)
	}
	delete(r.clients, id)
	addr := c.Addr
	if c.Replicated {
		delete(r.byAddr, addr)
		if r.repl.HasPeer(string(addr)) {
			_ = r.repl.RemovePeer(string(addr))
		}
	}
	r.releaseClient(c)
	return addr, nil
}

// RemoveEntity withdraws an entity the node authors, and its interest-grid
// entry, from outside the tick loop. A removal between ticks must open its
// own store tick or it is stamped with an already-planned one.
func (r *Runtime) RemoveEntity(id protocol.ParticipantID) {
	r.store.BeginTick()
	r.store.Remove(id)
	r.grid.Remove(id)
}

// ClientCount returns the number of registered learners (replicated or
// passively registered).
func (r *Runtime) ClientCount() int { return len(r.clients) }

// RetargetClient moves a client this node registered without replicating to
// it (RegisterClient) to a new route: the cloud retargeting a relay-routed
// learner to its new relay on a relay-to-relay handoff. A replicated client
// is refused: its address keys its replicator peer, so moving it is a new
// registration (RemoveClient, AddClient, ImportClientBaseline).
func (r *Runtime) RetargetClient(id protocol.ParticipantID, addr endpoint.Addr) error {
	c, ok := r.clients[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClient, id)
	}
	if c.Replicated {
		return fmt.Errorf("node: client %d is replicated here; only a relay-routed client is retargeted", id)
	}
	c.Addr = addr
	return nil
}

// ExportClientBaseline captures a replicated client's replication position
// (ack floor + owed debt) for session handoff. The client stays registered;
// callers remove it separately once the new node has adopted the session.
func (r *Runtime) ExportClientBaseline(id protocol.ParticipantID) (core.PeerBaseline, error) {
	c, ok := r.clients[id]
	if !ok {
		return core.PeerBaseline{}, fmt.Errorf("%w: %d", ErrUnknownClient, id)
	}
	if !c.Replicated {
		return core.PeerBaseline{}, fmt.Errorf("node: client %d not replicated here", id)
	}
	return r.repl.ExportBaseline(string(c.Addr))
}

// ImportClientBaseline seeds a freshly added replicated client's position
// from a baseline exported on another node, then conservatively re-opens
// owed debt for every entity in this node's store except the client's own
// (its filter never admits it): tick domains are node-local and the two
// stores' content is skewed by their differing upstream latencies, so the
// transferred floor proves delivery only of the exporter's history. The
// owed sweep converges exactly what the floor's delta walk cannot —
// entities that sat still across the cut — while moving entities ride the
// candidate walk as usual. Cheaper than a full snapshot (settled, filtered,
// ack-gated) and never lossy.
func (r *Runtime) ImportClientBaseline(id protocol.ParticipantID, b core.PeerBaseline) error {
	c, ok := r.clients[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClient, id)
	}
	if !c.Replicated {
		return fmt.Errorf("node: client %d not replicated here", id)
	}
	peer := string(c.Addr)
	if err := r.repl.ImportBaseline(peer, b); err != nil {
		return err
	}
	for _, eid := range r.store.IDs() {
		if eid == id {
			continue
		}
		_ = r.repl.Owe(peer, eid)
	}
	return nil
}

// MirrorPeers folds every sync partner's replicated store into the
// runtime's own store (the cloud's world merge, a relay's mirror), placing
// each written entity at its store slot and dropping each departure from the
// interest grid. Entities present in the store but absent from
// every replica have departed upstream and are removed — unless retain
// admits them (the cloud keeps entities it authors itself). Peers are
// walked in pinned ascending-address order (see core.Store.Mirror).
func (r *Runtime) MirrorPeers(retain func(e protocol.EntityState) bool) {
	r.mirrorSrcs = r.mirrorSrcs[:0]
	for _, addr := range r.SyncPeerAddrs() {
		r.mirrorSrcs = append(r.mirrorSrcs, r.peers[addr].Replica.Store())
	}
	r.store.Mirror(r.mirrorSrcs, retain, r.moved, r.removed)
}

// Start begins the tick loop: BeginTick, the node's ingest policy, then the
// per-peer fan-out of the replication plan through the dispatcher (which
// batches the tick's sends into one flush per connection on transports that
// support it).
func (r *Runtime) Start(onTick func()) error {
	if r.cancel != nil {
		return ErrStarted
	}
	r.onTick = onTick
	r.cancel = r.sim.Ticker(r.period, r.tick)
	return nil
}

// Started reports whether the tick loop is running.
func (r *Runtime) Started() bool { return r.cancel != nil }

// Stop halts the tick loop, releases the frames of a plan that was never
// fanned out, and parks the worker pool's helper goroutines (a later Start
// revives them lazily). Safe to call repeatedly.
func (r *Runtime) Stop() {
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	r.repl.ReleasePlan()
	r.pool.Close()
}

func (r *Runtime) tick() {
	r.store.BeginTick()
	if r.onTick != nil {
		r.onTick()
	}
	r.ep.Fanout(r.repl.PlanTick())
}
