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
	// CountRecv configures the dispatcher (see endpoint.Config). Every node
	// answers pings.
	CountRecv bool
}

func (c *Config) applyDefaults() {
	if c.TickHz <= 0 {
		c.TickHz = 30
	}
}

// SyncPeer is one inbound sync partner (a campus edge at the cloud, the
// cloud at a relay or edge, a peer edge) whose Snapshot/Delta traffic lands
// in a dedicated replica.
type SyncPeer struct {
	Addr    endpoint.Addr
	Replica *core.Replica
}

// Client is one downstream learner endpoint, replicated with the runtime's
// interest filter. Client values are pooled across join/leave churn: the
// interest set, the closure asking it, and the replicator-side scratch they
// feed all survive a leave and are reused by the next join, so onboarding
// is allocation-flat under storms.
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

	// Per-tick scratch, reused so the tick path allocates nothing.
	liveScratch   map[protocol.ParticipantID]bool
	removeScratch []protocol.ParticipantID

	// pool runs the tick's per-peer jobs — ack settling, the build, its
	// frame and checksum; its width is GOMAXPROCS at construction. Width is
	// proven not to change the output (see package work).
	pool *work.Pool

	cancel func()
}

// New creates a runtime on the given transport endpoint: address, send path,
// and receive dispatch all come from tr, so the same node construction works
// over netsim and TCP. The dispatcher is wired with the shared peer-table
// resolution for sync and ack traffic; node policies register their own
// pose/expression/fallback hooks on Dispatcher().
func New(sim *vclock.Sim, tr endpoint.Transport, cfg Config) (*Runtime, error) {
	cfg.applyDefaults()
	r := &Runtime{
		cfg:   cfg,
		sim:   sim,
		addr:  tr.LocalAddr(),
		store: core.NewStore(),
		grid:  interest.NewGrid(4),
		reg:   metrics.NewRegistry(string(tr.LocalAddr())),

		peers:   make(map[endpoint.Addr]*SyncPeer),
		clients: make(map[protocol.ParticipantID]*Client),
		byAddr:  make(map[endpoint.Addr]*Client),

		liveScratch: make(map[protocol.ParticipantID]bool),
	}
	r.pool = work.New(0)
	r.repl = core.NewReplicator(r.store, core.ReplConfig{Pool: r.pool})
	ep, err := endpoint.NewDispatcher(tr, r.reg, endpoint.Config{
		Now:       sim.Now,
		CountRecv: cfg.CountRecv,
		AutoPong:  true,
	})
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

// Grid exposes the spatial interest index.
func (r *Runtime) Grid() *interest.Grid { return r.grid }

// ConnectReplica registers a sync partner: inbound Snapshot/Delta frames
// from addr apply into the returned peer's replica, whose capture-to-apply
// latency lands in the named histogram (shared across peers using the same
// name).
func (r *Runtime) ConnectReplica(addr endpoint.Addr, ageHist string) (*SyncPeer, error) {
	if _, ok := r.peers[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrPeerExists, addr)
	}
	p := &SyncPeer{Addr: addr, Replica: core.NewReplica(core.PlayoutDelay, pose.Linear{})}
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

// clientFilter is the shared interest gate, asked once per client build: one
// walk of the grid's cells plus squared-distance classification through the
// client's set, instead of an all-pairs sqrt test per (client, source), then
// one pass over the grid's directory listing what the set refuses. The client
// itself is always refused: clients predict themselves locally. Built once
// per pooled Client — it reads c.ID dynamically, so reuse across joins
// allocates nothing. A refresh writes only the client's own set, so
// concurrent calls for distinct clients (the plan's builds on the pool) share
// nothing but the read-only grid and policy.
func (r *Runtime) clientFilter(c *Client) core.RefusedFunc {
	return func(tick uint64, dst []protocol.ParticipantID) []protocol.ParticipantID {
		if r.cfg.Interest == nil {
			return append(dst, c.ID) // broadcast mode
		}
		c.iset.RefreshOwned(r.grid, r.cfg.Interest, c.ID, tick)
		return c.iset.AppendRefused(r.grid, dst)
	}
}

func (r *Runtime) acquireClient() *Client {
	if n := len(r.freeClients); n > 0 {
		c := r.freeClients[n-1]
		r.freeClients[n-1] = nil
		r.freeClients = r.freeClients[:n-1]
		return c
	}
	c := &Client{iset: interest.NewSet()}
	c.refused = r.clientFilter(c)
	return c
}

func (r *Runtime) releaseClient(c *Client) {
	c.ID, c.Addr, c.Replicated = 0, "", false
	c.iset.Reset()
	r.freeClients = append(r.freeClients, c)
}

// AddClient registers a learner replicated directly by this node, gated by
// the runtime's interest filter.
func (r *Runtime) AddClient(id protocol.ParticipantID, addr endpoint.Addr) error {
	if _, ok := r.clients[id]; ok {
		return fmt.Errorf("%w: %d", ErrClientExists, id)
	}
	c := r.acquireClient()
	c.ID, c.Addr, c.Replicated = id, addr, true
	r.clients[id] = c
	r.byAddr[addr] = c
	return r.repl.AddPeerRefusing(string(addr), c.refused)
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

// RangeClients calls fn for every registered client, in no particular order.
// fn must not add or remove clients.
func (r *Runtime) RangeClients(fn func(c *Client)) {
	for _, c := range r.clients {
		fn(c)
	}
}

// RemoveClient tears a learner down: the replicator peer (and its scratch,
// returned to the pool), the interest-grid entry, and the table slots all
// go; the Client value is recycled for the next join. The client's former
// address is returned so policies can finish their own teardown.
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
	r.grid.Remove(id)
	r.releaseClient(c)
	return addr, nil
}

// RemoveEntity withdraws an entity the node authors, from outside the tick
// loop. A removal between ticks must open its own store tick or it is
// stamped with an already-planned one.
func (r *Runtime) RemoveEntity(id protocol.ParticipantID) {
	r.store.BeginTick()
	r.store.Remove(id)
}

// ClientCount returns the number of registered learners (replicated or
// passively registered).
func (r *Runtime) ClientCount() int { return len(r.clients) }

// RetargetClient updates a client's address without touching its replication
// state: the table entry (and, for replicated clients, the byAddr lookup and
// the replicator peer key) move to the new address. Session handoff uses it
// on the node that keeps serving the client when only the route changed —
// e.g. the cloud retargeting a relay-routed learner to its new relay.
//
// For replicated clients the replicator peer is re-keyed by baseline
// export/re-add/import, so the interest set, ack floor, and owed debt all
// survive the rename; only the peer's pooled scratch is re-acquired.
func (r *Runtime) RetargetClient(id protocol.ParticipantID, addr endpoint.Addr) error {
	c, ok := r.clients[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClient, id)
	}
	if c.Addr == addr {
		return nil
	}
	if c.Replicated {
		b, err := r.repl.ExportBaseline(string(c.Addr))
		if err != nil {
			return err
		}
		if err := r.repl.AddPeerRefusing(string(addr), c.refused); err != nil {
			return err
		}
		_ = r.repl.RemovePeer(string(c.Addr))
		_ = r.repl.ImportBaseline(string(addr), b)
		delete(r.byAddr, c.Addr)
		r.byAddr[addr] = c
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
// runtime's own store (the cloud's world merge, a relay's mirror), keeping
// the interest grid in step. Entities present in the store but absent from
// every replica have departed upstream and are removed — unless retain
// admits them (the cloud keeps entities it authors itself). Peers are
// walked in pinned ascending-address order.
func (r *Runtime) MirrorPeers(retain func(e protocol.EntityState) bool) {
	live := r.liveScratch
	clear(live)
	for _, addr := range r.SyncPeerAddrs() {
		p := r.peers[addr]
		p.Replica.Store().Range(func(id protocol.ParticipantID, e protocol.EntityState) {
			live[id] = true
			if r.store.UpsertIfChanged(e) {
				pos, _ := e.Pose.Dequantize()
				r.grid.Update(id, pos)
			}
		})
	}
	r.removeScratch = r.removeScratch[:0]
	r.store.Range(func(id protocol.ParticipantID, e protocol.EntityState) {
		if !live[id] && (retain == nil || !retain(e)) {
			r.removeScratch = append(r.removeScratch, id)
		}
	})
	for _, id := range r.removeScratch {
		r.store.Remove(id)
		r.grid.Remove(id)
	}
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
	interval := time.Duration(float64(time.Second) / r.cfg.TickHz)
	r.cancel = r.sim.Ticker(interval, r.tick)
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
