package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"metaclass/internal/endpoint"
	"metaclass/internal/node"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// RoomConfig parameterizes a hosted classroom room.
type RoomConfig struct {
	// Addr is the TCP listen address (e.g. ":7480"; ":0" for tests).
	Addr string
	// TickHz is the replication rate (default 30).
	TickHz float64
}

func (c *RoomConfig) applyDefaults() {
	if c.Addr == "" {
		c.Addr = ":7480"
	}
	if c.TickHz <= 0 {
		c.TickHz = 30
	}
}

// Room is a real-TCP classroom sync server: clients Hello in, publish
// PoseUpdate/ExpressionUpdate streams, and receive snapshot/delta
// replication of everyone else — the cloud VR classroom of Fig. 3 reduced
// to one process.
//
// The Room is a thin admission policy over node.Runtime: the peer table,
// replicator wiring, tick skeleton, per-peer fan-out, and join/leave teardown
// are all the runtime's (the same pooled, leak-gated lifecycle the cloud,
// relay, and edge nodes run on), driven over an anonymous-accept TCP
// endpoint. The Room itself only decides who gets in (Hello/HelloAck), which
// publishes are honest (spoof checks), and how audio is relayed. All state
// mutations run on the single driver goroutine that pumps the endpoint and
// advances the tick clock, keeping the sync core single-threaded exactly as
// in simulation.
type Room struct {
	cfg RoomConfig

	ep  *Endpoint
	sim *vclock.Sim
	rt  *node.Runtime

	done chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	// Counters are atomics so Stats never blocks on (or races) the driver
	// goroutine. entities mirrors the store's size after every driver step,
	// so a closing room reports its last real value, never a fabricated zero.
	joined   atomic.Uint64
	left     atomic.Uint64
	poses    atomic.Uint64
	entities atomic.Int64
}

// ListenRoom starts a room server.
func ListenRoom(cfg RoomConfig) (*Room, error) {
	cfg.applyDefaults()
	ep, err := ListenAnonymous("room", cfg.Addr)
	if err != nil {
		return nil, err
	}
	sim := vclock.New(0)
	rt, err := node.New(sim, ep, node.Config{TickHz: cfg.TickHz})
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	r := &Room{cfg: cfg, ep: ep, sim: sim, rt: rt, done: make(chan struct{})}
	d := rt.Dispatcher()
	d.OnPose(r.handlePose)
	d.OnExpression(r.handleExpression)
	d.OnFallback(r.handleOther)
	ep.OnPeerGone(func(peer endpoint.Addr) { r.dropSession(peer) })
	if err := rt.Start(nil); err != nil {
		_ = ep.Close()
		rt.Stop()
		return nil, err
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Addr returns the bound listen address.
func (r *Room) Addr() string { return r.ep.TCPAddr() }

// Close stops the server and waits for all goroutines to exit.
func (r *Room) Close() error {
	r.closeOnce.Do(func() {
		close(r.done)
		r.wg.Wait()
		r.closeErr = r.ep.Close()
		r.rt.Stop()
	})
	return r.closeErr
}

// RoomStats is a point-in-time server summary. Pose freshness is measured
// client-side (see cmd/loadgen): clients and server do not share a timebase,
// so the server cannot compute capture-to-receipt ages itself.
type RoomStats struct {
	Joined, Left, Poses uint64
	Entities            int
}

// Stats snapshots server counters. Lock-free: safe from any goroutine, and
// during (or after) Close it reports the room's final state rather than
// racing the shutdown.
func (r *Room) Stats() RoomStats {
	return RoomStats{
		Joined:   r.joined.Load(),
		Left:     r.left.Load(),
		Poses:    r.poses.Load(),
		Entities: int(r.entities.Load()),
	}
}

// run is the room's driver: it pumps inbound traffic between ticks and
// advances the virtual clock one interval per real interval, so the
// runtime's Ticker fires the shared tick skeleton (BeginTick → plan →
// per-peer fan-out → one vectored flush per conn) at TickHz.
func (r *Room) run() {
	defer r.wg.Done()
	interval := time.Duration(float64(time.Second) / r.cfg.TickHz)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
			_ = r.sim.Run(r.sim.Now() + interval)
		default:
			r.ep.PumpWait(time.Millisecond)
		}
		r.entities.Store(int64(r.rt.Store().Len()))
	}
}

// The handlers below run only on the driver goroutine (dispatch hooks).

func (r *Room) handleOther(from endpoint.Addr, payload []byte, msg protocol.Message) {
	switch m := msg.(type) {
	case *protocol.Hello:
		r.handleHello(from, m)
	case *protocol.AudioFrame:
		// Audio rides the low-latency path: relayed to every other
		// participant within the current pump rather than batched into the
		// state tick (the paper's lip-sync requirement makes audio deadline-
		// critical in a way pose state is not).
		r.relayAudio(from, m, payload)
	case *protocol.Leave:
		r.ep.ClosePeer(from)
	default:
		// Everything else is unhandled; the room is pose-sync only.
		r.rt.Dispatcher().CountUnhandled()
	}
}

func (r *Room) handleHello(from endpoint.Addr, m *protocol.Hello) {
	if _, ok := r.rt.ClientByAddr(from); ok {
		return // duplicate hello on a live session
	}
	if old, ok := r.rt.Client(m.Participant); ok {
		// A stale session holds this seat (a churned client rejoining before
		// its old connection's teardown landed): kick it so the new session
		// owns the participant and always gets its ack.
		oldAddr := old.Addr
		r.dropSession(oldAddr)
		r.ep.ClosePeer(oldAddr)
	}
	if err := r.rt.AddClient(m.Participant, from); err != nil {
		return
	}
	r.joined.Add(1)
	_ = r.rt.Dispatcher().Send(from, &protocol.HelloAck{
		Participant: m.Participant,
		TickRateHz:  uint16(r.cfg.TickHz),
		ServerTick:  r.rt.Store().Tick(),
	})
}

func (r *Room) handlePose(from endpoint.Addr, m *protocol.PoseUpdate) {
	r.poses.Add(1)
	c, ok := r.rt.ClientByAddr(from)
	if !ok || c.ID == 0 || m.Participant != c.ID {
		return // must hello first; no spoofing other participants
	}
	e := protocol.EntityState{
		Participant: m.Participant,
		CapturedAt:  m.CapturedAt,
		Pose:        m.Pose,
		VelMMS:      m.VelMMS,
	}
	st := r.rt.Store()
	if old, ok := st.Get(m.Participant); ok {
		e.Expression = old.Expression
	}
	st.Upsert(e)
}

func (r *Room) handleExpression(from endpoint.Addr, m *protocol.ExpressionUpdate) {
	c, ok := r.rt.ClientByAddr(from)
	if !ok || c.ID == 0 || m.Participant != c.ID {
		return
	}
	st := r.rt.Store()
	if e, ok := st.Get(m.Participant); ok {
		e.Expression = m.Weights
		st.Upsert(e)
	}
}

func (r *Room) relayAudio(from endpoint.Addr, m *protocol.AudioFrame, payload []byte) {
	c, ok := r.rt.ClientByAddr(from)
	if !ok || c.ID == 0 || m.Participant != c.ID {
		return
	}
	d := r.rt.Dispatcher()
	r.rt.RangeClients(func(other *node.Client) {
		if other.Addr == from {
			return
		}
		// Forward retains the receive frame backing payload: the relay
		// pushes the exact wire bytes onward, zero-copy.
		_ = d.Forward(other.Addr, payload)
	})
}

// dropSession tears down the client registered at addr: replicator peer,
// interest entry, and pooled Client slot via the runtime, plus the entity it
// authored. Reports whether a session was actually registered there (Leave
// before Hello tears down nothing).
func (r *Room) dropSession(addr endpoint.Addr) bool {
	c, ok := r.rt.ClientByAddr(addr)
	if !ok {
		return false
	}
	id := c.ID
	if _, err := r.rt.RemoveClient(id); err != nil {
		return false
	}
	if id != 0 {
		r.rt.RemoveEntity(id)
	}
	r.left.Add(1)
	return true
}
