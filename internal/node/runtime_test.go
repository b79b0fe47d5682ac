package node

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// sinkTransport consumes sends, releasing each frame per the Transport
// contract.
type sinkTransport struct {
	addr endpoint.Addr
	sent int
}

func (s *sinkTransport) SendFrame(_ endpoint.Addr, f *protocol.Frame) error {
	f.Release()
	s.sent++
	return nil
}
func (s *sinkTransport) LocalAddr() endpoint.Addr       { return s.addr }
func (s *sinkTransport) Bind(r endpoint.Receiver) error { return nil }
func (s *sinkTransport) Close() error                   { return nil }

func newRuntime(t *testing.T, cfg Config) (*Runtime, *sinkTransport) {
	t.Helper()
	tr := &sinkTransport{addr: "node"}
	rt, err := New(vclock.New(1), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, tr
}

func TestRuntimeClientLifecycle(t *testing.T) {
	rt, _ := newRuntime(t, Config{Interest: interest.NewPolicy()})
	if err := rt.AddClient(1, "c1"); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddClient(1, "c1"); err == nil {
		t.Fatal("duplicate client accepted")
	}
	if err := rt.RegisterClient(2, "relay"); err != nil {
		t.Fatal(err)
	}
	if rt.ClientCount() != 2 {
		t.Fatalf("ClientCount = %d, want 2", rt.ClientCount())
	}
	if !rt.Replicator().HasPeer("c1") {
		t.Fatal("replicated client has no replicator peer")
	}
	if rt.Replicator().HasPeer("relay") {
		t.Fatal("passive client registered a replicator peer")
	}
	addr, err := rt.RemoveClient(1)
	if err != nil || addr != "c1" {
		t.Fatalf("RemoveClient = %q, %v", addr, err)
	}
	if rt.Replicator().HasPeer("c1") {
		t.Fatal("replicator peer survived removal")
	}
	if _, err := rt.RemoveClient(1); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := rt.RemoveClient(2); err != nil {
		t.Fatal(err)
	}
	if rt.ClientCount() != 0 {
		t.Fatalf("ClientCount = %d after removals", rt.ClientCount())
	}
}

// TestRuntimeOnboardingAllocationFlat pins the pooled onboarding path: after
// warm-up, a join/leave cycle (client table + interest set + replicator peer
// state + first-snapshot scratch) performs no steady-state allocations
// beyond map bookkeeping.
func TestRuntimeOnboardingAllocationFlat(t *testing.T) {
	rt, _ := newRuntime(t, Config{Interest: interest.NewPolicy()})
	// World content so the first snapshot per join is non-trivial.
	rt.Store().BeginTick()
	for i := 1; i <= 32; i++ {
		rt.Store().Upsert(protocol.EntityState{Participant: protocol.ParticipantID(100 + i)})
	}
	cycle := func() {
		if err := rt.AddClient(7, "c7"); err != nil {
			t.Fatal(err)
		}
		rt.Store().BeginTick()
		rt.Dispatcher().Fanout(rt.Replicator().PlanTick())
		if _, err := rt.RemoveClient(7); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the pools
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if raceEnabled {
		return // sync.Pool drops puts under -race: the count reads 4 one run in twenty
	}
	if allocs > 3 {
		t.Fatalf("join/tick/leave cycle allocates %.1f objects/op, want ~0", allocs)
	}
}

// TestUnsentPlanFramesAreReleased covers the frames a plan holds until
// Fanout takes them, on the three paths where Fanout does not: a second plan
// with no fan-out in between, a client removed between plan and fan-out, and
// Stop right after a plan. Each returns protocol.LiveFrames to its baseline.
func TestUnsentPlanFramesAreReleased(t *testing.T) {
	live0 := protocol.LiveFrames()
	rt, tr := newRuntime(t, Config{Interest: interest.NewPolicy()})
	const clients = 8
	plan := func() []core.PeerMessage {
		tick := rt.Store().BeginTick()
		for i := 1; i <= clients; i++ {
			id := protocol.ParticipantID(i)
			pos := mathx.V3(3.2*float64(i)+0.01*float64(tick%7), 0, 0)
			rt.Store().Upsert(protocol.EntityState{Participant: id, Pose: protocol.QuantizePose(pos, mathx.QuatIdentity())})
			rt.Grid().Update(id, pos)
		}
		p := rt.Replicator().PlanTick()
		if len(p) == 0 {
			t.Fatal("empty plan")
		}
		return p
	}
	held := func(path string, want int) {
		t.Helper()
		if live := protocol.LiveFrames() - live0; live != int64(want) {
			t.Fatalf("%s: %d frames live, want %d", path, live, want)
		}
	}
	for i := 1; i <= clients; i++ {
		if err := rt.AddClient(protocol.ParticipantID(i), endpoint.Addr(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	first := len(plan())
	held("a plan", first)
	second := plan()
	held("a second plan with no fan-out in between", len(second))
	rt.Dispatcher().Fanout(second)
	held("the second plan fanned out", 0)

	third := plan()
	if _, err := rt.RemoveClient(1); err != nil {
		t.Fatal(err)
	}
	sent := tr.sent
	rt.Dispatcher().Fanout(third)
	if tr.sent-sent != len(third) {
		t.Fatalf("fan-out after a removal sent %d of %d frames", tr.sent-sent, len(third))
	}
	held("a client removed between plan and fan-out", 0)
	plan()
	if _, err := rt.RemoveClient(2); err != nil {
		t.Fatal(err)
	}
	held("a client removed, then a plan with no fan-out", len(plan()))

	rt.Stop()
	held("Stop right after a plan", 0)
}

func TestRuntimeSyncPeerAddrsSortedAndAckPolicy(t *testing.T) {
	rt, _ := newRuntime(t, Config{})
	for _, a := range []endpoint.Addr{"zeta", "alpha", "mid"} {
		if _, err := rt.ConnectReplica(a, "age"); err != nil {
			t.Fatal(err)
		}
	}
	addrs := rt.SyncPeerAddrs()
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] >= addrs[i] {
			t.Fatalf("peer addrs not sorted: %v", addrs)
		}
	}
	// alpha is also a replication peer; zeta is a pure sync source (a
	// relay's upstream shape): its acks are unhandled, not unknown.
	if err := rt.Replicate("alpha", nil); err != nil {
		t.Fatal(err)
	}
	ack, err := protocol.Encode(&protocol.Ack{Tick: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt.Dispatcher().Receive("zeta", ack)
	if got := rt.Metrics().Counter("recv.unhandled").Value(); got != 1 {
		t.Fatalf("upstream ack unhandled = %d, want 1", got)
	}
	if got := rt.Metrics().Counter("recv.unknown_peer").Value(); got != 0 {
		t.Fatalf("upstream ack counted unknown_peer = %d", got)
	}
	rt.Dispatcher().Receive("stranger", ack)
	if got := rt.Metrics().Counter("recv.unknown_peer").Value(); got != 1 {
		t.Fatalf("stranger ack unknown_peer = %d, want 1", got)
	}
}

func TestRuntimeMirrorPeersRetention(t *testing.T) {
	rt, _ := newRuntime(t, Config{})
	p, err := rt.ConnectReplica("up", "age")
	if err != nil {
		t.Fatal(err)
	}
	// The peer's replica authors entity 1; the runtime authors entity 2
	// locally (Home 0) and entity 3 that the upstream no longer carries.
	p.Replica.Store().BeginTick()
	p.Replica.Store().Upsert(protocol.EntityState{Participant: 1, Home: 5})
	rt.Store().BeginTick()
	rt.Store().Upsert(protocol.EntityState{Participant: 2, Home: 0})
	rt.Store().Upsert(protocol.EntityState{Participant: 3, Home: 5})
	rt.MirrorPeers(func(e protocol.EntityState) bool { return e.Home == 0 })
	for id, want := range map[protocol.ParticipantID]bool{1: true, 2: true, 3: false} {
		if _, ok := rt.Store().Get(id); ok != want {
			t.Errorf("entity %d present=%v, want %v", id, ok, want)
		}
	}
	// Without retention, locally-authored entities are culled too.
	rt.Store().Upsert(protocol.EntityState{Participant: 2, Home: 0})
	rt.MirrorPeers(nil)
	if _, ok := rt.Store().Get(2); ok {
		t.Error("nil retention kept an absent entity")
	}
}

func TestRuntimeStartStop(t *testing.T) {
	rt, tr := newRuntime(t, Config{TickHz: 10})
	ticks := 0
	if err := rt.Start(func() { ticks++ }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(nil); err == nil {
		t.Fatal("double start accepted")
	}
	if err := rt.Replicate("peer", nil); err != nil {
		t.Fatal(err)
	}
	rt.Store().BeginTick()
	rt.Store().Upsert(protocol.EntityState{Participant: 1})
	if err := rt.Sim().Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("onTick ran %d times, want 10", ticks)
	}
	if tr.sent == 0 {
		t.Fatal("tick loop never fanned out")
	}
	rt.Stop()
	rt.Stop() // idempotent
	if rt.Started() {
		t.Fatal("Started after Stop")
	}
}

// TestTickGridQueriesWriteNothing is the -race regression for the interest
// grid's occupied-cell box: 16 filtered clients refresh their interest sets
// on the pool's workers (width 4) while, between ticks, one avatar hops back
// and forth over a cell edge at the rim of the occupied area. Whichever cell
// it stands in is a boundary cell it occupies alone, so every hop empties a
// boundary cell and the box must shrink — on the owner goroutine, at the
// hop, never inside the workers' concurrent Neighbors queries.
func TestTickGridQueriesWriteNothing(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	rt, tr := newRuntime(t, Config{TickHz: 10, Interest: interest.NewPolicy()})

	const clients, avatar = 16, protocol.ParticipantID(100)
	place := func(id protocol.ParticipantID, pos mathx.Vec3) {
		rt.Store().Upsert(protocol.EntityState{Participant: id, Pose: protocol.QuantizePose(pos, mathx.QuatIdentity())})
		rt.Grid().Update(id, pos)
	}
	rt.Store().BeginTick()
	for i := 0; i < clients; i++ { // cells (0..3, 0..3) of the 4 m grid
		id := protocol.ParticipantID(i + 1)
		place(id, mathx.V3(2+4*float64(i%4), 0, 2+4*float64(i/4)))
		if err := rt.AddClient(id, endpoint.Addr(fmt.Sprintf("c%02d", id))); err != nil {
			t.Fatal(err)
		}
	}
	ticks := 0
	if err := rt.Start(func() {
		ticks++
		x := 21.0 // cell 5; odd ticks stand in cell 4
		if ticks%2 == 1 {
			x = 19
		}
		place(avatar, mathx.V3(x, 0, 2))
		// Half the clients ack, so delta builds and snapshot builds both run.
		for i := 1; i <= clients; i += 2 {
			_ = rt.Replicator().Ack(fmt.Sprintf("c%02d", i), rt.Store().Tick()-1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sim().Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rt.Stop()
	if ticks != 50 || tr.sent == 0 {
		t.Fatalf("ran %d ticks and sent %d frames, want 50 ticks with traffic", ticks, tr.sent)
	}
	// The shrunken box still covers the avatar's current cell.
	far, _ := rt.Grid().Position(clients)
	if got := rt.Grid().Neighbors(far, 60, nil); !slices.Contains(got, avatar) {
		t.Fatalf("avatar missing from a 60 m query after 50 hops: %v", got)
	}
}

// TestTickInterestAllocationFree covers the tick path the root
// TestPlanTickAllocationFree cannot see (its fixture has no node.Runtime: no
// ingest, no client table, no leave + join): a runtime with Interest on, 64
// clients placed on an 8×8 seat grid at 3.2 m, one of them pinned, every avatar
// moving every tick and every client acking exactly, two ticks behind. After
// warm-up a tick — ingest, per-client set refresh, filtered delta builds with
// owed tracking on the pool, encode, fan-out to a releasing sink — allocates
// nothing, inline at GOMAXPROCS 1 and sharded at 4, and neither does a tick
// that follows a leave + join: the joiner takes over the leaver's seat and
// with it the store slot, the grid slot and the pooled client/peer state.
// Under -race the allocation counts mean nothing (sync.Pool drops puts) and
// the test is the race detector's view of the same ticks.
func TestTickInterestAllocationFree(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			policy := interest.NewPolicy()
			rt, tr := newRuntime(t, Config{TickHz: 20, Interest: policy})
			defer rt.Stop()

			const seats = 64
			// Seat i is held by ID i+1; the last seat alternates between two IDs.
			holder := make([]protocol.ParticipantID, seats)
			addrs := make(map[protocol.ParticipantID]endpoint.Addr)
			for id := protocol.ParticipantID(1); id <= seats+1; id++ {
				addrs[id] = endpoint.Addr(fmt.Sprintf("c%02d", id))
			}
			for i := range holder {
				holder[i] = protocol.ParticipantID(i + 1)
				if err := rt.AddClient(holder[i], addrs[holder[i]]); err != nil {
					t.Fatal(err)
				}
			}
			policy.Pin(1)
			rt.onTick = func() {
				tick := rt.Store().Tick()
				for i, id := range holder {
					pos := mathx.V3(3.2*float64(i%8)+0.01*float64(tick%7), 0, 3.2*float64(i/8))
					rt.Store().Upsert(protocol.EntityState{Participant: id, Pose: protocol.QuantizePose(pos, mathx.QuatIdentity())})
					rt.Grid().Update(id, pos)
					if tick > 2 {
						_ = rt.Replicator().Ack(string(addrs[id]), tick-2)
					}
				}
			}
			swap := func() {
				last := &holder[seats-1]
				if _, err := rt.RemoveClient(*last); err != nil {
					t.Fatal(err)
				}
				rt.RemoveEntity(*last)
				*last = 2*seats + 1 - *last // 64 <-> 65
				if err := rt.AddClient(*last, addrs[*last]); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: the plan and frame pools, the pool's helpers, and both
			// IDs of the alternating seat.
			for i := 0; i < 300; i++ {
				if i%10 == 0 {
					swap()
				}
				rt.tick()
			}
			if tr.sent == 0 {
				t.Fatal("warm-up sent nothing")
			}
			if raceEnabled {
				return
			}
			if allocs := testing.AllocsPerRun(100, rt.tick); allocs != 0 {
				t.Errorf("steady-state tick allocates %.2f objects, want 0", allocs)
			}
			slotsBefore := rt.Store().Len()
			if allocs := testing.AllocsPerRun(20, func() {
				swap()
				rt.tick()
				rt.tick()
			}); allocs != 0 {
				t.Errorf("leave + join + two ticks allocate %.2f objects, want 0", allocs)
			}
			if rt.Store().Len() != slotsBefore || rt.Grid().Len() != seats {
				t.Errorf("after the swaps: %d entities, %d placed, want %d and %d", rt.Store().Len(), rt.Grid().Len(), slotsBefore, seats)
			}
		})
	}
}
