package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"metaclass/internal/core"
	"metaclass/internal/endpoint"
	"metaclass/internal/interest"
	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
)

// slotHarness drives one runtime through a seeded schedule of the writes a
// node makes: a cloud-shaped one authors its learners with Runtime.Upsert
// between ticks (poses arrive between ticks) and merges an edge's replica,
// retaining its own; a relay-shaped one only mirrors its upstream. Every
// replicated client has a twin peer on the same runtime whose interest is a
// FilterFunc asking the grid by ID, one source at a time, so the twin's frames
// say what the client's set must have admitted whatever slot anyone sits in.
type slotHarness struct {
	t      *testing.T
	rng    *rand.Rand
	cloud  bool
	rt     *Runtime
	policy *interest.Policy
	up     *core.Store // the edge's (cloud) or the upstream's (relay) replica
	// clients holds the replicated learners; learners the cloud authors, by
	// position (it writes each every step).
	clients  map[protocol.ParticipantID]endpoint.Addr
	learners map[protocol.ParticipantID]mathx.Vec3

	highWater int // the most entities the store has held: fewer means a vacant slot
	// coverage
	recycled, between, departures, compared int
	refusals                                atomic.Int64
}

func newSlotHarness(t *testing.T, cloud bool, seed int64) *slotHarness {
	h := &slotHarness{
		t: t, rng: rand.New(rand.NewSource(seed)), cloud: cloud, policy: interest.NewPolicy(),
		clients: map[protocol.ParticipantID]endpoint.Addr{}, learners: map[protocol.ParticipantID]mathx.Vec3{},
	}
	h.rt, _ = newRuntime(t, Config{Interest: h.policy})
	up, err := h.rt.ConnectReplica("up", "age", false)
	if err != nil {
		t.Fatal(err)
	}
	h.up = up.Replica.Store()
	return h
}

// pos is a random floor position; a fifth of the floor lies past the cull
// radius from the rest, so the sets refuse as well as decimate.
func (h *slotHarness) pos() mathx.Vec3 {
	return mathx.V3(h.rng.Float64()*200-100, 0, h.rng.Float64()*200-100)
}

func entity(id protocol.ParticipantID, home protocol.ClassroomID, p mathx.Vec3) protocol.EntityState {
	return protocol.EntityState{Participant: id, Home: home, Pose: protocol.QuantizePose(p, mathx.QuatIdentity())}
}

// twin is the client's interest asked one source at a time: the receiver
// never, an unplaced receiver everything else, an unplaced source always,
// and otherwise the source's tier and decimation phase at the grid's
// positions.
func (h *slotHarness) twin(recv protocol.ParticipantID) core.FilterFunc {
	return func(id protocol.ParticipantID, tick uint64) bool {
		if id == recv {
			h.refusals.Add(1)
			return false
		}
		at, placed := h.rt.Grid().Position(recv)
		src, indexed := h.rt.Grid().Position(id)
		if !placed || !indexed {
			return true
		}
		dx, dz := src.X-at.X, src.Z-at.Z
		tier := h.policy.ClassifySq(id, dx*dx+dz*dz)
		due := tier != interest.TierCulled && (tick^interest.Phase(id))&(1<<tier-1) == 0
		if !due {
			h.refusals.Add(1)
		}
		return due
	}
}

func (h *slotHarness) join(id protocol.ParticipantID) {
	addr := endpoint.Addr(fmt.Sprintf("c%02d", id))
	if err := h.rt.AddClient(id, addr); err != nil {
		h.t.Fatal(err)
	}
	if err := h.rt.Replicate(addr+"~", h.twin(id)); err != nil {
		h.t.Fatal(err)
	}
	h.clients[id] = addr
}

func (h *slotHarness) leave(id protocol.ParticipantID) {
	if _, err := h.rt.RemoveClient(id); err != nil {
		h.t.Fatal(err)
	}
	if err := h.rt.Replicator().RemovePeer(string(h.clients[id]) + "~"); err != nil {
		h.t.Fatal(err)
	}
	delete(h.clients, id)
}

// vacant counts the store's vacant slots among those about to be seated by
// new IDs: the table is as long as the most entities it has held, and only
// a removal frees a slot.
func (h *slotHarness) vacant(ids ...protocol.ParticipantID) int {
	fresh := 0
	for _, id := range ids {
		if _, stored := h.rt.Store().Get(id); !stored {
			fresh++
		}
	}
	n := min(fresh, h.highWater-h.rt.Store().Len())
	h.recycled += n
	return n
}

// betweenTicks is the traffic a node takes between two ticks: sessions
// joining and leaving, handoffs that leave the entity stored, pins, and — on
// the cloud — every learner's pose, and learners withdrawn (RemoveEntity)
// and replaced at once, so a newcomer's first write lands in the slot a
// departure vacated after the last plan.
func (h *slotHarness) betweenTicks(step int) {
	for k := 0; k < 3; k++ {
		id := protocol.ParticipantID(1 + h.rng.Intn(24))
		_, client := h.clients[id]
		switch op := h.rng.Intn(10); {
		case op < 3 && !client:
			h.join(id)
		case op < 5 && client:
			h.leave(id) // a handoff away: the entity stays stored and placed
		case op < 7 && h.cloud:
			if _, authored := h.learners[id]; authored {
				if client {
					h.leave(id)
				}
				h.rt.RemoveEntity(id) // a session's end
				delete(h.learners, id)
			}
		case op == 7:
			h.policy.Pin(id)
		case op == 8:
			delete(h.policy.Pinned, id)
		}
	}
	if !h.cloud {
		return
	}
	for id := protocol.ParticipantID(1); id <= 24; id++ {
		if _, client := h.clients[id]; !client && h.rng.Intn(4) != 0 {
			continue
		}
		p, authored := h.learners[id]
		if !authored || h.rng.Intn(8) == 0 {
			p = h.pos()
		} else {
			p = p.Add(mathx.V3(h.rng.Float64()-0.5, 0, h.rng.Float64()-0.5))
		}
		if h.vacant(id) > 0 {
			h.between++
		}
		e := entity(id, 0, p)
		h.rt.Upsert(&e, e.Pose.Position())
		h.learners[id] = p
		h.highWater = max(h.highWater, h.rt.Store().Len())
	}
}

// tick runs one server tick: the upstream moves, joins and drops entities,
// the runtime mirrors it (the cloud retaining its own learners), and plans.
func (h *slotHarness) tick(step int) {
	h.up.BeginTick()
	lo := protocol.ParticipantID(1) // the relay's upstream carries everyone
	if h.cloud {
		lo = 101 // the edge's locals
	}
	for k := 0; k < 8; k++ {
		id := lo + protocol.ParticipantID(h.rng.Intn(40))
		if h.rng.Intn(3) == 0 {
			h.up.Remove(id)
			continue
		}
		h.up.Upsert(entity(id, 1, h.pos()))
	}
	h.rt.Store().BeginTick()
	before := h.rt.Store().IDs()
	h.vacant(h.up.IDs()...)
	if h.cloud {
		h.rt.MirrorPeers(func(e protocol.EntityState) bool { return e.Home == 0 })
	} else {
		h.rt.MirrorPeers(nil)
	}
	for _, id := range before {
		if _, stored := h.rt.Store().Get(id); !stored {
			h.departures++
		}
	}
	h.highWater = max(h.highWater, h.rt.Store().Len())
	h.check(step)
	h.plan(step)
}

// check asserts the slot invariant: the grid holds exactly the store's IDs,
// each placed where its state stands.
func (h *slotHarness) check(step int) {
	h.t.Helper()
	ids := h.rt.Store().IDs()
	if h.rt.Grid().Len() != len(ids) {
		h.t.Fatalf("step %d: the grid places %d entities, the store holds %d", step, h.rt.Grid().Len(), len(ids))
	}
	for _, id := range ids {
		e, _ := h.rt.Store().Get(id)
		if p, placed := h.rt.Grid().Position(id); !placed || p != e.Pose.Position() {
			h.t.Fatalf("step %d: entity %d stored at %v, placed=%v at %v", step, id, e.Pose.Position(), placed, p)
		}
	}
}

// plan plans the tick and holds every client's message to its twin's, byte
// for byte, then acks both alike: at a random lag, or not at all.
func (h *slotHarness) plan(step int) {
	h.t.Helper()
	frames := map[string][]byte{}
	for _, pm := range h.rt.Replicator().PlanTick() {
		if pm.Msg != nil {
			frames[pm.Peer] = pm.Msg.Bytes()
		}
	}
	tick := h.rt.Store().Tick()
	for id, addr := range h.clients {
		got, sent := frames[string(addr)]
		want, twinSent := frames[string(addr)+"~"]
		if sent != twinSent || !bytes.Equal(got, want) {
			h.t.Fatalf("step %d: client %d's message (%d bytes, sent=%v) differs from its twin's (%d bytes, sent=%v)",
				step, id, len(got), sent, len(want), twinSent)
		}
		h.compared++
		if lag := uint64(h.rng.Intn(4)); lag < 3 && tick > lag {
			for _, peer := range []string{string(addr), string(addr) + "~"} {
				if err := h.rt.Replicator().Ack(peer, tick-lag); err != nil {
					h.t.Fatal(err)
				}
			}
		}
	}
}

// TestGridPlacesAtStoreSlots holds the grid to the store on a cloud-shaped
// and a relay-shaped runtime: after every tick it places exactly the store's
// IDs, each where its state stands, and every client's plan message equals
// its twin's, so each set's bits named the slots the store's records sit in —
// a newcomer in a vacated slot classified as itself, not read with the bit
// its predecessor left (on the cloud, also when its first write lands
// between ticks). Checked to fail when RemoveEntity leaves the grid entry,
// and when MirrorPeers places at a slot other than the store's.
func TestGridPlacesAtStoreSlots(t *testing.T) {
	for _, cloud := range []bool{true, false} {
		t.Run(map[bool]string{true: "cloud", false: "relay"}[cloud], func(t *testing.T) {
			h := newSlotHarness(t, cloud, 61)
			for step := 0; step < 400; step++ {
				h.betweenTicks(step)
				h.check(step)
				h.tick(step)
			}
			t.Logf("%d seats in vacant slots (%d between ticks), %d mirror departures, %d messages compared, %d refusals",
				h.recycled, h.between, h.departures, h.compared, h.refusals.Load())
			if h.recycled < 100 || h.departures < 100 || h.compared < 2000 || h.refusals.Load() < 10000 || (cloud && h.between < 30) {
				t.Fatal("the schedule does not exercise the invariant")
			}
		})
	}
}
