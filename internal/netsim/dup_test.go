package netsim

import (
	"slices"
	"testing"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/mathx"
	"metaclass/internal/protocol"
	"metaclass/internal/vclock"
)

// TestDuplicatedStreamConvergesLikeClean sends one replication stream to two
// replicas over equal links, every frame twice to the first and once to the
// second. The two sends of a frame share it, one reference each, and take
// their own jitter draws; every copy is released once: live frames return to
// their baseline. The duplicated stream — keyframes, removals and a re-add
// among its deltas — leaves its replica equal to the clean one: the same
// entities, states and poses.
func TestDuplicatedStreamConvergesLikeClean(t *testing.T) {
	live0 := protocol.LiveFrames()
	sim := vclock.New(7)
	n := New(sim)
	// Jitter stays under the send interval, so copies of one frame arrive
	// before the next frame does: duplication without reordering.
	link := LinkConfig{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}

	type receiver struct {
		rep      *core.Replica
		arrivals int
	}
	recv := map[Addr]*receiver{}
	for _, addr := range []Addr{"dup", "clean"} {
		rc := &receiver{rep: core.NewReplica(core.PlayoutDelay, nil)}
		recv[addr] = rc
		if err := n.AddHost(addr, HandlerFunc(func(_ Addr, payload []byte) {
			rc.arrivals++
			msg, _, err := protocol.Decode(payload)
			if err != nil {
				t.Errorf("%s: decode: %v", addr, err)
				return
			}
			if _, ok := rc.rep.Apply(msg, sim.Now()); !ok {
				t.Errorf("%s: apply rejected a %T", addr, msg)
			}
		})); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddHost("src", nil); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []Addr{"dup", "clean"} {
		if err := n.Connect("src", dst, link); err != nil {
			t.Fatal(err)
		}
	}

	const ticks, interval = 60, 33 * time.Millisecond
	store := core.NewStore()
	delta, snap := &protocol.Delta{}, &protocol.Snapshot{}
	for k := 1; k <= ticks; k++ {
		sim.At(time.Duration(k)*interval, func() {
			tick := store.BeginTick()
			for id := protocol.ParticipantID(1); id <= 6; id++ {
				if id == 3 && k >= 20 && k < 30 {
					if k == 20 {
						store.Remove(id)
					}
					continue
				}
				store.Upsert(protocol.EntityState{
					Participant: id,
					CapturedAt:  sim.Now(),
					Pose:        protocol.QuantizePose(mathx.V3(float64(id)+float64(k)/10, 0, 0), mathx.QuatIdentity()),
					VelMMS:      [3]int64{3000, 0, 0},
				})
			}
			var msg protocol.Message = delta
			if k%10 == 1 {
				store.SnapshotInto(nil, snap)
				msg = snap
			} else {
				store.DeltaSinceInto(tick-1, nil, delta)
			}
			for _, dst := range []Addr{"dup", "clean"} {
				f, err := protocol.EncodeFrame(msg)
				if err != nil {
					t.Fatal(err)
				}
				sends := 1
				if dst == "dup" {
					f.Retain()
					sends = 2
				}
				for range sends {
					if err := n.SendFrame("src", dst, f); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	if err := sim.Run(time.Duration(ticks+2) * interval); err != nil {
		t.Fatal(err)
	}

	dup, clean := recv["dup"], recv["clean"]
	if clean.arrivals != ticks || dup.arrivals != 2*ticks {
		t.Fatalf("arrivals: clean %d, duplicated %d; want %d and %d", clean.arrivals, dup.arrivals, ticks, 2*ticks)
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("live frames %d -> %d", live0, live)
	}
	ids := clean.rep.Participants()
	if got := dup.rep.Participants(); !slices.Equal(got, ids) || len(ids) != 6 {
		t.Fatalf("participants: duplicated %v, clean %v", got, ids)
	}
	if got, want := dup.rep.Store().Tick(), clean.rep.Store().Tick(); got != want || got != ticks {
		t.Fatalf("tick: duplicated %d, clean %d, want %d", got, want, ticks)
	}
	for _, id := range ids {
		got, _ := dup.rep.Store().Get(id)
		want, _ := clean.rep.Store().Get(id)
		if got.Participant != want.Participant || got.CapturedAt != want.CapturedAt || got.Pose != want.Pose || got.VelMMS != want.VelMMS {
			t.Fatalf("entity %d: duplicated %+v, clean %+v", id, got, want)
		}
		for _, at := range []time.Duration{sim.Now() - 200*time.Millisecond, sim.Now(), sim.Now() + 50*time.Millisecond} {
			gp, gok := dup.rep.Pose(id, at)
			wp, wok := clean.rep.Pose(id, at)
			if gp != wp || gok != wok {
				t.Fatalf("Pose(%d, %v): duplicated %v,%v, clean %v,%v", id, at, gp, gok, wp, wok)
			}
		}
	}
}
