package core

import (
	"bytes"
	"math/rand"
	"testing"

	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// TestRefusedFuncMatchesFilter drives one seeded decimating schedule through
// two replicators over one store. One registers each peer with AddPeer and a
// FilterFunc, the other with AddPeerRefusing and a RefusedFunc setting the
// same refusals as bits on the store's slots, plus bits no live entity holds
// (every vacant slot, and a word past the table), which the build must ignore.
// The schedule churns entities (joins, leaves, re-adds, touches), churns a
// peer, acks at per-peer lags with skipped and regressed acks, and lets one
// peer fall past the delta window into keyframes. Every tick the two
// plans must be identical, message by message, and so must every peer's
// StatsOf, its owed count included. Checked to fail when the build tests a
// record's bit by its walk index instead of its slot.
func TestRefusedFuncMatchesFilter(t *testing.T) {
	const span = 90 // the store seats IDs 1..span that are not multiples of 3
	rng := rand.New(rand.NewSource(53))
	store := NewStore()
	byFilter := NewReplicator(store, ReplConfig{})
	pool := work.New(3) // each peer's bits are its own, refreshed on a worker
	defer pool.Close()
	byBits := NewReplicator(store, ReplConfig{Pool: pool})

	filters := map[string]FilterFunc{
		// Interest-shaped: divisors 1, 2, 4 and never, phased by ID.
		"decimated": func(id protocol.ParticipantID, tick uint64) bool {
			d := [4]uint64{1, 2, 4, 0}[id%4]
			return d != 0 && (uint64(id)^tick)&(d-1) == 0
		},
		// Refuses itself (a client's own ID) and a tick-varying sixth.
		"self": func(id protocol.ParticipantID, tick uint64) bool {
			return id != 7 && (uint64(id)*5+tick)%6 != 0
		},
		"all": nil,
	}
	refusing := func(f FilterFunc) RefusedFunc {
		if f == nil {
			return nil
		}
		var bits []uint64
		return func(tick uint64) []uint64 {
			bits = append(bits[:0], make([]uint64, len(store.recs)/64+2)...)
			for id := protocol.ParticipantID(0); id <= span+2; id++ {
				if slot, ok := store.slots[id]; ok && !f(id, tick) {
					bits[slot/64] |= 1 << (slot % 64)
				}
			}
			for _, slot := range store.free {
				bits[slot/64] |= 1 << (slot % 64)
			}
			bits[len(bits)-1] = ^uint64(0)
			return bits
		}
	}
	add := func(peer string) {
		t.Helper()
		if err := byFilter.AddPeer(peer, filters[peer]); err != nil {
			t.Fatal(err)
		}
		if err := byBits.AddPeerRefusing(peer, refusing(filters[peer])); err != nil {
			t.Fatal(err)
		}
	}
	peers, lags := []string{"all", "decimated", "self"}, []uint64{0, 1, 3}
	for _, peer := range peers {
		add(peer)
	}

	snapshots, pastWindow, owedTicks := 0, 0, 0
	for tick := uint64(1); tick <= 500; tick++ {
		store.BeginTick()
		for k := 0; k < 1+rng.Intn(6); k++ {
			id := protocol.ParticipantID(1 + rng.Intn(span))
			if id%3 == 0 {
				id++
			}
			switch rng.Intn(10) {
			case 0:
				store.Remove(id)
			case 1:
				store.Touch(id)
			default:
				store.Upsert(ent(id, float64(rng.Intn(1000))))
			}
		}
		if tick%97 == 50 { // the filtered peer leaves and rejoins from scratch
			for _, r := range []*Replicator{byFilter, byBits} {
				if err := r.RemovePeer("self"); err != nil {
					t.Fatal(err)
				}
			}
			add("self")
		}

		for _, peer := range peers {
			if st, _ := byFilter.StatsOf(peer); st.Acked && tick-st.AckTick > maxDeltaWindow {
				pastWindow++
			}
		}
		want, got := byFilter.PlanTick(), byBits.PlanTick()
		if len(got) != len(want) {
			t.Fatalf("tick %d: refused-bits plan has %d messages, filter plan %d", tick, len(got), len(want))
		}
		for i := range got {
			if got[i].Peer != want[i].Peer || !bytes.Equal(got[i].Msg.Bytes(), want[i].Msg.Bytes()) {
				t.Fatalf("tick %d, message %d to %s: refused-bits plan %+v, filter plan %+v",
					tick, i, want[i].Peer, decoded(t, got[i].Msg), decoded(t, want[i].Msg))
			}
		}
		for _, pm := range want {
			if _, ok := decoded(t, pm.Msg).(*protocol.Snapshot); ok {
				snapshots++
			}
		}

		for i, peer := range peers {
			l := lags[i]
			silent := peer == "decimated" && tick > 150 && tick < 180+maxDeltaWindow // past the window
			switch u := rng.Float64(); {
			case silent || u < 0.15 || tick <= l:
				continue
			case u < 0.2:
				l += 6 // a regressed ack
				if tick <= l {
					continue
				}
			}
			for _, r := range []*Replicator{byFilter, byBits} {
				if err := r.Ack(peer, tick-l); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, peer := range peers {
			sw, err := byFilter.StatsOf(peer)
			if err != nil {
				t.Fatal(err)
			}
			sg, err := byBits.StatsOf(peer)
			if err != nil {
				t.Fatal(err)
			}
			if sg != sw {
				t.Fatalf("tick %d: stats of %s: refused-bits %+v, filter %+v", tick, peer, sg, sw)
			}
			if sw.Owed > 0 {
				owedTicks++
			}
		}
	}
	if snapshots < 30 || pastWindow == 0 || owedTicks < 600 { // seed 53 plans 45 (33 past the window) and carries debt on 999
		t.Fatalf("the schedule planned %d snapshots (%d past the window) and carried debt on %d peer-ticks: too tame to compare", snapshots, pastWindow, owedTicks)
	}
}
