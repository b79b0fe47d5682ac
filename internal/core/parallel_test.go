package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"metaclass/internal/protocol"
	"metaclass/internal/work"
)

// drivePooledVsInline churns two identically-mutated stores for many ticks
// — one planned inline (nil pool), one planned on a pool of the given width —
// with a randomized mix of filtered peers, ack-cohort peers, a never-acking
// peer, a peer that falls past the delta window between acks, and membership
// churn, asserting every tick that the pooled plan is
// byte-identical to the inline one: same peer order, same encoded frames,
// and at the end the same per-peer counters. Run under
// -race in CI, it is also the data-race probe for the concurrent builds.
func drivePooledVsInline(t *testing.T, workers, ticks int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(workers)*1000 + 17))
	pool := work.New(workers)
	defer pool.Close()

	sSer, sPar := NewStore(), NewStore()
	rSer := NewReplicator(sSer, ReplConfig{})
	rPar := NewReplicator(sPar, ReplConfig{Pool: pool})
	const slowPeer = "peer-001" // acks less often than the delta window spans

	filters := []FilterFunc{
		nil,
		nil, // unfiltered peers dominate so ack-cohorts form
		func(id protocol.ParticipantID, _ uint64) bool { return id%2 == 0 },
		func(id protocol.ParticipantID, _ uint64) bool { return id%3 != 0 },
		func(id protocol.ParticipantID, tick uint64) bool { return (uint64(id)+tick)%4 != 0 },
	}
	nPeers := 0
	addPeer := func() string {
		id := fmt.Sprintf("peer-%03d", nPeers)
		f := filters[nPeers%len(filters)]
		if err := rSer.AddPeer(id, f); err != nil {
			t.Fatal(err)
		}
		if err := rPar.AddPeer(id, f); err != nil {
			t.Fatal(err)
		}
		nPeers++
		return id
	}
	for i := 0; i < 10; i++ {
		addPeer()
	}

	var peerBuf []string
	compared, pastWindow := 0, 0
	for tick := 0; tick < ticks; tick++ {
		mutSeed := rng.Int63()
		for _, s := range []*Store{sSer, sPar} {
			mrng := rand.New(rand.NewSource(mutSeed))
			s.BeginTick()
			for i := 0; i < 6; i++ {
				id := protocol.ParticipantID(mrng.Intn(48) + 1)
				if mrng.Float64() < 0.12 {
					s.Remove(id)
				} else {
					s.Upsert(ent(id, mrng.Float64()*20))
				}
			}
		}
		if tick%23 == 11 {
			addPeer()
		}
		if tick%31 == 19 && nPeers > 4 {
			victim := fmt.Sprintf("peer-%03d", rng.Intn(nPeers))
			if rSer.HasPeer(victim) && victim != slowPeer {
				_ = rSer.RemovePeer(victim)
				_ = rPar.RemovePeer(victim)
			}
		}

		for _, id := range rSer.PeersAppend(peerBuf[:0]) {
			if st, _ := rSer.StatsOf(id); st.Acked && sSer.Tick()-st.AckTick > maxDeltaWindow {
				pastWindow++
			}
		}
		planSer := rSer.PlanTick()
		planPar := rPar.PlanTick()
		if len(planSer) != len(planPar) {
			t.Fatalf("workers=%d tick %d: pooled planned %d messages, inline %d",
				workers, tick, len(planPar), len(planSer))
		}
		for i := range planSer {
			if planPar[i].Peer != planSer[i].Peer {
				t.Fatalf("workers=%d tick %d msg %d: peer %s, inline %s",
					workers, tick, i, planPar[i].Peer, planSer[i].Peer)
			}
			if !bytes.Equal(planPar[i].Msg.Bytes(), planSer[i].Msg.Bytes()) {
				t.Fatalf("workers=%d tick %d: frame to %s diverged from inline plan",
					workers, tick, planPar[i].Peer)
			}
			compared++
		}

		// Mixed-cadence acks (peer index 0 never acks) keep several distinct
		// ack baselines — and therefore several delta cohorts — live.
		peerBuf = rSer.PeersAppend(peerBuf[:0])
		for i, id := range peerBuf {
			if id == slowPeer {
				if tick%(maxDeltaWindow+30) != 0 {
					continue
				}
			} else if i == 0 || tick%(i%5+2) != 0 {
				continue
			}
			if err := rSer.Ack(id, sSer.Tick()); err != nil {
				t.Fatal(err)
			}
			if err := rPar.Ack(id, sPar.Tick()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if compared == 0 {
		t.Fatal("test compared no messages")
	}
	if pastWindow == 0 {
		t.Fatal("no acked peer fell past the delta window")
	}
	for _, id := range rSer.Peers() {
		ss, err := rSer.StatsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := rPar.StatsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if ss != sp {
			t.Fatalf("workers=%d: stats of %s diverged: pooled %+v, inline %+v", workers, id, sp, ss)
		}
	}
}

// TestPlanTickWidthInvariant covers the deterministic-merge contract: the
// plan on a nil pool against the plan at worker counts 1, 2, and 8.
func TestPlanTickWidthInvariant(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			drivePooledVsInline(t, workers, 400)
		})
	}
}
