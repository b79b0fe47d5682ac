package endpoint_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"metaclass/internal/client"
	"metaclass/internal/cloud"
	"metaclass/internal/endpoint"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/transport"
	"metaclass/internal/vclock"
)

// The churn-parity scenario drives the cloud through a fixed join/leave
// schedule of VR clients — the node-runtime lifecycle under churn — in
// lock-step rounds over an arbitrary backend. Joins are staggered one per
// round (so each learner's first pose, and with it seat assignment, lands
// in a deterministic round) and every op happens at a quiescent round
// boundary, which makes the registries byte-comparable across backends.
const churnParityRounds = 14

// churnScheduleFor returns the join/leave ops before round (0 = none).
func churnScheduleFor(round int) (join, leave protocol.ParticipantID) {
	switch round {
	case 2:
		return 1, 0
	case 4:
		return 2, 0
	case 6:
		return 3, 1
	case 9:
		return 4, 2
	case 12:
		return 0, 3
	}
	return 0, 0
}

// churnBackend abstracts the transport construction for one pass.
type churnBackend struct {
	sim   *vclock.Sim
	cloud *cloud.Server
	// newClient returns the transport for a joining client and a teardown
	// (close the endpoint / detach the host) for its leave.
	newClient func(t *testing.T, id protocol.ParticipantID) (endpoint.Transport, func() error)
	// settle waits until the round's in-flight traffic has been consumed.
	settle func(t *testing.T, round int)

	clients map[protocol.ParticipantID]*client.VR
	closers map[protocol.ParticipantID]func() error
	joined  []protocol.ParticipantID // every id ever joined, in join order
}

func clientName(id protocol.ParticipantID) endpoint.Addr {
	return endpoint.Addr(fmt.Sprintf("vr-%d", id))
}

// counts snapshots the lock-step progress markers: the cloud's decoded
// message count plus every ever-joined client's applied-update count
// (departed clients' counters are frozen and must stay frozen).
func (b *churnBackend) counts() map[string]uint64 {
	out := map[string]uint64{"cloud": b.cloud.Metrics().Counter("sync.msgs.recv").Value()}
	for _, id := range b.joined {
		out[string(clientName(id))] = b.clients[id].Metrics().Counter("recv.updates").Value()
	}
	return out
}

func countsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// run drives the schedule and returns the concatenated fingerprint of the
// cloud and every client registry (in join order), plus the final world.
func (b *churnBackend) run(t *testing.T) string {
	t.Helper()
	const tick = time.Second / 30
	if err := b.cloud.Start(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= churnParityRounds; round++ {
		join, leave := churnScheduleFor(round)
		if leave != 0 {
			v := b.clients[leave]
			v.Stop()
			if err := b.cloud.RemoveClient(leave); err != nil {
				t.Fatal(err)
			}
			if err := b.closers[leave](); err != nil {
				t.Fatal(err)
			}
		}
		if join != 0 {
			tr, closer := b.newClient(t, join)
			v, err := client.NewVR(b.sim, tr, client.VRConfig{
				Participant: join, Server: "cloud", PublishHz: 30,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.cloud.AddClient(join, clientName(join)); err != nil {
				t.Fatal(err)
			}
			if err := v.Start(); err != nil {
				t.Fatal(err)
			}
			b.clients[join] = v
			b.closers[join] = closer
			b.joined = append(b.joined, join)
		}
		if err := b.sim.Run(b.sim.Now() + tick); err != nil {
			t.Fatal(err)
		}
		b.settle(t, round)
	}
	b.cloud.Stop()
	var sb strings.Builder
	sb.WriteString(b.cloud.Metrics().String())
	ids := append([]protocol.ParticipantID(nil), b.joined...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sb.WriteString(b.clients[id].Metrics().String())
	}
	fmt.Fprintf(&sb, "world=%d clients=%d\n", b.cloud.World().Len(), b.cloud.ClientCount())
	return sb.String()
}

// TestChurnNetsimTCPParity is the TCP half of the churn lifecycle gate: the
// identical join/leave storm over the netsim fabric and real TCP loopback
// sockets must produce byte-identical cloud and client registries, with
// zero frames live once both passes are stopped and every endpoint closed —
// covering peer teardown, pooled re-onboarding, and in-flight frame release
// on both backends.
func TestChurnNetsimTCPParity(t *testing.T) {
	live0 := protocol.LiveFrames()

	// Pass 1: netsim. Zero-latency lossless links settle each round inside
	// sim.Run; record the per-round counters as the TCP pass's targets.
	simA := vclock.New(2)
	net := netsim.New(simA)
	csA, err := cloud.New(simA, net.Endpoint("cloud"), cloud.Config{TickHz: 30})
	if err != nil {
		t.Fatal(err)
	}
	var wantCounts [churnParityRounds + 1]map[string]uint64
	ns := &churnBackend{
		sim:     simA,
		cloud:   csA,
		clients: map[protocol.ParticipantID]*client.VR{},
		closers: map[protocol.ParticipantID]func() error{},
	}
	ns.newClient = func(t *testing.T, id protocol.ParticipantID) (endpoint.Transport, func() error) {
		name := netsim.Addr(clientName(id))
		ep := net.Endpoint(name)
		tr := endpoint.Transport(ep)
		// The link must exist before replication flows; hosts register at
		// Bind, which happens inside client.NewVR — so connect lazily on
		// first use via a wrapper is unnecessary: AddHost now, link now.
		if !net.HasHost(name) {
			if err := net.AddHost(name, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.ConnectBoth(name, "cloud", netsim.LinkConfig{}); err != nil {
			t.Fatal(err)
		}
		return tr, ep.Close
	}
	ns.settle = func(t *testing.T, round int) { wantCounts[round] = ns.counts() }
	netsimFP := ns.run(t)
	if err := simA.Run(simA.Now() + time.Second); err != nil {
		t.Fatal(err)
	}

	// Pass 2: TCP loopback, same schedule, pumping every live endpoint until
	// the round's recorded traffic has landed (all at the same virtual time,
	// so histogram observations agree byte for byte).
	cloudEp, err := transport.ListenEndpoint("cloud", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cloudEp.Close() }()
	simB := vclock.New(2)
	csB, err := cloud.New(simB, cloudEp, cloud.Config{TickHz: 30})
	if err != nil {
		t.Fatal(err)
	}
	liveEps := map[protocol.ParticipantID]*transport.Endpoint{}
	tcp := &churnBackend{
		sim:     simB,
		cloud:   csB,
		clients: map[protocol.ParticipantID]*client.VR{},
		closers: map[protocol.ParticipantID]func() error{},
	}
	tcp.newClient = func(t *testing.T, id protocol.ParticipantID) (endpoint.Transport, func() error) {
		ep, err := transport.ListenEndpoint(clientName(id), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Dial("cloud", cloudEp.TCPAddr()); err != nil {
			t.Fatal(err)
		}
		liveEps[id] = ep
		return ep, func() error {
			delete(liveEps, id)
			return ep.Close()
		}
	}
	tcp.settle = func(t *testing.T, round int) {
		deadline := time.Now().Add(10 * time.Second)
		for !countsEqual(tcp.counts(), wantCounts[round]) {
			progressed := cloudEp.Pump()
			for _, ep := range liveEps {
				progressed += ep.Pump()
			}
			if progressed == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("round %d stalled: counts = %v, want %v",
						round, tcp.counts(), wantCounts[round])
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	tcpFP := tcp.run(t)

	if netsimFP != tcpFP {
		t.Fatalf("churn diverged between netsim and TCP:\n--- netsim ---\n%s\n--- tcp ---\n%s",
			netsimFP, tcpFP)
	}
	for _, want := range []string{"sync.msgs.recv", "client.poses", "world=1"} {
		if !strings.Contains(netsimFP, want) {
			t.Fatalf("churn fingerprint missing %q:\n%s", want, netsimFP)
		}
	}

	// Leak gate across both backends.
	if err := cloudEp.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ep := range liveEps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across the churn parity run", live-live0)
	}
}
