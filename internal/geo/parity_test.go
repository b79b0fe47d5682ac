package geo

import (
	"strings"
	"testing"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/endpoint"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/rig"
	"metaclass/internal/vclock"
)

// The geo parity scenario drives the identical placement → roam → drain
// schedule over the netsim fabric and real TCP loopback sockets, in
// lock-step rounds of one server tick. Links are zero-latency and lossless,
// every event (publish, relay tick, cloud tick) lands on the shared 30 Hz
// grid, and every migration happens at a quiescent round boundary — so both
// backends observe identical virtual timings and the registries must come
// out byte-identical. Joins are staggered one per round: seat assignment
// happens on each learner's first pose, and when several first poses share
// a round, TCP socket arrival order (not the virtual clock) would pick the
// seats.
const geoParityRounds = 20

type geoParityPass struct {
	sim *vclock.Sim
	d   *Deployment
	// everRelays pins the registries of relays that later drain (their
	// counters freeze and must stay frozen on both backends).
	everRelays map[region.ID]*cloud.Relay
	// settle drains the round's in-flight traffic (a no-op on netsim, a
	// pump-until-quiet loop on TCP).
	settle func(t *testing.T, round int)
}

// flatLinks makes every path zero-latency and lossless so netsim delivers
// at the send instant and parity with pumped TCP holds exactly.
type flatLinks struct{ rig.Fabric }

func (f flatLinks) Link(a, b endpoint.Addr, _ netsim.LinkConfig) error {
	return f.Fabric.Link(a, b, netsim.LinkConfig{})
}

func newGeoParityPass(t *testing.T, sim *vclock.Sim, fab rig.Fabric) *geoParityPass {
	t.Helper()
	d, err := New(sim, flatLinks{fab}, Config{
		Topology:    region.GlobalCampus(),
		CloudRegion: "hk",
		PublishHz:   30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &geoParityPass{sim: sim, d: d, everRelays: map[region.ID]*cloud.Relay{}}
}

// counts snapshots the lock-step progress markers: the cloud's decoded
// message count, every relay's forwarded-pose count plus upstream-replica
// apply count, and every client's applied-update count plus the ack floor
// its serving node holds for it — a round is over only once the client's
// acks have landed too, or the next plan starts from a different baseline.
func (p *geoParityPass) counts() map[string]uint64 {
	out := map[string]uint64{
		"cloud": p.d.Cloud().Metrics().Counter("sync.msgs.recv").Value(),
	}
	for rr, rel := range p.everRelays {
		out["relay-"+string(rr)+"-fwd"] = rel.Metrics().Counter("forwarded.up").Value()
		out["relay-"+string(rr)+"-apply"] = rel.Metrics().Histogram("upstream.pose.age").Count()
	}
	for _, id := range p.d.SessionIDs() {
		s, _ := p.d.Session(id)
		out[string(s.VR.Addr())] = s.VR.Metrics().Counter("recv.updates").Value()
		rt := p.d.Cloud().Runtime()
		if s.served != "" {
			rt = p.d.relays[s.served].Runtime()
		}
		st, _ := rt.Replicator().StatsOf(string(s.VR.Addr()))
		out[string(s.VR.Addr())+"-ack"] = st.AckTick
	}
	return out
}

// run drives the schedule (rounds) and stops the deployment. Returns the
// concatenated fingerprint.
func (p *geoParityPass) run(t *testing.T) string {
	t.Helper()
	p.rounds(t)
	p.d.Stop()

	var b strings.Builder
	b.WriteString(p.d.Cloud().Metrics().String())
	everRegions := make([]region.ID, 0, len(p.everRelays))
	for rr := range p.everRelays {
		everRegions = append(everRegions, rr)
	}
	for i := range everRegions { // tiny fixed set: insertion sort is plenty
		for j := i + 1; j < len(everRegions); j++ {
			if everRegions[j] < everRegions[i] {
				everRegions[i], everRegions[j] = everRegions[j], everRegions[i]
			}
		}
	}
	for _, rr := range everRegions {
		b.WriteString(p.everRelays[rr].Metrics().String())
	}
	for _, id := range p.d.SessionIDs() {
		s, _ := p.d.Session(id)
		b.WriteString(s.VR.Metrics().String())
	}
	b.WriteString(p.d.Metrics().String())
	return b.String()
}

// rounds starts the deployment and drives the schedule: one join per round
// for nine rounds (kr, then us-east, then sa-poor cohorts), deploy before
// round 11, roam before round 13, drain us-east before round 16.
func (p *geoParityPass) rounds(t *testing.T) {
	t.Helper()
	const tick = time.Second / 30
	regions := []region.ID{"kr", "us-east", "sa-poor"}
	if err := p.d.Start(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= geoParityRounds; round++ {
		switch {
		case round <= 9:
			id := protocol.ParticipantID(round)
			if _, err := p.d.Join(id, regions[(round-1)/3]); err != nil {
				t.Fatal(err)
			}
		case round == 11:
			placed, err := p.d.Deploy(2)
			if err != nil {
				t.Fatal(err)
			}
			for _, rr := range placed {
				rel, _ := p.d.Relay(rr)
				p.everRelays[rr] = rel
			}
		case round == 13:
			if moved, err := p.d.Roam(); err != nil || moved != 6 {
				t.Fatalf("round 13 roam: moved=%d err=%v", moved, err)
			}
		case round == 16:
			if err := p.d.Drain("us-east"); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.sim.Run(p.sim.Now() + tick); err != nil {
			t.Fatal(err)
		}
		p.settle(t, round)
	}
}

// TestEarlyAckStrandsNoContent pins the early-ack hole (PERFORMANCE.md "The
// ack contract / Still open"): on zero-latency links an ack of tick T reaches
// the serving node before T+1 is planned, so delta T+1 is built on base T and
// content stamped T after T's plan is in nobody's window. The parity schedule
// runs on netsim at sim seed 3, the publishers stop after its last round, and
// the deployment quiesces for 3 s; every (session, entity) pair must then
// hold the cloud world's state. It is skipped until the fix lands: 32 pairs
// stay one publish behind.
func TestEarlyAckStrandsNoContent(t *testing.T) {
	t.Skip("early ack: 32 (session, entity) pairs stay one publish behind after the quiesce")
	sim := vclock.New(3)
	p := newGeoParityPass(t, sim, &rig.NetsimFabric{Net: netsim.New(sim)})
	p.settle = func(*testing.T, int) {}
	p.rounds(t)
	for _, id := range p.d.SessionIDs() {
		s, _ := p.d.Session(id)
		s.VR.Stop()
	}
	if err := sim.Run(sim.Now() + 3*time.Second); err != nil {
		t.Fatal(err)
	}
	p.d.Stop()
	world := p.d.Cloud().World()
	stranded := 0
	for _, id := range p.d.SessionIDs() {
		s, _ := p.d.Session(id)
		for _, eid := range world.IDs() {
			if eid == id {
				continue
			}
			want, _ := world.Get(eid)
			if got, ok := s.VR.ReplicaStore().Get(eid); !ok || got.CapturedAt != want.CapturedAt || got.Pose != want.Pose {
				stranded++
			}
		}
	}
	if stranded != 0 {
		t.Fatalf("%d (session, entity) pairs differ from the cloud world after a 3 s quiesce (Converged: %v)", stranded, p.d.Converged())
	}
}

// diffFP renders the first mismatching lines of two fingerprints.
func diffFP(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out strings.Builder
	n := 0
	reg := ""
	for i := 0; i < len(al) || i < len(bl); i++ {
		var la, lb string
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if strings.Contains(la, "registry") {
			reg = la
		}
		if la == lb {
			continue
		}
		out.WriteString("in " + reg + "\nnetsim: " + la + "\ntcp:    " + lb + "\n")
		if n++; n >= 12 {
			out.WriteString("...\n")
			break
		}
	}
	return out.String()
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

// TestGeoNetsimTCPParity is the cross-backend gate for the deployment
// layer: the same placement, roam, and drain schedule over simulated links
// and real TCP loopback must produce byte-identical metrics registries on
// every node — including the drained relay's frozen registry — with zero
// frames live once both passes are torn down.
func TestGeoNetsimTCPParity(t *testing.T) {
	live0 := protocol.LiveFrames()

	// Pass 1: netsim. Zero-latency links settle transitively inside each
	// sim.Run; record per-round counters as the TCP pass's targets.
	var wantCounts [geoParityRounds + 1]map[string]uint64
	simA := vclock.New(3)
	ns := newGeoParityPass(t, simA, &rig.NetsimFabric{Net: netsim.New(simA)})
	ns.settle = func(t *testing.T, round int) { wantCounts[round] = ns.counts() }
	netsimFP := ns.run(t)
	if err := ns.sim.Run(ns.sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}

	// Pass 2: TCP loopback, same schedule, pumping until each round's
	// traffic — including multi-hop forwards and acks — has fully landed.
	fab := rig.NewTCPFabric()
	defer fab.Close()
	tcp := newGeoParityPass(t, vclock.New(3), fab)
	tcp.settle = func(t *testing.T, round int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			progressed := fab.Pump()
			if progressed == 0 && countsEqual(tcp.counts(), wantCounts[round]) {
				return
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
		t.Fatalf("geo schedule diverged between netsim and TCP:\n%s", diffFP(netsimFP, tcpFP))
	}
	for _, want := range []string{"geo.migrations", "geo.drains", "forwarded.up", "recv.updates"} {
		if !strings.Contains(netsimFP, want) {
			t.Fatalf("parity fingerprint missing %q:\n%s", want, netsimFP)
		}
	}

	fab.Close()
	if live := protocol.LiveFrames(); live != live0 {
		t.Fatalf("%d frames leaked across the geo parity run", live-live0)
	}
}
