package rig

import (
	"errors"
	"testing"
	"time"

	"metaclass/internal/cloud"
	"metaclass/internal/endpoint"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
	"metaclass/internal/vclock"
)

var access = netsim.ResidentialBroadband(20 * time.Millisecond)

// attachment records its Start and Stop calls (nil log: records nothing).
type attachment struct {
	name string
	log  *[]string
}

func (a attachment) Start() error { a.note("start "); return nil }
func (a attachment) Stop()        { a.note("stop ") }
func (a attachment) note(what string) {
	if a.log != nil {
		*a.log = append(*a.log, what+a.name)
	}
}

func newNetsimRig(t *testing.T) (*Rig, *netsim.Network) {
	t.Helper()
	sim := vclock.New(1)
	net := netsim.New(sim)
	r, err := New(sim, &NetsimFabric{Net: net}, Config{CloudAddr: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	return r, net
}

// refusingFabric is a wrapping Fabric (the seam a tap would use) that can be
// told to refuse links.
type refusingFabric struct {
	Fabric
	refuse bool
}

func (f *refusingFabric) Link(a, b endpoint.Addr, cfg netsim.LinkConfig) error {
	if f.refuse {
		return errors.New("link refused")
	}
	return f.Fabric.Link(a, b, cfg)
}

// TestFailedCallsReclaimEndpoint: every call that creates an endpoint gives
// it back when a later step fails, on netsim (host unbound) and on TCP
// (listener closed), and the address is free for the next caller.
func TestFailedCallsReclaimEndpoint(t *testing.T) {
	r, net := newNetsimRig(t)
	base := net.Tables()
	bad := netsim.LinkConfig{LossRate: 2}
	if _, err := r.AddEdge("edge-a", 1, bad, attachment{}); err == nil {
		t.Error("AddEdge over an invalid link succeeded")
	}
	if _, err := r.AddRelay("relay-a", bad); err == nil {
		t.Error("AddRelay over an invalid link succeeded")
	}
	if _, err := r.Join(1, "vr-1", trace.Seated{}, nil, bad); err == nil {
		t.Error("Join over an invalid link succeeded")
	}
	if got := net.Tables(); got.Hosts != base.Hosts || got.Links != base.Links {
		t.Errorf("netsim after failed calls: %d hosts / %d links, want %d / %d", got.Hosts, got.Links, base.Hosts, base.Links)
	}
	if len(r.edges)+len(r.relays)+len(r.clients)+len(r.via) != 0 {
		t.Errorf("rig tables after failed calls: edges=%d relays=%d clients=%d", len(r.edges), len(r.relays), len(r.clients))
	}
	if _, err := r.Join(1, "vr-1", trace.Seated{}, nil, access); err != nil {
		t.Errorf("Join on the reclaimed address: %v", err)
	}

	tcp := NewTCPFabric()
	defer tcp.Close()
	fab := &refusingFabric{Fabric: tcp}
	rt, err := New(vclock.New(1), fab, Config{CloudAddr: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	fab.refuse = true
	if _, err := rt.AddRelay("relay-a", netsim.LinkConfig{}); err == nil {
		t.Error("AddRelay over a refused TCP link succeeded")
	}
	if _, err := rt.Join(1, "vr-1", trace.Seated{}, nil, netsim.LinkConfig{}); err == nil {
		t.Error("Join over a refused TCP link succeeded")
	}
	if len(tcp.eps) != 1 || rt.Cloud().ClientCount() != 0 {
		t.Errorf("TCP fabric holds %d endpoints, cloud %d clients after failed calls, want 1 and 0", len(tcp.eps), rt.Cloud().ClientCount())
	}
	fab.refuse = false
	rel, err := rt.AddRelay("relay-a", netsim.LinkConfig{})
	if err != nil {
		t.Fatalf("AddRelay on the reclaimed address: %v", err)
	}
	if _, err := rt.Join(1, "vr-1", trace.Seated{}, rel, netsim.LinkConfig{}); err != nil {
		t.Errorf("Join on the reclaimed address: %v", err)
	}
}

// TestAddressInUseRefused: the fabric refuses an address that already has an
// endpoint and the owner is left alone — re-binding would hijack the live
// endpoint and the failure path would then reclaim it from under its owner.
func TestAddressInUseRefused(t *testing.T) {
	r, net := newNetsimRig(t)
	if _, err := r.AddEdge("edge-a", 1, netsim.EdgeToCloud(), attachment{}); err != nil {
		t.Fatal(err)
	}
	base := net.Tables()
	if _, err := r.AddEdge("edge-a", 2, netsim.EdgeToCloud(), attachment{}); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("second edge on edge-a: err = %v, want ErrAddrInUse", err)
	}
	if _, err := r.AddRelay("edge-a", netsim.EdgeToCloud()); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("relay on edge-a: err = %v, want ErrAddrInUse", err)
	}
	if _, err := r.Join(1, "cloud", trace.Seated{}, nil, access); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("session on the cloud's address: err = %v, want ErrAddrInUse", err)
	}
	if got := net.Tables(); got != base {
		t.Errorf("netsim tables changed by refused calls: %+v, want %+v", got, base)
	}
	if _, err := r.Join(1, "vr-1", trace.Seated{}, nil, access); err != nil {
		t.Fatal(err)
	}
	base = net.Tables()
	if _, err := r.Join(1, "vr-other", trace.Seated{}, nil, access); !errors.Is(err, cloud.ErrClientExists) {
		t.Errorf("second session 1: err = %v, want cloud.ErrClientExists", err)
	}
	if got := net.Tables(); got != base || len(r.clients) != 1 {
		t.Errorf("refused duplicate session left %+v and %d sessions, want %+v and 1", got, len(r.clients), base)
	}
}

// TestStartStopLifecycle pins the Start contract: each edge's attachment
// starts with it in classroom-ID order, a second Start is a no-op, nodes
// added while live start at once, and a Start that fails part-way does not
// count as started.
func TestStartStopLifecycle(t *testing.T) {
	r, _ := newNetsimRig(t)
	var log []string
	for _, e := range []struct {
		addr endpoint.Addr
		id   protocol.ClassroomID
	}{{"edge-z", 2}, {"edge-a", 7}, {"edge-m", 1}} {
		if _, err := r.AddEdge(e.addr, e.id, netsim.EdgeToCloud(), attachment{string(e.addr), &log}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Start(); err != nil || !r.Started() {
		t.Fatalf("Start: err=%v started=%v", err, r.Started())
	}
	if err := r.Start(); err != nil {
		t.Fatalf("second Start: %v", err)
	}
	if _, err := r.AddEdge("edge-late", 9, netsim.EdgeToCloud(), attachment{}); !errors.Is(err, ErrStarted) {
		t.Errorf("AddEdge while live: err = %v, want ErrStarted", err)
	}
	rel, err := r.AddRelay("relay-a", netsim.EdgeToCloud())
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Runtime().Started() {
		t.Error("relay added while live is not ticking")
	}
	r.Stop()
	want := []string{"start edge-m", "start edge-z", "start edge-a", "stop edge-m", "stop edge-z", "stop edge-a"}
	if len(log) != len(want) {
		t.Fatalf("attachment calls = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("attachment calls = %v, want %v", log, want)
		}
	}

	// A relay someone started behind the rig's back makes Start fail at it.
	if err := rel.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil || r.Started() {
		t.Errorf("Start over a node that refuses: err=%v started=%v, want an error and not started", err, r.Started())
	}
	r.Stop()
}

// TestLeaveLetsUpstreamLand pins the teardown policy: Leave reclaims the
// endpoint with Remove alone, so what the leaver already put on the wire
// still arrives and is released on delivery — nothing leaks, nothing is
// cancelled. Unknown sessions are refused by Leave and Handoff alike.
func TestLeaveLetsUpstreamLand(t *testing.T) {
	live0 := protocol.LiveFrames()
	r, net := newNetsimRig(t)
	base := net.Tables()
	if _, err := r.Join(1, "vr-1", trace.Seated{}, nil, netsim.LinkConfig{Latency: 80 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	sim := net.Sim()
	if err := sim.Run(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	delivered := net.Stats().Delivered
	if err := r.Leave(1); err != nil {
		t.Fatal(err)
	}
	if got := net.Tables(); got.Hosts != base.Hosts || got.Links != base.Links || got.Inflight == 0 {
		t.Errorf("after Leave: %d hosts / %d links / %d in flight, want %d / %d / the leaver's upstream", got.Hosts, got.Links, got.Inflight, base.Hosts, base.Links)
	}
	r.Stop()
	if err := sim.Run(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().Delivered; got <= delivered {
		t.Error("the leaver's in-flight upstream was cancelled, not delivered")
	}
	if leaked := protocol.LiveFrames() - live0; leaked != 0 || net.Tables().Inflight != 0 {
		t.Errorf("%d frames leaked, %d deliveries in flight after the drain", leaked, net.Tables().Inflight)
	}
	if err := r.Leave(1); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("second Leave: err = %v, want ErrUnknownSession", err)
	}
	if err := r.Handoff(1, nil, access); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("Handoff of a departed session: err = %v, want ErrUnknownSession", err)
	}
}

// TestLinkIsOncePerPair pins the Fabric.Link contract the rig relies on: a
// linked pair is not silently reconfigured, and after Unlink it links again
// (the handoff back to a server the session was on before).
func TestLinkIsOncePerPair(t *testing.T) {
	r, net := newNetsimRig(t)
	if _, err := r.Join(1, "vr-1", trace.Seated{}, nil, access); err != nil {
		t.Fatal(err)
	}
	if err := r.fab.Link("cloud", "vr-1", access); !errors.Is(err, netsim.ErrLinkExists) {
		t.Errorf("second Link of a linked pair: err = %v, want netsim.ErrLinkExists", err)
	}
	if err := r.fab.Unlink("cloud", "vr-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.fab.Unlink("cloud", "vr-1"); err != nil {
		t.Errorf("Unlink of an unlinked pair: %v, want a no-op", err)
	}
	if err := r.fab.Link("cloud", "vr-1", access); err != nil || net.Tables().Links != 2 {
		t.Errorf("Link after Unlink: err=%v links=%d, want nil and 2", err, net.Tables().Links)
	}
}

// TestRetireRelayRefusesServingRelay: a relay still serving a session is not
// retired. RetireRelay refuses it before anything changes, so the relay
// keeps ticking and the cloud keeps routing the learner through it; once the
// session is handed off, the same call retires it.
func TestRetireRelayRefusesServingRelay(t *testing.T) {
	r, net := newNetsimRig(t)
	rel, err := r.AddRelay("relay-a", netsim.EdgeToCloud())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Join(7, "vr-7", trace.Seated{}, rel, access); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	before := net.Tables()
	if err := r.RetireRelay(rel); !errors.Is(err, ErrRelayInUse) {
		t.Fatalf("RetireRelay of a serving relay: err = %v, want ErrRelayInUse", err)
	}
	if got := net.Tables(); got.Hosts != before.Hosts || got.Links != before.Links {
		t.Errorf("the refusal changed the fabric: %d hosts / %d links, want %d / %d", got.Hosts, got.Links, before.Hosts, before.Links)
	}
	if !rel.Runtime().Started() || r.relays[rel.Addr()] != rel || r.via[7] != rel {
		t.Fatal("the refusal stopped or unregistered the relay")
	}
	if err := r.Handoff(7, nil, access); err != nil {
		t.Fatal(err)
	}
	if err := r.RetireRelay(rel); err != nil {
		t.Fatalf("RetireRelay after the handoff: %v", err)
	}
	if rel.Runtime().Started() {
		t.Error("the retired relay still ticks")
	}
}

// TestRetireRelayRefusesNil: nil names the cloud wherever a relay is asked
// for, and the cloud is not a relay. RetireRelay(nil) is refused as a foreign
// relay is, with no session (it once stopped the nil relay) and with a
// cloud-served one (it once claimed the relay was in use), and the refusal
// changes nothing.
func TestRetireRelayRefusesNil(t *testing.T) {
	r, net := newNetsimRig(t)
	if err := r.RetireRelay(nil); !errors.Is(err, ErrForeignRelay) {
		t.Fatalf("RetireRelay(nil) on an empty rig: err = %v, want ErrForeignRelay", err)
	}
	if _, err := r.Join(7, "vr-7", trace.Seated{}, nil, access); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	before := net.Tables()
	if err := r.RetireRelay(nil); !errors.Is(err, ErrForeignRelay) {
		t.Fatalf("RetireRelay(nil) with a cloud-served session: err = %v, want ErrForeignRelay", err)
	}
	if got := net.Tables(); got.Hosts != before.Hosts || got.Links != before.Links {
		t.Errorf("the refusal changed the fabric: %d hosts / %d links, want %d / %d", got.Hosts, got.Links, before.Hosts, before.Links)
	}
	if via, ok := r.via[7]; !ok || via != nil || !r.cloud.Runtime().Started() {
		t.Fatal("the refusal stopped the cloud or moved the session")
	}
}

// TestHandoffRefusedLinkKeepsSession: a handoff whose new link the fabric
// refuses changes nothing. The relay keeps serving the learner, the cloud
// keeps routing it through the relay, the rig's tables and the fabric are as
// they were, and the learner keeps receiving a moving classmate.
func TestHandoffRefusedLinkKeepsSession(t *testing.T) {
	sim := vclock.New(1)
	net := netsim.New(sim)
	fab := &refusingFabric{Fabric: &NetsimFabric{Net: net}}
	r, err := New(sim, fab, Config{CloudAddr: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := r.AddRelay("relay-a", netsim.EdgeToCloud())
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Join(7, "vr-7", trace.Seated{}, rel, access)
	if err != nil {
		t.Fatal(err)
	}
	lecturer := trace.Lecturer{Left: mathx.V3(-2, 0, 1), Right: mathx.V3(2, 0, 1), PeriodS: 4}
	if _, err := r.Join(8, "vr-8", lecturer, nil, access); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := sim.Run(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	before := net.Tables()
	fab.refuse = true
	if err := r.Handoff(7, nil, access); err == nil {
		t.Fatal("Handoff over a refused link succeeded")
	}
	if got := net.Tables(); got.Hosts != before.Hosts || got.Links != before.Links {
		t.Errorf("the refusal changed the fabric: %d hosts / %d links, want %d / %d", got.Hosts, got.Links, before.Hosts, before.Links)
	}
	if c, ok := rel.Runtime().Client(7); !ok || c.Addr != "vr-7" {
		t.Error("the relay no longer serves learner 7")
	}
	if c, ok := r.Cloud().Runtime().Client(7); !ok || c.Addr != rel.Addr() || c.Replicated {
		t.Error("the cloud no longer routes learner 7 via the relay")
	}
	if r.via[7] != rel || r.clients[7] != v {
		t.Error("the rig's tables moved learner 7")
	}
	updates := v.Metrics().Counter("recv.updates").Value()
	if err := sim.Run(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if got := v.Metrics().Counter("recv.updates").Value(); got <= updates {
		t.Errorf("learner 7's recv.updates stayed at %d after the refusal", got)
	}
}
