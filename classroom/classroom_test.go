package classroom

import (
	"errors"
	"testing"
	"time"

	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/rig"
	"metaclass/internal/trace"
)

// buildUnitCase assembles the paper's Fig. 2 deployment: GZ and CWB
// campuses, a lecturer and learners at each, plus remote VR learners.
func buildUnitCase(t *testing.T, seed int64) (d *Deployment, teacher ParticipantID,
	gz, cwb *Campus, remotes []ParticipantID) {
	t.Helper()
	var err error
	d, err = NewDeployment(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gz, err = d.AddCampus("gz", 1)
	if err != nil {
		t.Fatal(err)
	}
	cwb, err = d.AddCampus("cwb", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ConnectCampuses(gz, cwb); err != nil {
		t.Fatal(err)
	}
	teacher, err = gz.AddEducator("prof-wang", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := gz.AddLearner("gz-student", trace.Seated{
			Anchor: mathx.V3(float64(i)-2, 0, 3), Phase: float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := cwb.AddLearner("cwb-student", trace.Seated{
			Anchor: mathx.V3(float64(i)-2, 0, 3), Phase: float64(i) + 0.5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		_, id, err := d.AddRemoteLearner("kaist-student", trace.Seated{
			Anchor: mathx.V3(float64(i), 0, 1), Phase: float64(i) * 1.3,
		}, netsim.ResidentialBroadband(30*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		remotes = append(remotes, id)
	}
	return d, teacher, gz, cwb, remotes
}

func TestUnitCaseEveryoneVisibleEverywhere(t *testing.T) {
	d, teacher, gz, cwb, remotes := buildUnitCase(t, 1)
	if err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := 1 + 5 + 5 + 3 // teacher + gz + cwb + remote

	// The cloud's world must contain everyone.
	if got := d.Cloud().World().Len(); got != total {
		t.Errorf("cloud world = %d entities, want %d", got, total)
	}

	// Each campus display must see everyone (its locals + the other campus
	// via the inter-campus link + remote users via the cloud).
	for _, campus := range []*Campus{gz, cwb} {
		vis := campus.Edge().VisibleParticipants()
		if len(vis) != total {
			t.Errorf("campus %s sees %d participants, want %d: %v",
				campus.Name(), len(vis), total, vis)
		}
	}

	// Each remote client must see everyone except themselves.
	for id, v := range d.Clients() {
		vis := v.VisibleParticipants()
		if len(vis) != total-1 {
			t.Errorf("client %d sees %d participants, want %d", id, len(vis), total-1)
		}
		for _, other := range vis {
			if other == id {
				t.Errorf("client %d replicated itself", id)
			}
		}
	}

	// The teacher specifically is visible to every remote learner with a
	// recent, sane pose.
	now := d.Now()
	for _, rid := range remotes {
		v := d.Clients()[rid]
		p, ok := v.DisplayedPose(teacher, now)
		if !ok {
			t.Errorf("remote %d cannot see the teacher", rid)
			continue
		}
		if !p.IsFinite() {
			t.Errorf("remote %d sees non-finite teacher pose", rid)
		}
		// Teacher paces within |x| <= 3 (+ small gesture margin).
		if p.Position.X < -4 || p.Position.X > 4 {
			t.Errorf("teacher rendered at %v, outside the lecture stage", p.Position)
		}
	}
}

func TestUnitCaseLatencyBudget(t *testing.T) {
	d, _, gz, cwb, _ := buildUnitCase(t, 2)
	if err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Inter-campus pose age: one-way 8 ms link + tick batching (33 ms) +
	// sensing; p95 must stay well under the paper's 100 ms threshold.
	for _, campus := range []*Campus{gz, cwb} {
		h := campus.Edge().Metrics().Histogram("remote.pose.age")
		if h.Count() == 0 {
			t.Fatalf("campus %s recorded no remote pose ages", campus.Name())
		}
		if p95 := h.P95(); p95 > 100*time.Millisecond {
			t.Errorf("campus %s p95 pose age %v exceeds 100ms", campus.Name(), p95)
		}
	}
	// Remote clients ride a 30 ms access link + edge->cloud; p95 under 200ms.
	for id, v := range d.Clients() {
		h := v.Metrics().Histogram("pose.age")
		if h.Count() == 0 {
			t.Fatalf("client %d recorded no pose ages", id)
		}
		if p95 := h.P95(); p95 > 200*time.Millisecond {
			t.Errorf("client %d p95 pose age %v exceeds 200ms", id, p95)
		}
	}
}

func TestUnitCaseRemoteAvatarsSeated(t *testing.T) {
	d, _, gz, cwb, _ := buildUnitCase(t, 3)
	if err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Each campus hosts 6 locals (teacher only at GZ) and must have seated
	// visiting avatars: 5 or 6 from the other campus + 3 VR users.
	for _, campus := range []*Campus{gz, cwb} {
		assigned := campus.Edge().Metrics().Counter("seats.assigned").Value()
		if assigned < 8 {
			t.Errorf("campus %s assigned %d visitor seats, want >= 8", campus.Name(), assigned)
		}
	}
	// VR classroom seats every participant it hosts.
	if got := d.Cloud().Metrics().Counter("seats.assigned").Value(); got < 3 {
		t.Errorf("cloud assigned %d VR seats, want >= 3", got)
	}
}

func TestUnitCaseDisplayTracksTruth(t *testing.T) {
	d, teacher, gz, cwb, _ := buildUnitCase(t, 4)
	if err := d.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	script, ok := gz.ScriptOf(teacher)
	if !ok {
		t.Fatal("no teacher script")
	}
	// CWB renders the GZ teacher seat-corrected, so positions differ by a
	// rigid transform — but motion magnitude must match. Compare displayed
	// speed against true speed over a window, reading the display as it
	// plays: a playout buffer keeps what a reader at the live edge can reach,
	// not a second of history to replay.
	var dispDist, trueDist float64
	var prevDisp, prevTrue mathx.Vec3
	for i := 0; i <= 20; i++ {
		if i > 0 {
			if err := d.Run(50 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		at := d.Now()
		p, ok := cwb.Edge().DisplayPose(teacher, at)
		if !ok {
			t.Fatal("teacher not displayable at CWB")
		}
		tp := script.PoseAt(at)
		if i > 0 {
			dispDist += p.Position.Dist(prevDisp)
			trueDist += tp.Position.Dist(prevTrue)
		}
		prevDisp, prevTrue = p.Position, tp.Position
	}
	if trueDist == 0 {
		t.Fatal("teacher did not move in truth")
	}
	ratio := dispDist / trueDist
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("displayed motion %.2f m vs true %.2f m (ratio %.2f), want ~1",
			dispDist, trueDist, ratio)
	}
}

// TestDisplayPosePastReadHoldsOldest pins what a display time before the live
// edge gets. A remote participant's playout history reaches as far back as a
// display at the live edge reads (core.Replica.Pose), a quarter of a second at
// these rates: a read a second or two in the past is still answered, with the
// oldest pose the edge holds, and is counted in ReplicaStats.Clamped, which
// live reads leave at zero.
func TestDisplayPosePastReadHoldsOldest(t *testing.T) {
	d, teacher, _, cwb, _ := buildUnitCase(t, 4)
	if err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	edge := cwb.Edge()
	clamped := func() (n uint64) {
		for _, addr := range edge.Runtime().SyncPeerAddrs() {
			if rep, ok := edge.ReplicaOf(addr); ok {
				n += rep.Stats().Clamped
			}
		}
		return n
	}
	now := d.Now()
	live, ok := edge.DisplayPose(teacher, now)
	if !ok {
		t.Fatal("teacher not displayable at CWB")
	}
	if n := clamped(); n != 0 {
		t.Fatalf("a read at the live edge counted %d clamped", n)
	}
	back1, ok1 := edge.DisplayPose(teacher, now-time.Second)
	back2, ok2 := edge.DisplayPose(teacher, now-2*time.Second)
	if !ok1 || !ok2 {
		t.Fatalf("past reads displayable = %v, %v, want both held at the oldest pose", ok1, ok2)
	}
	if back1.Position != back2.Position || back1.Rotation != back2.Rotation {
		t.Errorf("reads 1 s and 2 s back differ (%v vs %v): history that deep should be gone", back1.Position, back2.Position)
	}
	if back1.Position == live.Position {
		t.Errorf("past read returned the live pose %v, want the oldest held", live.Position)
	}
	if n := clamped(); n != 2 {
		t.Errorf("two past reads counted %d clamped, want 2", n)
	}
}

func TestParticipantDeparture(t *testing.T) {
	d, _, gz, cwb, _ := buildUnitCase(t, 5)
	if err := d.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Add then remove a student mid-session.
	id, err := gz.AddLearner("transient", trace.Seated{Anchor: mathx.V3(2, 0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	// The new participant's headset must start (deployment already running).
	if err := d.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Cloud().World().Get(id); !ok {
		t.Fatal("late joiner never reached the cloud")
	}
	if err := gz.RemoveLocal(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Cloud().World().Get(id); ok {
		t.Error("departed participant still in cloud world")
	}
	vis := cwb.Edge().VisibleParticipants()
	for _, v := range vis {
		if v == id {
			t.Error("departed participant still visible at CWB")
		}
	}
}

func TestRelayPathDelivers(t *testing.T) {
	d, teacher, _, _, _ := buildUnitCase(t, 6)
	relay, err := d.AddRelay("us-east", netsim.LinkConfig{
		Latency: 100 * time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, rid, err := d.AddRemoteLearnerVia(relay, "mit-student", trace.Seated{},
		netsim.ResidentialBroadband(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if relay.ClientCount() != 1 {
		t.Errorf("relay clients = %d", relay.ClientCount())
	}
	p, ok := v.DisplayedPose(teacher, d.Now())
	if !ok {
		t.Fatal("relay-served client cannot see the teacher")
	}
	if !p.IsFinite() {
		t.Error("non-finite teacher pose via relay")
	}
	// The relay client publishes poses that must reach the cloud world.
	if _, ok := d.Cloud().World().Get(rid); !ok {
		t.Error("relay client's own pose never reached the cloud")
	}
}

func TestRemoteLearnerMigration(t *testing.T) {
	d, teacher, _, _, _ := buildUnitCase(t, 8)
	relay, err := d.AddRelay("us-east", netsim.LinkConfig{
		Latency: 40 * time.Millisecond, Jitter: 2 * time.Millisecond, Bandwidth: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, rid, err := d.AddRemoteLearner("roamer", trace.Seated{Anchor: mathx.V3(4, 0, 1)},
		netsim.ResidentialBroadband(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	recvBefore := v.Metrics().Counter("recv.updates").Value()

	// Cloud -> relay: a live handoff mid-session.
	if err := d.MigrateRemoteLearner(rid, relay, netsim.ResidentialBroadband(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if relay.ClientCount() != 1 {
		t.Errorf("relay clients = %d after migration, want 1", relay.ClientCount())
	}
	if got := v.Metrics().Counter("recv.updates").Value(); got <= recvBefore {
		t.Errorf("no updates received after migration (%d -> %d)", recvBefore, got)
	}
	p, ok := v.DisplayedPose(teacher, d.Now())
	if !ok || !p.IsFinite() {
		t.Fatal("migrated learner cannot see the teacher via the relay")
	}
	if _, ok := d.Cloud().World().Get(rid); !ok {
		t.Error("migrated learner's own pose no longer reaches the cloud")
	}

	// Migrating to the current server is a no-op.
	if err := d.MigrateRemoteLearner(rid, relay, netsim.ResidentialBroadband(10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if relay.ClientCount() != 1 {
		t.Errorf("no-op migration changed relay clients to %d", relay.ClientCount())
	}

	// Relay -> cloud: hand the session back.
	if err := d.MigrateRemoteLearner(rid, nil, netsim.ResidentialBroadband(30*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if relay.ClientCount() != 0 {
		t.Errorf("relay clients = %d after handing back to the cloud, want 0", relay.ClientCount())
	}
	if p, ok := v.DisplayedPose(teacher, d.Now()); !ok || !p.IsFinite() {
		t.Fatal("learner lost the teacher after migrating back to the cloud")
	}

	// Full teardown still works after two handoffs.
	if err := d.RemoveRemoteLearner(rid); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Cloud().World().Get(rid); ok {
		t.Error("departed learner still in the cloud world after migration churn")
	}
}

func TestDeterministicDeployment(t *testing.T) {
	run := func() uint64 {
		d, _, gz, _, _ := buildUnitCase(t, 42)
		if err := d.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		return gz.Edge().Metrics().Counter("sync.bytes.sent").Value()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs diverged: %d vs %d bytes", a, b)
	}
	if a == 0 {
		t.Error("no sync traffic at all")
	}
}

func TestDuplicateCampusRejected(t *testing.T) {
	d, err := NewDeployment(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddCampus("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddCampus("b", 1); err == nil {
		t.Error("duplicate classroom ID accepted")
	}
}

func TestLinkDegradationSurvived(t *testing.T) {
	d, teacher, gz, cwb, _ := buildUnitCase(t, 7)
	if err := d.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Degrade the inter-campus link to 10% loss for a while.
	cfg, err := d.Network().LinkConfigOf(netsim.Addr(gz.Edge().Addr()), netsim.Addr(cwb.Edge().Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Network().SetLink(netsim.Addr(gz.Edge().Addr()), netsim.Addr(cwb.Edge().Addr()),
		netsim.Degraded(cfg, 3, 200)); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Restore and let the protocol recover.
	if err := d.Network().SetLink(netsim.Addr(gz.Edge().Addr()), netsim.Addr(cwb.Edge().Addr()), cfg); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	p, ok := cwb.Edge().DisplayPose(teacher, d.Now())
	if !ok || !p.IsFinite() {
		t.Error("teacher lost at CWB after link degradation and recovery")
	}
	// Pose age must have recovered to something recent.
	rep, ok := cwb.Edge().ReplicaOf(gz.Edge().Addr())
	if !ok {
		t.Fatal("no replica of GZ at CWB")
	}
	if rep.Store().Len() == 0 {
		t.Error("GZ replica empty after recovery")
	}
}

// TestRosterHoldsOnlyPresentLocals: a learner a full campus refuses never
// joined and a learner who left is gone, so neither keeps a roster name.
func TestRosterHoldsOnlyPresentLocals(t *testing.T) {
	d, err := NewDeployment(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		t.Fatal(err)
	}
	seats := gz.Edge().Seats().Total()
	var ids []ParticipantID
	for range seats {
		id, err := gz.AddLearner("s", trace.Seated{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := gz.AddLearner("s", trace.Seated{}); err == nil {
		t.Fatalf("learner %d joined a %d-seat campus", seats+1, seats)
	}
	if name := d.NameOf(ParticipantID(seats + 1)); name != "" {
		t.Errorf("the refused learner keeps the roster name %q", name)
	}
	if err := gz.RemoveLocal(ids[0]); err != nil {
		t.Fatal(err)
	}
	if name := d.NameOf(ids[0]); name != "" {
		t.Errorf("the departed learner keeps the roster name %q", name)
	}
	if n := len(d.names); n != seats-1 {
		t.Errorf("roster holds %d names, want %d", n, seats-1)
	}
}

// TestFailedJoinReclaimsEndpoint: a join the fabric refuses (a loss rate of
// 2 is no probability) must leave nothing behind — no bound host, no link,
// no cloud registration, no roster entry — and must not wedge later joins.
func TestFailedJoinReclaimsEndpoint(t *testing.T) {
	d, err := NewDeployment(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	relay, err := d.AddRelay("r", netsim.EdgeToCloud())
	if err != nil {
		t.Fatal(err)
	}
	base := d.Network().Tables()
	bad := netsim.LinkConfig{LossRate: 2}
	if _, _, err := d.AddRemoteLearner("ghost", trace.Seated{}, bad); err == nil {
		t.Fatal("direct join over an invalid link succeeded")
	}
	if _, _, err := d.AddRemoteLearnerVia(relay, "ghost", trace.Seated{}, bad); err == nil {
		t.Fatal("relayed join over an invalid link succeeded")
	}
	if _, err := d.AddRelay("ghost", bad); err == nil {
		t.Fatal("relay deploy over an invalid link succeeded")
	}
	if got := d.Network().Tables(); got.Hosts != base.Hosts || got.Links != base.Links {
		t.Errorf("fabric after failed joins: %d hosts / %d links, want %d / %d",
			got.Hosts, got.Links, base.Hosts, base.Links)
	}
	if n := len(d.names); n != 0 {
		t.Errorf("roster holds %d names after failed joins, want 0", n)
	}
	if n := len(d.Clients()) + d.Cloud().ClientCount() + relay.ClientCount(); n != 0 {
		t.Errorf("%d sessions registered after failed joins, want 0", n)
	}
	// The next learner — and a relay reusing the refused name — join cleanly.
	v, id, err := d.AddRemoteLearner("alice", trace.Seated{}, netsim.ResidentialBroadband(20*time.Millisecond))
	if err != nil {
		t.Fatalf("join after a failed join: %v", err)
	}
	if _, err := d.AddRelay("ghost", netsim.EdgeToCloud()); err != nil {
		t.Fatalf("relay deploy after a failed one: %v", err)
	}
	if err := d.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Cloud().World().Get(id); !ok || d.NameOf(id) != "alice" {
		t.Errorf("learner %d (%q) did not come up after the failed joins", id, d.NameOf(id))
	}
	if _, synced := v.FirstSyncAt(); !synced {
		t.Error("learner joined after the failed joins never synced")
	}
}

// TestForeignRelayRejected: a relay this deployment did not create cannot
// serve its learners — the cloud would record them as routed through a
// server it does not replicate to. Join and migration both refuse it and
// change nothing.
func TestForeignRelayRejected(t *testing.T) {
	other, err := NewDeployment(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.AddRelay("east", netsim.EdgeToCloud())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Same name, same address, different deployment: identity is the pointer.
	if _, err := d.AddRelay("east", netsim.EdgeToCloud()); err != nil {
		t.Fatal(err)
	}
	access := netsim.ResidentialBroadband(20 * time.Millisecond)
	_, id, err := d.AddRemoteLearner("alice", trace.Seated{}, access)
	if err != nil {
		t.Fatal(err)
	}
	base := d.Network().Tables()
	if _, _, err := d.AddRemoteLearnerVia(foreign, "bob", trace.Seated{}, access); !errors.Is(err, rig.ErrForeignRelay) {
		t.Errorf("join via a foreign relay: err = %v, want rig.ErrForeignRelay", err)
	}
	if err := d.MigrateRemoteLearner(id, foreign, access); !errors.Is(err, rig.ErrForeignRelay) {
		t.Errorf("migration to a foreign relay: err = %v, want rig.ErrForeignRelay", err)
	}
	if got := d.Network().Tables(); got.Hosts != base.Hosts || got.Links != base.Links {
		t.Errorf("fabric changed by refused calls: %d hosts / %d links, want %d / %d",
			got.Hosts, got.Links, base.Hosts, base.Links)
	}
	if n := d.Cloud().ClientCount(); n != 1 || foreign.ClientCount() != 0 {
		t.Errorf("cloud clients = %d, foreign relay clients = %d, want 1 and 0", n, foreign.ClientCount())
	}
	if err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Cloud().World().Get(id); !ok {
		t.Error("the learner whose migration was refused no longer reaches the cloud")
	}
}
