package experiments

import (
	"fmt"
	"time"

	"metaclass/internal/geo"
	"metaclass/internal/metrics"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/region"
	"metaclass/internal/rig"
	"metaclass/internal/vclock"
)

// E14Geo reproduces the paper's regional-server remedy end to end through
// the live deployment layer: a global classroom served from a single Hong
// Kong cloud versus the same classroom after geo-sharding — k-center
// placement stands relays up in us-east and sa-poor, the far cohorts roam
// onto them mid-run (live session handoff: baseline transfer, link cut,
// adoption), and the us-east relay later drains back to the cloud. The
// poorly-peered sa-poor cohort is the paper's problem child: served direct,
// its last mile is a 215 ms detour with jitter up to twice the propagation
// delay and ~12% loss; served by a local relay, the long haul
// rides the clean provisioned backbone and only a short local hop keeps the
// lossy profile. The geo row must cut sa-poor's worst p95 pose age by at
// least 30%, converge every replica to the cloud world after the handoffs
// (zero lost or duplicated updates), and leak no frames.
func E14Geo(seed int64) Table {
	t := Table{
		ID:    "E14",
		Title: "C2 — geo-sharded deployment: live relay placement and session handoff vs single cloud",
		Columns: []string{"mode", "relays", "migrations", "sa.p95.before", "sa.p95.after",
			"improve", "converged", "frames.leaked"},
	}
	for _, sharded := range []bool{false, true} {
		mode := "single-cloud"
		if sharded {
			mode = "geo-sharded"
		}
		r := runGeoPoint(seed, sharded)
		if r.err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s failed: %v", mode, r.err))
			continue
		}
		improve := "-"
		if sharded && r.before > 0 {
			improve = fmt.Sprintf("%.0f%%", 100*(1-float64(r.after)/float64(r.before)))
		}
		conv := "yes"
		if !r.converged {
			conv = "NO"
		}
		t.AddRow(mode, fmt.Sprint(r.relays), fmt.Sprint(r.migrations),
			fmt.Sprintf("%dms", r.before.Milliseconds()),
			fmt.Sprintf("%dms", r.after.Milliseconds()),
			improve, conv, fmt.Sprint(r.leaked))
	}
	t.Notes = append(t.Notes,
		"7 learners: 3 each in kr and us-east plus the single poorly-peered sa-poor straggler; cloud in hk; broadcast replication",
		"geo row: PlaceRelays(2) -> [us-east sa-poor], Roam migrates both far cohorts live, us-east later drains back to the cloud",
		"sa.p95 = worst p95 pose age across the sa-poor cohort, 3 s windows before/after the roam instant",
		"converged = every client replica byte-equal to the cloud world after quiescing: no update lost or duplicated across handoffs")
	return t
}

type geoResult struct {
	relays     int
	migrations uint64
	before     time.Duration
	after      time.Duration
	converged  bool
	leaked     int64
	err        error
}

// runGeoPoint drives one mode of the E14 timeline: warm 2 s, measure 3 s
// (the "before" window), then — in sharded mode — deploy + roam, settle
// 2 s, measure 3 s (the "after" window), drain us-east, and quiesce for the
// convergence and leak audits. The single-cloud row runs the identical
// clock with no topology changes.
func runGeoPoint(seed int64, sharded bool) geoResult {
	res := geoResult{}
	live0 := protocol.LiveFrames()
	sim := vclock.New(seed)
	d, err := geo.New(sim, &rig.NetsimFabric{Net: netsim.New(sim)}, geo.Config{
		Topology:    region.GlobalCampus(),
		CloudRegion: "hk",
	})
	if err != nil {
		res.err = err
		return res
	}
	// Three learners each in kr and us-east, plus the paper's single
	// poorly-peered straggler in sa-poor.
	id := protocol.ParticipantID(1)
	var saPoor []protocol.ParticipantID
	for _, reg := range []region.ID{"kr", "kr", "kr", "us-east", "us-east", "us-east", "sa-poor"} {
		if _, err := d.Join(id, reg); err != nil {
			res.err = err
			return res
		}
		if reg == "sa-poor" {
			saPoor = append(saPoor, id)
		}
		id++
	}
	if err := d.Start(); err != nil {
		res.err = err
		return res
	}
	run := func(dt time.Duration) bool {
		if err := sim.Run(sim.Now() + dt); err != nil {
			res.err = err
			return false
		}
		return true
	}
	// worstP95 measures each sa-poor client's pose age over a 3 s window
	// (Histogram.Delta against a cut taken here) and keeps the worst.
	worstP95 := func() (time.Duration, bool) {
		cuts := make([]metrics.Histogram, len(saPoor))
		for i, cid := range saPoor {
			s, _ := d.Session(cid)
			cuts[i] = *s.VR.Metrics().Histogram("pose.age")
		}
		if !run(3 * time.Second) {
			return 0, false
		}
		var worst time.Duration
		for i, cid := range saPoor {
			s, _ := d.Session(cid)
			w := s.VR.Metrics().Histogram("pose.age").Delta(&cuts[i])
			if p := w.P95(); p > worst {
				worst = p
			}
		}
		return worst, true
	}

	const warm = 2 * time.Second
	if !run(warm) {
		return res
	}
	var ok bool
	if res.before, ok = worstP95(); !ok {
		return res
	}
	if sharded {
		if _, err := d.Deploy(2); err != nil {
			res.err = err
			return res
		}
		if _, err := d.Roam(); err != nil {
			res.err = err
			return res
		}
		res.relays = len(d.RelayRegions())
	}
	if !run(2 * time.Second) { // settle across the handoff cut
		return res
	}
	if res.after, ok = worstP95(); !ok {
		return res
	}
	if sharded {
		if err := d.Drain("us-east"); err != nil {
			res.err = err
			return res
		}
		if !run(time.Second) {
			return res
		}
	}
	res.migrations = d.Metrics().Counter("geo.migrations").Value()

	// Quiesce: publishers stop, servers keep ticking to flush owed debt and
	// retransmissions, then everything stops and in-flight traffic drains.
	for _, sid := range d.SessionIDs() {
		s, _ := d.Session(sid)
		s.VR.Stop()
	}
	if !run(3 * time.Second) {
		return res
	}
	res.converged = d.Converged() == nil
	d.Stop()
	if !run(30 * time.Second) {
		return res
	}
	res.leaked = protocol.LiveFrames() - live0
	return res
}
