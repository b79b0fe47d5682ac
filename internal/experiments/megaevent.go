package experiments

import (
	"fmt"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
)

// E12MegaEvent reproduces claim C2's mega-event dimension: one venue packed
// with hundreds of avatars, almost all of them beyond the near radius of any
// given viewer. Broadcast fan-out must carry every avatar to every viewer
// at full tick rate; tiered fan-out decimates the far/ambient crowd to 1/4
// and 1/8 rate (phase-staggered per source) while the pinned performer and
// near neighbours stay at full rate. The experiment measures cloud and
// relay egress in both modes — the tiers row must undercut broadcast by the
// crowd's rate-divisor mix, with zero frames leaked after teardown. Owed
// tracking (see core.OwedSet) is what makes the decimation safe to ship:
// every suppressed change is delivered on the source's next phase slot, so
// the saved bandwidth costs no lost updates.
func E12MegaEvent(seed int64) Table {
	t := Table{
		ID:    "E12",
		Title: "C2 — mega-event venue: tiered fan-out vs broadcast for a far-crowd audience",
		Columns: []string{"mode", "users", "cloud.KB/s", "relay.KB/s",
			"KB/s.per.user", "vs.broadcast", "frames.leaked"},
	}
	var baseline float64
	for _, tiers := range []bool{false, true} {
		r := runMegaPoint(seed, tiers)
		mode := "broadcast"
		if tiers {
			mode = "tiers"
		}
		if r.err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s failed: %v", mode, r.err))
			continue
		}
		cloudKB := r.cloudBps / 1024
		vs := "1.0x"
		if !tiers {
			baseline = cloudKB
		} else if cloudKB > 0 {
			vs = fmt.Sprintf("%.1fx", baseline/cloudKB)
		}
		t.AddRow(mode, fmt.Sprint(r.users),
			fmt.Sprintf("%.0f", cloudKB),
			fmt.Sprintf("%.0f", r.relayBps/1024),
			fmt.Sprintf("%.2f", cloudKB/float64(r.users)),
			vs, fmt.Sprint(r.leaked))
	}
	t.Notes = append(t.Notes,
		"venue = 16x16 seat grid at 3.2 m pitch (48 m square): nearly every pair of learners is beyond NearRadius",
		"tiers = focus/near at full rate, far at 1/4, ambient at 1/8, phase-staggered per source; performer pinned to focus everywhere",
		"every learner beyond the relay quarter attaches to the cloud directly; egress windows are identical in both modes")
	return t
}

type megaResult struct {
	users    int
	cloudBps float64
	relayBps float64
	leaked   int64
	err      error
}

// runMegaPoint stands up the mega-event venue — a pinned performer on
// campus plus a 16x16 remote audience, one quarter of it served through a
// regional relay — warms it for a second, and measures steady cloud and
// relay egress over a 3 s window. Teardown drains in-flight frames and
// audits that none leaked.
func runMegaPoint(seed int64, tiers bool) megaResult {
	res := megaResult{}
	live0 := protocol.LiveFrames()
	// The VR venue's seat grid matches the audience layout 1:1 (16x16 at
	// 3.2 m), so seat correction lands every learner at their anchor and
	// the interest tiers see the true 48 m venue geometry. The fan-out tick
	// matches the clients' 20 Hz upload rate: every tick then carries fresh
	// state for every avatar, so the broadcast baseline is the true
	// every-entity-every-tick cost rather than a publish-gap discount.
	d, err := classroom.NewDeployment(classroom.Config{
		Seed: seed, EnableInterest: tiers, TickHz: 20,
		VRRows: 16, VRCols: 16, VRPitch: 3.2,
	})
	if err != nil {
		res.err = err
		return res
	}
	venue, err := d.AddCampus("venue", 1)
	if err != nil {
		res.err = err
		return res
	}
	// The performer paces the front of the venue; AddEducator pins them to
	// the focus tier for every receiver, relay clients included.
	if _, err := venue.AddEducator("performer", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		res.err = err
		return res
	}
	// Backbone peering for the long haul to the regional relay.
	relay, err := d.AddRelay("east", netsim.LinkConfig{
		Latency: 40 * time.Millisecond, Jitter: 2 * time.Millisecond,
		LossRate: 0.0005, Bandwidth: 10e9,
	})
	if err != nil {
		res.err = err
		return res
	}
	// 16x16 audience at 3.2 m pitch. Rows 12-15 (the back quarter) attach
	// through the regional relay; everyone else joins the cloud directly.
	const rows, cols = 16, 16
	link := netsim.ResidentialBroadband(25 * time.Millisecond)
	for i := 0; i < rows*cols; i++ {
		seatTrace := trace.Seated{
			Anchor: mathx.V3(float64(i%cols)*3.2, 0, float64(i/cols)*3.2),
			Phase:  float64(i),
		}
		name := fmt.Sprintf("crowd-%03d", i)
		if i/cols >= 12 {
			_, _, err = d.AddRemoteLearnerVia(relay, name, seatTrace, link)
		} else {
			_, _, err = d.AddRemoteLearner(name, seatTrace, link)
		}
		if err != nil {
			res.err = err
			return res
		}
		res.users++
	}
	const warm, measure = time.Second, 3 * time.Second
	if err := d.Run(warm); err != nil {
		res.err = err
		return res
	}
	cloud0 := d.Cloud().Metrics().Counter("sync.bytes.sent").Value()
	relay0 := relay.Metrics().Counter("sync.bytes.sent").Value()
	if err := d.Run(measure); err != nil {
		res.err = err
		return res
	}
	res.cloudBps = float64(d.Cloud().Metrics().Counter("sync.bytes.sent").Value()-cloud0) / measure.Seconds()
	res.relayBps = float64(relay.Metrics().Counter("sync.bytes.sent").Value()-relay0) / measure.Seconds()
	d.Stop()
	if err := d.Sim().Run(d.Now() + 30*time.Second); err != nil {
		res.err = err
		return res
	}
	res.leaked = protocol.LiveFrames() - live0
	return res
}
