package experiments

import (
	"fmt"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
)

// E11Churn reproduces claim C2's churn dimension: a class at scale is not a
// static roster — regional learners join late, drop off flaky links, and
// rejoin. The experiment drives join/leave storms at a fixed rate against a
// warm classroom and measures the two quantities the shared node runtime is
// built to keep flat: the onboarding ramp (join to first applied snapshot at
// the new learner) and steady-state cloud egress after the churn subsides.
// The frames.leaked column is the lifecycle audit — every storm must end
// with zero frames still held anywhere.
func E11Churn(seed int64) Table {
	t := Table{
		ID:    "E11",
		Title: "C2 — join/leave churn: onboarding latency and steady-state egress under storms",
		Columns: []string{"storm", "joins", "leaves", "onboard.p50", "onboard.p95",
			"egress.KB/s", "visible.end", "frames.leaked"},
	}
	for _, storm := range []int{1, 4, 8} {
		r := runChurnPoint(seed, storm)
		if r.err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("storm %d failed: %v", storm, r.err))
			continue
		}
		t.AddRow(fmt.Sprint(storm), fmt.Sprint(r.joins), fmt.Sprint(r.leaves),
			fmtMS(r.onboard.P50()), fmtMS(r.onboard.P95()),
			fmt.Sprintf("%.0f", r.egressBps/1024),
			fmt.Sprint(r.visible), fmt.Sprint(r.leaked))
	}
	t.Notes = append(t.Notes,
		"storm = learners joining (and, one period later, leaving) per 500 ms churn event; 10 events per run against a warm 2-campus class",
		"onboarding = join to first applied replication update at the new learner; pooled peer state keeps it flat as storms grow",
		"egress measured over the post-churn steady window: departures must fully unsubscribe, or leavers would keep costing bandwidth")
	return t
}

type churnResult struct {
	joins, leaves int
	onboard       metrics.Histogram
	egressBps     float64
	visible       int
	leaked        int64
	err           error
}

// warmClass stands up the class E11 and E13 churn: one interest-managed
// campus with its professor and 8 resident remote learners, warmed for 2 s.
// lossy is the 1 %-loss residential link every remote learner joins on.
func warmClass(seed int64) (d *classroom.Deployment, lossy netsim.LinkConfig, err error) {
	d, err = classroom.NewDeployment(classroom.Config{Seed: seed, EnableInterest: true})
	if err != nil {
		return nil, lossy, err
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		return nil, lossy, err
	}
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		return nil, lossy, err
	}
	lossy = netsim.ResidentialBroadband(25 * time.Millisecond)
	lossy.LossRate = 0.01
	for i := 0; i < 8; i++ {
		if _, _, err := d.AddRemoteLearner("base", trace.Seated{
			Anchor: mathx.V3(float64(i%4)*1.2, 0, float64(i/4)*1.2), Phase: float64(i),
		}, lossy); err != nil {
			return nil, lossy, err
		}
	}
	if err := d.Run(2 * time.Second); err != nil {
		return nil, lossy, err
	}
	return d, lossy, nil
}

// runChurnPoint drives one churn workload: warm up a two-campus class with a
// base remote population, fire join/leave storms at a fixed 500 ms cadence
// (each joined batch leaves two events later), then let the class settle and
// measure steady egress.
func runChurnPoint(seed int64, storm int) churnResult {
	res := churnResult{}
	live0 := protocol.LiveFrames()
	d, lossy, err := warmClass(seed)
	if err != nil {
		res.err = err
		return res
	}

	// Churn phase: every 500 ms join `storm` learners and retire the batch
	// joined two events earlier, so each churned learner stays ~1 s.
	const events = 10
	type joined struct {
		id classroom.ParticipantID
		v  interface{ FirstSyncAt() (time.Duration, bool) }
		at time.Duration
	}
	var (
		batches [][]joined
		fired   int
		failed  error
	)
	cancel := d.Sim().Ticker(500*time.Millisecond, func() {
		if fired >= events || failed != nil {
			return
		}
		fired++
		var batch []joined
		for i := 0; i < storm; i++ {
			v, id, err := d.AddRemoteLearner("churn", trace.Seated{
				Anchor: mathx.V3(float64(i)*1.5+6, 0, 8), Phase: float64(fired*storm + i),
			}, lossy)
			if err != nil {
				failed = err
				return
			}
			res.joins++
			batch = append(batch, joined{id: id, v: v, at: d.Now()})
		}
		batches = append(batches, batch)
		if len(batches) >= 3 {
			for _, j := range batches[len(batches)-3] {
				if err := d.RemoveRemoteLearner(j.id); err != nil {
					failed = err
					return
				}
				res.leaves++
			}
		}
	})
	if err := d.Run(time.Duration(events+1) * 500 * time.Millisecond); err != nil {
		res.err = err
		return res
	}
	cancel()
	if failed != nil {
		res.err = failed
		return res
	}
	// Retire every churned learner still present, then measure the settled
	// class: steady egress must return to the base population's rate.
	for _, batch := range batches[max(0, len(batches)-2):] {
		for _, j := range batch {
			if err := d.RemoveRemoteLearner(j.id); err != nil {
				res.err = err
				return res
			}
			res.leaves++
		}
	}
	const steady = 2 * time.Second
	egress0 := d.Cloud().Metrics().Counter("sync.bytes.sent").Value()
	if err := d.Run(steady); err != nil {
		res.err = err
		return res
	}
	res.egressBps = float64(d.Cloud().Metrics().Counter("sync.bytes.sent").Value()-egress0) / steady.Seconds()

	for _, batch := range batches {
		for _, j := range batch {
			if first, ok := j.v.FirstSyncAt(); ok {
				res.onboard.Observe(first - j.at)
			}
		}
	}
	res.visible = d.Cloud().World().Len()
	d.Stop()
	if err := d.Sim().Run(d.Now() + 30*time.Second); err != nil {
		res.err = err
		return res
	}
	res.leaked = protocol.LiveFrames() - live0
	return res
}
