package experiments

import (
	"fmt"
	"runtime"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/netsim"
	"metaclass/internal/protocol"
	"metaclass/internal/trace"
)

// soakEpochs is the default epoch count for E13: enough hours-compressed
// churn cycles that a per-epoch leak of even a few kilobytes separates
// cleanly from GC noise in the final quartile.
const soakEpochs = 20

// E13Soak is the week-long-deployment gate in compressed form: a warm
// E11-scale class endures churn epochs (a full storm-8 join/leave cycle per
// epoch, the heaviest E11 point), with a forced GC and a post-GC heap sample
// between epochs. A deployment that can hold heavy traffic indefinitely
// shows a flat post-GC HeapAlloc trajectory, zero live frames after drain,
// and netsim host/link tables back at their pre-churn baseline after every
// epoch — unbounded growth in any table, pool, or frame path shows up as a
// rising heap line long before it would kill a real deployment hours in.
func E13Soak(seed int64) Table {
	t := Table{
		ID:      "E13",
		Title:   "Soak flatness — compressed churn epochs: post-GC heap, frames, netsim tables",
		Columns: []string{"epoch", "heap.KB", "live.frames", "hosts", "links", "inflight"},
	}
	res := runSoak(seed, soakEpochs)
	if res.err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("soak failed: %v", res.err))
		return t
	}
	for i, ep := range res.epochs {
		t.AddRow(fmt.Sprint(i+1), fmt.Sprint(ep.heap/1024), fmt.Sprint(ep.frames),
			fmt.Sprint(ep.tables.Hosts), fmt.Sprint(ep.tables.Links), fmt.Sprint(ep.tables.Inflight))
	}
	verdict := "FLAT"
	if !res.flat(0.10) {
		verdict = "NOT FLAT"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: final-quartile post-GC HeapAlloc vs epoch-3 baseline (%d KB), 10%% tolerance", verdict, res.baselineHeap()/1024),
		fmt.Sprintf("each epoch: 8 learners join on lossy links, stay 1 s, leave, 500 ms drain — the E11 storm-8 cycle, %d times", len(res.epochs)),
		fmt.Sprintf("after final drain: %d live frames, tables %+v (pool must hold every delivery ever allocated)", res.leaked, res.final))
	return t
}

// soakEpoch is one epoch's post-GC measurement.
type soakEpoch struct {
	heap   uint64 // post-GC runtime.MemStats.HeapAlloc
	frames int64  // protocol.LiveFrames delta vs run start
	tables netsim.Tables
}

type soakResult struct {
	epochs   []soakEpoch
	baseline netsim.Tables // post-warm, pre-churn
	final    netsim.Tables // after stop and full drain
	leaked   int64         // live frames after stop and full drain
	err      error
}

// baselineHeap is the epoch-3 post-GC heap: epochs 1–2 still carry warm-up
// effects (pools reaching steady high-water, lazily allocated scratch), by
// epoch 3 the steady state is established.
func (r *soakResult) baselineHeap() uint64 {
	if len(r.epochs) < 3 {
		return 0
	}
	return r.epochs[2].heap
}

// flat reports whether every final-quartile epoch's post-GC heap is within
// tol of the epoch-3 baseline (with a small absolute slack for allocator
// noise on tiny heaps).
func (r *soakResult) flat(tol float64) bool {
	base := r.baselineHeap()
	if base == 0 {
		return false
	}
	const slack = 256 << 10
	q := len(r.epochs) - max(1, len(r.epochs)/4)
	for _, ep := range r.epochs[q:] {
		lim := uint64(float64(base)*(1+tol)) + slack
		if ep.heap > lim {
			return false
		}
	}
	return true
}

// runSoak drives the compressed-churn soak: warm an E11-scale class, then
// run `epochs` full join/leave cycles with a forced GC and measurement after
// each drain.
func runSoak(seed int64, epochs int) soakResult {
	res := soakResult{}
	live0 := protocol.LiveFrames()
	d, err := classroom.NewDeployment(classroom.Config{Seed: seed, EnableInterest: true})
	if err != nil {
		res.err = err
		return res
	}
	gz, err := d.AddCampus("gz", 1)
	if err != nil {
		res.err = err
		return res
	}
	if _, err := gz.AddEducator("prof", trace.Lecturer{
		Left: mathx.V3(-3, 0, 0), Right: mathx.V3(3, 0, 0)}); err != nil {
		res.err = err
		return res
	}
	lossy := netsim.ResidentialBroadband(25 * time.Millisecond)
	lossy.LossRate = 0.01
	for i := 0; i < 8; i++ {
		if _, _, err := d.AddRemoteLearner("base", trace.Seated{
			Anchor: mathx.V3(float64(i%4)*1.2, 0, float64(i/4)*1.2), Phase: float64(i),
		}, lossy); err != nil {
			res.err = err
			return res
		}
	}
	if err := d.Run(2 * time.Second); err != nil {
		res.err = err
		return res
	}
	res.baseline = d.Network().Tables()

	var ms runtime.MemStats
	for e := 0; e < epochs; e++ {
		ids := make([]classroom.ParticipantID, 0, 8)
		for i := 0; i < 8; i++ {
			_, id, err := d.AddRemoteLearner("soak", trace.Seated{
				Anchor: mathx.V3(float64(i)*1.5+6, 0, 8), Phase: float64(e*8 + i),
			}, lossy)
			if err != nil {
				res.err = err
				return res
			}
			ids = append(ids, id)
		}
		if err := d.Run(time.Second); err != nil {
			res.err = err
			return res
		}
		for _, id := range ids {
			if err := d.RemoveRemoteLearner(id); err != nil {
				res.err = err
				return res
			}
		}
		if err := d.Run(500 * time.Millisecond); err != nil {
			res.err = err
			return res
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		res.epochs = append(res.epochs, soakEpoch{
			heap:   ms.HeapAlloc,
			frames: protocol.LiveFrames() - live0,
			tables: d.Network().Tables(),
		})
	}

	d.Stop()
	if err := d.Sim().Run(d.Now() + 30*time.Second); err != nil {
		res.err = err
		return res
	}
	d.Network().Close()
	res.final = d.Network().Tables()
	res.leaked = protocol.LiveFrames() - live0
	return res
}
