package experiments

import (
	"fmt"
	"runtime"
	"time"

	"metaclass/classroom"
	"metaclass/internal/mathx"
	"metaclass/internal/metrics"
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
		t.AddRow(fmt.Sprint(i+1), fmt.Sprint(res.heaps[i]/1024), fmt.Sprint(ep.frames),
			fmt.Sprint(ep.tables.Hosts), fmt.Sprint(ep.tables.Links), fmt.Sprint(ep.tables.Inflight))
	}
	verdict := "FLAT"
	base, flat := res.flat()
	if !flat {
		verdict = "NOT FLAT"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%s: final-quartile post-GC HeapAlloc vs epoch-3 baseline (%d KB), 10%% tolerance", verdict, base/1024),
		fmt.Sprintf("each epoch: 8 learners join on lossy links, stay 1 s, leave, 500 ms drain — the E11 storm-8 cycle, %d times", len(res.epochs)),
		fmt.Sprintf("after final drain: %d live frames, tables %+v (pool must hold every delivery ever allocated)", res.leaked, res.final))
	return t
}

// soakEpoch is one epoch's post-drain measurement.
type soakEpoch struct {
	frames int64 // protocol.LiveFrames delta vs run start
	tables netsim.Tables
}

type soakResult struct {
	epochs   []soakEpoch
	heaps    []uint64      // post-GC runtime.MemStats.HeapAlloc, one per epoch
	baseline netsim.Tables // post-warm, pre-churn
	final    netsim.Tables // after stop and full drain
	leaked   int64         // live frames after stop and full drain
	err      error
}

// flat applies metrics.FlatHeap at 10 % tolerance, with 256 KB of slack for
// allocator noise on the simulated class's small heap.
func (r *soakResult) flat() (base uint64, ok bool) {
	return metrics.FlatHeap(r.heaps, 0.10, 256<<10)
}

// runSoak drives the compressed-churn soak: warm an E11-scale class, then
// run `epochs` full join/leave cycles with a forced GC and measurement after
// each drain.
func runSoak(seed int64, epochs int) soakResult {
	res := soakResult{}
	live0 := protocol.LiveFrames()
	d, lossy, err := warmClass(seed)
	if err != nil {
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
		res.heaps = append(res.heaps, ms.HeapAlloc)
		res.epochs = append(res.epochs, soakEpoch{
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
