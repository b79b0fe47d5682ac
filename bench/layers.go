package bench

import (
	"runtime"
	"time"

	"metaclass/internal/core"
	"metaclass/internal/protocol"
)

// layerCounts is the cumulative counters a layer run reads through public
// accessors; the report is the difference across the window.
type layerCounts struct {
	replica            core.ReplicaStats
	joins, leaves      uint64
	delivered, dropped uint64
	gaps, decodeErrs   uint64
}

// layerSampler reads the public per-layer counters at step ends during a
// layer run. Nothing here runs inside the timed region.
type layerSampler struct {
	on   bool
	w    workload
	p    probes
	col  *collector
	base layerCounts

	owedSum  float64
	owedN    uint64
	peerBuf  []string
	liveMax  int64
	inflight int
}

func newLayerSampler(on bool, w workload, col *collector) *layerSampler {
	ls := &layerSampler{on: on, w: w, p: w.probes(), col: col}
	if on {
		ls.base = ls.read()
	}
	return ls
}

func (ls *layerSampler) read() layerCounts {
	var c layerCounts
	c.replica, c.joins, c.leaves = ls.w.counts()
	if ls.p.net != nil {
		st := ls.p.net.Stats()
		c.delivered, c.dropped = st.Delivered, st.Dropped
	}
	c.gaps = ls.p.counter("recv.gaps")
	c.decodeErrs = ls.p.counter("recv.decode_errors") + ls.col.decodeErrs
	return c
}

// sample runs after every step of a layer run.
func (ls *layerSampler) sample() {
	if !ls.on {
		return
	}
	for _, rt := range ls.p.runtimes {
		repl := rt.Replicator()
		ls.peerBuf = repl.PeersAppend(ls.peerBuf[:0])
		for _, p := range ls.peerBuf {
			if st, err := repl.StatsOf(p); err == nil {
				ls.owedSum += float64(st.Owed)
				ls.owedN++
			}
		}
	}
	ls.liveMax = max(ls.liveMax, protocol.LiveFrames())
	if ls.p.net != nil {
		ls.inflight = max(ls.inflight, ls.p.net.Tables().Inflight)
	}
}

// layerInputs carries the window's timings into the layer report.
type layerInputs struct {
	steps                int
	tracedMs, untracedMs []float64
	cpu                  time.Duration
	gcCount              uint32
	gcPause              time.Duration
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics adds every per-layer value measured over the window to vals.
func (ls *layerSampler) metrics(vals map[string]float64, kernelReps int, in layerInputs) {
	col := ls.col
	steps := float64(in.steps)
	tr := &col.tr
	// Self time per traced step, in µs.
	selfUs := func(k spanKind) float64 {
		return ratio(float64(tr.selfNs[k].Nanoseconds())/1e3, float64(len(in.tracedMs)))
	}
	now, base := ls.read(), ls.base
	framesPerStep := float64(col.framesSent) / steps
	for name, v := range map[string]float64{
		"step.self_us":             selfUs(spanStep),
		"endpoint.recv_client_us":  selfUs(spanRecvClient),
		"endpoint.recv_server_us":  selfUs(spanRecvServer),
		"transport.send_us":        selfUs(spanSend),
		"transport.flush_us":       selfUs(spanFlush),
		"transport.settle_wait_us": selfUs(spanSettle),
		"transport.transit_us_p50": quantile(col.transitNs, 0.50) / 1e3,
		"transport.transit_us_p95": quantile(col.transitNs, 0.95) / 1e3,

		"transport.frames_per_step":   framesPerStep,
		"transport.bytes_per_step":    float64(col.bytesSent) / steps,
		"endpoint.msgs_recv_per_step": float64(col.msgsRecv) / steps,
		"core.FrameCache.share_ratio": ratio(float64(col.framesSent), float64(col.distinctFrames)),

		"core.Replicator.snapshots_per_step": float64(col.snapshotsSent) / steps,
		"core.Replicator.deltas_per_step":    float64(col.deltasSent) / steps,
		"core.Replicator.owed_depth_mean":    ratio(ls.owedSum, float64(ls.owedN)),
		"core.Replica.applied_per_step":      float64(now.replica.Applied-base.replica.Applied) / steps,
		"core.Replica.entities_per_step":     float64(col.entitiesRecv) / steps,
		"core.Replica.rejected":              float64(now.replica.Rejected - base.replica.Rejected),
		"core.Replica.buffer_creates":        float64(now.replica.BufferCreates - base.replica.BufferCreates),
		"endpoint.gaps":                      float64(now.gaps - base.gaps),
		"endpoint.decode_errors":             float64(now.decodeErrs - base.decodeErrs),
		"netsim.delivered_per_step":          float64(now.delivered-base.delivered) / steps,
		"netsim.dropped":                     float64(now.dropped - base.dropped),
		"netsim.inflight_max":                float64(ls.inflight),
		"protocol.frames_live_max":           float64(ls.liveMax),
		"node.joins":                         float64(now.joins - base.joins),
		"node.leaves":                        float64(now.leaves - base.leaves),

		"process.cpu_us_per_step": float64(in.cpu.Nanoseconds()) / 1e3 / steps,
		"process.gc_count":        float64(in.gcCount),
		"process.gc_pause_us":     float64(in.gcPause.Nanoseconds()) / 1e3,
		"host.gomaxprocs":         float64(runtime.GOMAXPROCS(0)),
		"trace.overhead_ratio":    ratio(mean(in.tracedMs), mean(in.untracedMs)),
	} {
		vals[name] = v
	}
	for _, k := range runKernels(ls.p, col.ring, int(framesPerStep), kernelReps) {
		vals[k.Name] = k.Value
	}
}
