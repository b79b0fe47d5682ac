package bench

// Def declares one reported metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; a test keeps the two
// equal.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: the share of the parent's median by which it may worsen
}

// EndToEnd lists what a user of the system would see, in report order. An
// end-to-end run (-trace 0) reports exactly these.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25},
	{"step_ms_mean", "ms", "lower", 0.25},
	{"pose_age_ms_p50", "ms", "lower", 0.01},
	{"pose_age_ms_p95", "ms", "lower", 0.01},
	{"fresh_ratio", "ratio", "higher", 0.01},
	{"join_ms_p50", "ms", "lower", 0.10},
	{"join_ms_p90", "ms", "lower", 0.10},
	{"wire_bytes_per_update", "B", "lower", 0.01},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// PerLayer lists the metrics of single layers, in report order. A layer run
// (-trace 1) reports exactly these. They carry no bound.
var PerLayer = []Def{
	// Boundary spans: mean self time per traced step.
	{"step.self_us", "us", "lower", 0},
	{"endpoint.recv_client_us", "us", "lower", 0},
	{"endpoint.recv_server_us", "us", "lower", 0},
	{"transport.send_us", "us", "lower", 0},
	{"transport.flush_us", "us", "lower", 0},
	{"transport.transit_us_p50", "us", "lower", 0},
	{"transport.transit_us_p95", "us", "lower", 0},
	{"transport.settle_wait_us", "us", "lower", 0},
	// Counts at the same boundaries.
	{"transport.frames_per_step", "count", "lower", 0},
	{"transport.bytes_per_step", "B", "lower", 0},
	{"endpoint.msgs_recv_per_step", "count", "lower", 0},
	{"core.FrameCache.share_ratio", "ratio", "higher", 0},
	// Counts from public stats.
	{"core.Replicator.snapshots_per_step", "count", "lower", 0},
	{"core.Replicator.deltas_per_step", "count", "lower", 0},
	{"core.Replicator.owed_depth_mean", "count", "lower", 0},
	{"core.Replica.applied_per_step", "count", "higher", 0},
	{"core.Replica.entities_per_step", "count", "higher", 0},
	{"core.Replica.rejected", "count", "lower", 0},
	{"core.Replica.buffer_creates", "count", "lower", 0},
	{"endpoint.gaps", "count", "lower", 0},
	{"endpoint.decode_errors", "count", "lower", 0},
	{"netsim.delivered_per_step", "count", "higher", 0},
	{"netsim.dropped", "count", "lower", 0},
	{"netsim.inflight_max", "count", "lower", 0},
	{"protocol.frames_live_max", "count", "lower", 0},
	{"node.joins", "count", "higher", 0},
	{"node.leaves", "count", "higher", 0},
	{"audit.stale_sessions", "count", "lower", 0},
	// Kernels.
	{"protocol.decode_ns_per_entity", "ns", "lower", 0},
	{"protocol.encode_ns_per_entity", "ns", "lower", 0},
	{"protocol.bytes_per_entity", "B", "lower", 0},
	{"core.Replica.apply_ns_per_entity", "ns", "lower", 0},
	{"pose.push_ns", "ns", "lower", 0},
	{"interest.refresh_us_per_client", "us", "lower", 0},
	{"core.Store.delta_us", "us", "lower", 0},
	{"core.Store.snapshot_us", "us", "lower", 0},
	{"core.Replicator.plan_us.fixture", "us", "lower", 0},
	{"endpoint.fanout_us.fixture", "us", "lower", 0},
	{"netsim.send_deliver_ns", "ns", "lower", 0},
	{"vclock.schedule_fire_ns", "ns", "lower", 0},
	{"transport.conn_flush_us", "us", "lower", 0},
	{"work.run_overhead_ns", "ns", "lower", 0},
	// Process and host.
	{"step_ms_wall", "ms", "lower", 0},
	{"step_ms_p95", "ms", "lower", 0},
	{"allocs_per_step", "count", "lower", 0},
	{"process.cpu_us_per_step", "us", "lower", 0},
	{"process.gc_count", "count", "lower", 0},
	{"process.gc_pause_us", "us", "lower", 0},
	{"host.gomaxprocs", "count", "higher", 0},
	{"host.ref_slowdown", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}
