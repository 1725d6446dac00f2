package main

// metric describes one benchmark metric. BENCHMARK.json lists the same
// names, units and directions (the schema test keeps the two in step); the
// extra fields here are what the contract's JSON shape has no room for.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which a metric may worsen
	// before a change counts as a regression. Every end-to-end metric has
	// one; so do the four per-layer rows that time a phase of campaign-svc,
	// which -compare and -selfcheck judge (BENCHMARK.json has no room for it).
	Bound float64
	// Kind says how the value is obtained. End to end: "host" (wall clock,
	// noise applies) or "exact" (deterministic for a given seed). Per layer:
	// "P" CPU-profile self-time share of the traced reps, "C" exact counter
	// from public results, "T" timer around a public call, "M" standalone
	// micro-driver.
	Kind string
	// Moves names, for a per-layer metric, the end-to-end metric and the
	// workload it is expected to move ("metric@workload"); everywhere else
	// the prediction is no change.
	Moves string
}

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlMesh   = "mesh64-sat"
	wlSparse = "sparse64-lat"
	wlChaos  = "chaos16-guarded"
	wlSvc    = "campaign-svc"
)

var workloadNames = []string{wlMesh, wlSparse, wlChaos, wlSvc}

// endToEnd is what a user of the simulator sees: how long a fixed list of
// operations takes, what it costs in memory, and what the simulated machine
// reports. Every metric is defined on every workload.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "sim_kcycles_per_s", Unit: "kcyc/s", Better: "higher", Bound: 0.25, Kind: "host"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05, Kind: "host"},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.10, Kind: "exact"},
	{Name: "sim_link_flits", Unit: "flits", Better: "lower", Bound: 0.10, Kind: "exact"},
	{Name: "ordpush_speedup_x", Unit: "x", Better: "higher", Bound: 0.10, Kind: "exact"},
	{Name: "ordpush_flit_ratio", Unit: "ratio", Better: "lower", Bound: 0.10, Kind: "exact"},
}

// perLayer is one row per thing a single layer does, measured from outside
// the layer. A metric a workload does not exercise reads 0 there.
var perLayer = []metric{
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Kind: "T", Moves: "wall_s@" + wlMesh},

	{Name: "sim.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlSparse},
	{Name: "sim.ticks_per_cycle", Unit: "ticks/cyc", Better: "lower", Kind: "C", Moves: "sim_kcycles_per_s@" + wlSparse},
	{Name: "sim.null_tick_ns", Unit: "ns", Better: "lower", Kind: "M", Moves: "wall_s@" + wlSparse},
	{Name: "sim.sleep_wake_ns", Unit: "ns", Better: "lower", Kind: "M", Moves: "wall_s@" + wlSparse},
	{Name: "sim.dense_over_wake_x", Unit: "x", Better: "higher", Kind: "T", Moves: "wall_s@" + wlSparse},
	{Name: "sim.parallel2_over_serial_x", Unit: "x", Better: "lower", Kind: "T", Moves: "wall_s@" + wlSparse},

	{Name: "noc.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlMesh},
	{Name: "noc.host_ns_per_link_flit", Unit: "ns", Better: "lower", Kind: "T", Moves: "wall_s@" + wlMesh},
	{Name: "noc.link_flits", Unit: "flits", Better: "lower", Kind: "C", Moves: "sim_link_flits@" + wlMesh},
	{Name: "noc.flits_per_cycle", Unit: "flits/cyc", Better: "higher", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "noc.avg_packet_latency_cyc", Unit: "cycles", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "noc.multicast_replicas", Unit: "count", Better: "higher", Kind: "C", Moves: "ordpush_flit_ratio@" + wlMesh},
	{Name: "noc.filtered_requests", Unit: "count", Better: "higher", Kind: "C", Moves: "ordpush_flit_ratio@" + wlMesh},
	{Name: "noc.stalled_inv_cycles", Unit: "cycles", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "noc.inj_refused", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "noc.msg_dropped", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlChaos},
	{Name: "noc.retransmits", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_link_flits@" + wlChaos},
	{Name: "noc.retransmit_ratio", Unit: "ratio", Better: "lower", Kind: "C", Moves: "sim_link_flits@" + wlChaos},
	{Name: "noc.dup_suppressed", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_link_flits@" + wlChaos},
	{Name: "noc.corrupt_detected", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlChaos},
	{Name: "noc.uni_ns_per_flit_hop", Unit: "ns", Better: "lower", Kind: "M", Moves: "wall_s@" + wlMesh},
	{Name: "noc.mcast_ns_per_flit_hop", Unit: "ns", Better: "lower", Kind: "M", Moves: "wall_s@" + wlMesh},
	{Name: "noc.mcast_replicas_per_push", Unit: "count", Better: "higher", Kind: "M", Moves: "ordpush_flit_ratio@" + wlMesh},

	{Name: "cache.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlMesh},
	{Name: "cache.l1_mpki", Unit: "mpki", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "cache.l2_mpki", Unit: "mpki", Better: "lower", Kind: "C", Moves: "ordpush_speedup_x@" + wlMesh},
	{Name: "cache.llc_miss_ratio", Unit: "ratio", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "cache.l2_evictions", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "cache.pushes_triggered", Unit: "count", Better: "higher", Kind: "C", Moves: "ordpush_speedup_x@" + wlMesh},
	{Name: "cache.push_avg_dests", Unit: "count", Better: "higher", Kind: "C", Moves: "ordpush_flit_ratio@" + wlMesh},
	{Name: "cache.push_useful_ratio", Unit: "ratio", Better: "higher", Kind: "C", Moves: "ordpush_speedup_x@" + wlMesh},
	{Name: "cache.push_drop_ratio", Unit: "ratio", Better: "lower", Kind: "C", Moves: "ordpush_flit_ratio@" + wlMesh},
	{Name: "cache.paused_push_requests", Unit: "count", Better: "lower", Kind: "C", Moves: "ordpush_speedup_x@" + wlSparse},
	{Name: "cache.mshr_timeouts", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlChaos},

	{Name: "cpu.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlSparse},
	{Name: "cpu.ipc", Unit: "ipc", Better: "higher", Kind: "C", Moves: "sim_cycles@" + wlSparse},
	{Name: "cpu.stall_cycle_ratio", Unit: "ratio", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "workload.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlSparse},
	{Name: "workload.stream_mops_per_s", Unit: "Mops/s", Better: "higher", Kind: "M", Moves: "wall_s@" + wlSparse},

	{Name: "memctrl.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlMesh},
	{Name: "memctrl.reads", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "memctrl.writes", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlMesh},
	{Name: "coherence.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlMesh},
	{Name: "prefetch.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlMesh},
	{Name: "stats.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlMesh},

	{Name: "fault.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlChaos},
	{Name: "fault.windows", Unit: "count", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlChaos},
	{Name: "fault.jitter_delay_cyc", Unit: "cycles", Better: "lower", Kind: "C", Moves: "sim_cycles@" + wlChaos},
	{Name: "check.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlChaos},
	{Name: "check.on_over_off_x", Unit: "x", Better: "lower", Kind: "T", Moves: "wall_s@" + wlChaos},
	{Name: "trace.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "alloc_mb@" + wlChaos},
	{Name: "trace.events", Unit: "count", Better: "lower", Kind: "C", Moves: "alloc_mb@" + wlChaos},

	{Name: "snapshot.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlChaos},
	{Name: "snapshot.bytes", Unit: "bytes", Better: "lower", Kind: "C", Moves: "alloc_mb@" + wlChaos},
	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower", Kind: "T", Moves: "wall_s@" + wlChaos},
	{Name: "snapshot.save_mb_per_s", Unit: "MB/s", Better: "higher", Kind: "T", Moves: "wall_s@" + wlChaos},
	{Name: "snapshot.restore_ms", Unit: "ms", Better: "lower", Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "snapshot.restore_mb_per_s", Unit: "MB/s", Better: "higher", Kind: "T", Moves: "wall_s@" + wlSvc},

	{Name: "core.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "setup_s@" + wlMesh},
	{Name: "core.build_ms", Unit: "ms", Better: "lower", Kind: "T", Moves: "setup_s@" + wlMesh},
	{Name: "core.run_s", Unit: "s", Better: "lower", Kind: "T", Moves: "wall_s@" + wlMesh},
	{Name: "core.tile_cycle_ns", Unit: "ns", Better: "lower", Kind: "T", Moves: "sim_kcycles_per_s@" + wlMesh},
	{Name: "core.allocs_per_run", Unit: "count", Better: "lower", Kind: "T", Moves: "alloc_mb@" + wlMesh},
	{Name: "core.alloc_mb_per_run", Unit: "MB", Better: "lower", Kind: "T", Moves: "peak_rss_mb@" + wlMesh},

	{Name: "goruntime.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlChaos},
	{Name: "goruntime.num_gc", Unit: "count", Better: "lower", Kind: "T", Moves: "alloc_mb@" + wlChaos},
	{Name: "goruntime.gc_pause_ms", Unit: "ms", Better: "lower", Kind: "T", Moves: "wall_s@" + wlChaos},

	{Name: "harness.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlSvc},
	{Name: "harness.memo_hit_us", Unit: "us", Better: "lower", Kind: "M", Moves: "wall_s@" + wlSvc},
	{Name: "harness.run_identity_us", Unit: "us", Better: "lower", Kind: "M", Moves: "wall_s@" + wlSvc},
	{Name: "harness.memo_hits", Unit: "count", Better: "higher", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "harness.memo_misses", Unit: "count", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "harness.memo_evictions", Unit: "count", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},

	{Name: "serve.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlSvc},
	{Name: "serve.cold_runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25, Kind: "T", Moves: "sim_kcycles_per_s@" + wlSvc},
	{Name: "serve.first_record_ms", Unit: "ms", Better: "lower", Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "serve.cached_campaign_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "serve.cached_campaign_p95_ms", Unit: "ms", Better: "lower", Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "serve.cached_record_us", Unit: "us", Better: "lower", Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "serve.warmfork_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "serve.reject_400_us", Unit: "us", Better: "lower", Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "serve.snapshot_upload_mb_per_s", Unit: "MB/s", Better: "higher", Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "serve.pool_utilization", Unit: "ratio", Better: "higher", Kind: "T", Moves: "sim_kcycles_per_s@" + wlSvc},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "serve.queue_wait_p90_ms", Unit: "ms", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "serve.memo_hit_ratio", Unit: "ratio", Better: "higher", Kind: "C", Moves: "wall_s@" + wlSvc},

	{Name: "shard.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlSvc},
	{Name: "shard.sharded_runs_per_s", Unit: "runs/s", Better: "higher", Bound: 0.25, Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "shard.sharded_over_local_x", Unit: "x", Better: "lower", Kind: "T", Moves: "wall_s@" + wlSvc},
	{Name: "shard.shards", Unit: "count", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "shard.retries", Unit: "count", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "shard.reassigned", Unit: "count", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "shard.degraded_local", Unit: "count", Better: "lower", Kind: "C", Moves: "wall_s@" + wlSvc},
	{Name: "shard.journal_commit_p50_us", Unit: "us", Better: "lower", Kind: "M", Moves: "wall_s@" + wlSvc},
	{Name: "shard.journal_commit_p95_us", Unit: "us", Better: "lower", Kind: "M", Moves: "wall_s@" + wlSvc},
	{Name: "shard.journal_bytes_per_record", Unit: "bytes", Better: "lower", Kind: "M", Moves: "wall_s@" + wlSvc},

	{Name: "other.cpu_share", Unit: "share", Better: "lower", Kind: "P", Moves: "wall_s@" + wlSvc},
}

// profileLayers are the buckets a CPU-profile sample can land in; each has a
// "<layer>.cpu_share" row above, and together the shares sum to 1.
var profileLayers = []string{
	"sim", "noc", "cache", "cpu", "workload", "memctrl", "coherence", "prefetch",
	"stats", "fault", "check", "trace", "snapshot", "core", "goruntime",
	"harness", "serve", "shard", "other",
}

func findMetric(list []metric, name string) (metric, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
