package main

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares one metric of BENCHMARK.json; a test keeps that file and
// these tables identical.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share by which an end-to-end metric may worsen; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd lists what a client of /api/v1 sees, as far as it repeats within
// a bound on the reference box (README.md, Steadiness). Every workload
// exercises and reports every one of them (the benchmark contract), which is
// why each workload has an open-loop phase; README.md says what each means on
// each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer lists the traced run's metrics, `layer.metric` with this repo's
// package names as layers. The first block holds the user-visible numbers
// that cannot carry a bound: closed-loop throughput, heal time and the tail
// percentiles do not repeat within 25 % on the reference box (README.md,
// Steadiness), and the others only some workloads exercise, where the
// contract wants every end-to-end metric on every workload and never 0. A
// metric reads 0 on a workload that does not exercise its layer.
var perLayer = []metricDef{
	{Name: "runs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "heal_p25_ms", Unit: "ms", Better: "lower"},
	{Name: "heal_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "heal_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "storm_heal_s", Unit: "s", Better: "lower"},
	{Name: "restart_s", Unit: "s", Better: "lower"},
	{Name: "wal_bytes_per_run", Unit: "B", Better: "lower"},

	{Name: "httpapi.post_runs_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.get_run_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.post_alerts_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.requests", Unit: "count", Better: "lower"},
	{Name: "httpapi.self_us_per_run", Unit: "us", Better: "lower"},
	{Name: "wfjson.build_us", Unit: "us", Better: "lower"},

	{Name: "shard.submit_us", Unit: "us", Better: "lower"},
	{Name: "shard.run_us", Unit: "us", Better: "lower"},
	{Name: "shard.commit_batch_entries", Unit: "count", Better: "higher"},
	{Name: "shard.deferred_peak", Unit: "count", Better: "lower"},
	{Name: "shard.quiesce_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.quiesced_shards", Unit: "count", Better: "lower"},

	{Name: "engine.step_us", Unit: "us", Better: "lower"},
	{Name: "engine.steps", Unit: "count", Better: "lower"},
	{Name: "wlog.append_us", Unit: "us", Better: "lower"},
	{Name: "wlog.hook_frac", Unit: "1", Better: "lower"},
	{Name: "deps.append_us", Unit: "us", Better: "lower"},
	{Name: "deps.snapshot_us", Unit: "us", Better: "lower"},

	{Name: "data.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "data.versions", Unit: "count", Better: "lower"},
	{Name: "data.versions_per_key", Unit: "count", Better: "lower"},

	{Name: "durable.fsyncs_per_run", Unit: "count", Better: "lower"},
	{Name: "durable.group_entries", Unit: "count", Better: "higher"},
	{Name: "durable.fsync_us", Unit: "us", Better: "lower"},
	{Name: "durable.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "durable.encode_us", Unit: "us", Better: "lower"},
	{Name: "durable.spec_sync_us", Unit: "us", Better: "lower"},
	{Name: "durable.snapshots", Unit: "count", Better: "lower"},
	{Name: "durable.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.replay_records", Unit: "count", Better: "lower"},
	{Name: "durable.replay_ms", Unit: "ms", Better: "lower"},

	{Name: "triage.partition_us", Unit: "us", Better: "lower"},
	{Name: "triage.coalesce_ratio", Unit: "1", Better: "higher"},
	{Name: "triage.cones", Unit: "count", Better: "lower"},
	{Name: "triage.prefilter_hits", Unit: "count", Better: "higher"},
	{Name: "triage.deduped", Unit: "count", Better: "higher"},

	{Name: "recovery.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.closure_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.repair_analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.undo_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.redo_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.undone_per_incident", Unit: "count", Better: "lower"},
	{Name: "recovery.redone_per_incident", Unit: "count", Better: "lower"},
	{Name: "recovery.components", Unit: "count", Better: "lower"},
	{Name: "recovery.log_entries", Unit: "count", Better: "lower"},
	{Name: "recovery.useful_ratio", Unit: "1", Better: "higher"},

	{Name: "cluster.stamp_batch_entries", Unit: "count", Better: "higher"},
	{Name: "cluster.submit_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "cluster.journal_fsyncs_per_run", Unit: "count", Better: "lower"},
	{Name: "cluster.replication_lag_records", Unit: "count", Better: "lower"},
	{Name: "cluster.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.proxied", Unit: "count", Better: "lower"},
	{Name: "cluster.tokens_sent", Unit: "count", Better: "lower"},
	{Name: "cluster.stale_frac", Unit: "1", Better: "lower"},
	{Name: "cluster.incident_quiesce_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.polls_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "1", Better: "lower"},
	{Name: "runtime.alloc_mb_per_krun", Unit: "MB", Better: "lower"},
	{Name: "obs.overhead_frac", Unit: "1", Better: "lower"},
	{Name: "budget.unexplained_frac", Unit: "1", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct{ Name, Why string }

var workloads = []workloadDef{
	{"steady-mem", "in-memory service, attack-free sat and paced phases: the pure commit path, and the no-change control for every WAL, cluster, triage and recovery change"},
	{"durable", "same traffic through the WAL (fsync per spec record and per commit batch, snapshots, restart): the gap to steady-mem is the WAL's cost"},
	{"heal-needle", "96 small-cone incidents back to back in a preloaded history under paced clean traffic: recovery cost proportional to the log, and clean-run latency during recovery"},
	{"heal-storm", "16 waves of 4 wide-cone forges, each accused by 32 overlapping alerts at 200/s under clean traffic: triage coalescing, prefilter, dedupe; work proportional to damage"},
	{"cluster3", "three journaled nodes, client on a non-stamper: proxying, token handoff, group stamping, journal fsync, replication and distributed incidents (early, in a short history)"},
}

// filled returns one entry per def, taking the value from got and 0 where the
// workload did not produce the metric.
func filled(defs []metricDef, got map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
