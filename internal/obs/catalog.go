package obs

// Canonical metric names. Instrumented packages register through these
// constants so names cannot drift from the Catalog below, and the CI
// doc-drift gate (scripts/ci.sh) greps docs/OBSERVABILITY.md for every
// cataloged name.
const (
	// internal/wlog — the system log (§II.A).
	MWlogAppends     = "wlog_appends_total"
	MWlogEntries     = "wlog_entries"
	MWlogHookSeconds = "wlog_hook_seconds_total"

	// internal/engine — normal processing (Fig 2).
	MEngineCommits     = "engine_commits_total"
	MEngineForged      = "engine_forged_total"
	MEngineStepSeconds = "engine_step_seconds"

	// internal/selfheal — the attack-recovery runtime (§IV).
	MAlertsReported        = "selfheal_alerts_reported_total"
	MAlertsLost            = "selfheal_alerts_lost_total"
	MAlertsBelowHorizon    = "selfheal_alerts_below_horizon_total"
	MAlertsAnalyzed        = "selfheal_alerts_analyzed_total"
	MUnitsExecuted         = "selfheal_units_executed_total"
	MNormalSteps           = "selfheal_normal_steps_total"
	MConcurrentNormalSteps = "selfheal_concurrent_normal_steps_total"
	MEagerUnits            = "selfheal_eager_units_total"
	MTicksNormal           = "selfheal_ticks_normal_total"
	MTicksScan             = "selfheal_ticks_scan_total"
	MTicksRecovery         = "selfheal_ticks_recovery_total"
	MAlertQueueDepth       = "selfheal_alert_queue_depth"
	MRecoveryQueueDepth    = "selfheal_recovery_queue_depth"
	MState                 = "selfheal_state"
	MStateTransitions      = "selfheal_state_transitions_total"
	MDwellNormalTicks      = "selfheal_dwell_normal_ticks"
	MDwellScanTicks        = "selfheal_dwell_scan_ticks"
	MDwellRecoveryTicks    = "selfheal_dwell_recovery_ticks"
	MAnalyzeSeconds        = "selfheal_analyze_seconds"
	MRepairSeconds         = "selfheal_repair_seconds"
	MRepairAnalyzeSeconds  = "selfheal_repair_analyze_seconds"
	MRepairUndoSeconds     = "selfheal_repair_undo_seconds"
	MRepairRedoSeconds     = "selfheal_repair_redo_seconds"
	MUndone                = "selfheal_undone_total"
	MRedone                = "selfheal_redone_total"
	MNewExecuted           = "selfheal_new_executed_total"
	MRepairComponents      = "selfheal_repair_components"
	MRepairWorkers         = "selfheal_repair_workers"

	// internal/triage — the streaming alert triage front-end (§V, SLEUTH).
	MTriageCoalesceRatio = "triage_coalesce_ratio"
	MTriageConeSize      = "triage_cone_size"
	MTriageCones         = "triage_cones_total"
	MTriagePrefilterHits = "triage_prefilter_hits_total"
	MTriageDeduped       = "triage_deduped_total"

	// internal/rtsim — virtual-time occupancy of the real runtime (§V).
	MTimeNormalSeconds   = "selfheal_time_normal_seconds_total"
	MTimeScanSeconds     = "selfheal_time_scan_seconds_total"
	MTimeRecoverySeconds = "selfheal_time_recovery_seconds_total"
	MTimeLossEdgeSeconds = "selfheal_time_loss_edge_seconds_total"

	// internal/shard — the concurrent sharded execution layer (§III.D/§IV).
	MShardSteps          = "shard_steps_total"
	MShardActiveRuns     = "shard_active_runs"
	MShardDeferredRuns   = "shard_deferred_runs"
	MShardCommitBatches  = "shard_commit_batches_total"
	MShardCommitEntries  = "shard_commit_entries_total"
	MShardRunsCompleted  = "shard_runs_completed_total"
	MShardRunsFailed     = "shard_runs_failed_total"
	MShardQuiesceSeconds = "shard_quiesce_seconds"
	MShardQuiescedShards = "shard_quiesced_shards"

	// internal/httpapi — the analysis service.
	MHTTPRequests       = "http_requests_total"
	MHTTPRequestSeconds = "http_request_seconds"

	// internal/cluster — the networked multi-node deployment (§VII).
	MClusterRecordsStamped      = "cluster_records_stamped_total"
	MClusterRecordsApplied      = "cluster_records_applied"
	MClusterReplicationErrors   = "cluster_replication_errors_total"
	MClusterReplicationLag      = "cluster_replication_lag"
	MClusterProxied             = "cluster_proxied_requests_total"
	MClusterTokensSent          = "cluster_tokens_sent_total"
	MClusterTokensReceived      = "cluster_tokens_received_total"
	MClusterStaleSubmissions    = "cluster_stale_submissions_total"
	MClusterPausedKeys          = "cluster_paused_keys"
	MClusterIncidents           = "cluster_incidents_total"
	MClusterStampBatchSize      = "cluster_stamp_batch_size"
	MClusterReplicationBytes    = "cluster_replication_bytes_total"
	MClusterJournalErrors       = "cluster_journal_errors_total"
	MClusterReconcilePickups    = "cluster_reconcile_pickups_total"
	MClusterRunsDoneAtAdmission = "cluster_runs_done_at_admission_total"

	// internal/durable — the segmented write-ahead log (Ancora/PAPERS.md).
	MWalFsyncSeconds    = "wal_fsync_seconds"
	MWalGroupEntries    = "wal_group_entries"
	MWalAppendedBytes   = "wal_appended_bytes_total"
	MWalSegments        = "wal_segments"
	MWalSnapshots       = "wal_snapshots_total"
	MWalReplaySeconds   = "wal_replay_seconds_total"
	MWalReplayedRecords = "wal_replayed_records_total"
)

// Def describes one cataloged metric: its exposition name (the base name
// for labeled families like http_requests_total{route="..."}), kind, the
// paper symbol it measures (or "—"), the paper section, and the help text
// used in the Prometheus exposition.
type Def struct {
	Name    string
	Kind    string // "counter", "gauge", "sum", "histogram"
	Symbol  string
	Section string
	Help    string
}

// Catalog returns every metric the system exports, in exposition order.
// docs/OBSERVABILITY.md documents each entry; TestCatalogDocumented and the
// scripts/ci.sh doc-drift gate keep the two in sync.
func Catalog() []Def {
	return []Def{
		{MWlogAppends, "counter", "—", "§II.A", "Task executions committed to the system log."},
		{MWlogEntries, "gauge", "—", "§II.A", "Current length of the system log."},
		{MWlogHookSeconds, "sum", "—", "§II.C", "Total time spent in commit hooks (incremental dependence maintenance)."},
		{MEngineCommits, "counter", "—", "Fig 2", "Normal workflow task commits executed by the engine."},
		{MEngineForged, "counter", "—", "§II.B", "Forged task instances injected outside any workflow specification."},
		{MEngineStepSeconds, "histogram", "—", "Fig 2", "Wall-clock latency of one engine task execution and commit."},
		{MAlertsReported, "counter", "λ_a", "§IV.C", "IDS alerts delivered to the runtime (arrival process)."},
		{MAlertsLost, "counter", "P_l", "Def. 3", "IDS alerts dropped because the alert buffer was full."},
		{MAlertsBelowHorizon, "counter", "—", "§III", "IDS alerts refused because they name an instance of a run retired beneath the durable snapshot horizon."},
		{MAlertsAnalyzed, "counter", "μ_s", "§IV.C", "Alerts the analyzer turned into units of recovery tasks."},
		{MUnitsExecuted, "counter", "ξ_r", "§IV.C", "Units of recovery tasks executed by the scheduler."},
		{MNormalSteps, "counter", "—", "§IV.C", "Normal workflow task executions scheduled in NORMAL state."},
		{MConcurrentNormalSteps, "counter", "—", "§III.D", "Normal tasks executed while recovery work was pending (Concurrent strategy)."},
		{MEagerUnits, "counter", "—", "§III.D", "Recovery units executed while alerts were still queued (EagerRecovery strategy)."},
		{MTicksNormal, "counter", "π_N", "§IV.C", "Scheduler ticks processed in the NORMAL state."},
		{MTicksScan, "counter", "π_S", "§IV.C", "Scheduler ticks processed in the SCAN state."},
		{MTicksRecovery, "counter", "π_R", "§IV.C", "Scheduler ticks processed in the RECOVERY state."},
		{MAlertQueueDepth, "gauge", "a", "§IV.E", "Current depth of the bounded IDS-alert queue (STG column index)."},
		{MRecoveryQueueDepth, "gauge", "r", "§IV.E", "Current depth of the bounded recovery-unit queue (STG row index)."},
		{MState, "gauge", "—", "§IV.C", "Current state class: 0 NORMAL, 1 SCAN, 2 RECOVERY."},
		{MStateTransitions, "counter", "—", "§IV.C", "NORMAL/SCAN/RECOVERY state changes."},
		{MDwellNormalTicks, "histogram", "π_N", "§IV.C", "Consecutive ticks spent in NORMAL before leaving it."},
		{MDwellScanTicks, "histogram", "π_S", "§IV.C", "Consecutive ticks spent in SCAN before leaving it."},
		{MDwellRecoveryTicks, "histogram", "π_R", "§IV.C", "Consecutive ticks spent in RECOVERY before leaving it."},
		{MAnalyzeSeconds, "histogram", "μ_s", "§IV.D", "Wall-clock latency of one alert analysis (damage assessment)."},
		{MRepairSeconds, "histogram", "ξ_r", "§IV.D", "Wall-clock latency of one recovery-unit execution, all phases."},
		{MRepairAnalyzeSeconds, "histogram", "ξ_r", "§III.B", "Repair latency: static damage analysis phase."},
		{MRepairUndoSeconds, "histogram", "ξ_r", "§III.B", "Repair latency: undo staging phase (summed over fixpoint iterations)."},
		{MRepairRedoSeconds, "histogram", "ξ_r", "§III.B", "Repair latency: corrected-history replay (redo) phase."},
		{MUndone, "counter", "B_a", "Thm. 1", "Task instances undone across all executed recovery units."},
		{MRedone, "counter", "B_r", "Thm. 2", "Task instances re-executed at their original positions."},
		{MNewExecuted, "counter", "—", "§III.B", "Task instances executed for the first time during recovery."},
		{MRepairComponents, "histogram", "—", "§IV", "Independent key-footprint components replayed by one repair."},
		{MRepairWorkers, "histogram", "—", "§IV", "Concurrent replay workers used by one repair."},
		{MTriageCoalesceRatio, "histogram", "λ_a/μ_s", "§V", "Alerts folded per damage-cone analysis in one drained batch (the coalescing fold)."},
		{MTriageConeSize, "histogram", "—", "§V", "Source alerts folded into one damage cone."},
		{MTriageCones, "counter", "μ_s", "§V", "Damage-cone analyses performed by the triage front-end."},
		{MTriagePrefilterHits, "counter", "—", "§V", "Alerts dropped because an in-flight recovery unit's damage closure already covered them."},
		{MTriageDeduped, "counter", "—", "§V", "Report-time alerts absorbed because an identical bad set was already queued."},
		{MTimeNormalSeconds, "sum", "π_N", "§V", "Virtual time the runtime spent in NORMAL (rtsim)."},
		{MTimeScanSeconds, "sum", "π_S", "§V", "Virtual time the runtime spent in SCAN (rtsim)."},
		{MTimeRecoverySeconds, "sum", "π_R", "§V", "Virtual time the runtime spent in RECOVERY (rtsim)."},
		{MTimeLossEdgeSeconds, "sum", "P_l", "Def. 3", "Virtual time the alert buffer was full (loss-edge occupancy, rtsim)."},
		{MShardSteps, "counter", "—", "§III.D", "Normal task commits executed, labeled by shard."},
		{MShardActiveRuns, "gauge", "—", "§III.D", "Runs currently assigned to the shard, labeled by shard."},
		{MShardDeferredRuns, "gauge", "—", "§III.D", "Runs waiting in the bounded deferred queue for a sound (key-disjoint) shard placement."},
		{MShardCommitBatches, "counter", "—", "§II.A", "Group commits executed by the commit pipeline."},
		{MShardCommitEntries, "counter", "—", "§II.A", "Log entries committed through the group-commit pipeline (entries/batches is the achieved fold)."},
		{MShardRunsCompleted, "counter", "—", "Fig 2", "Sharded runs that reached an end node."},
		{MShardRunsFailed, "counter", "—", "§VII", "Sharded runs aborted by a task failure."},
		{MShardQuiesceSeconds, "histogram", "ξ_r", "§IV.C", "Wall-clock time the shards were quiesced for one recovery-unit repair."},
		{MShardQuiescedShards, "histogram", "—", "§IV", "Shards paused for one recovery-unit repair (partial quiescence scope)."},
		{MHTTPRequests, "counter", "—", "—", "HTTP requests served, labeled by route."},
		{MHTTPRequestSeconds, "histogram", "—", "—", "HTTP request latency across all routes."},
		{MClusterRecordsStamped, "counter", "—", "§VII", "Records assigned a stream position by this node's sequencer, labeled by kind."},
		{MClusterRecordsApplied, "gauge", "—", "§VII", "Replication cursor: stream records applied to the local replica."},
		{MClusterReplicationErrors, "counter", "—", "§VII", "Failed record pushes to a peer, labeled by peer."},
		{MClusterReplicationLag, "gauge", "—", "§VII", "Records stamped locally but not yet acknowledged by a peer, labeled by peer."},
		{MClusterProxied, "counter", "—", "§VII", "Client API requests forwarded to the owning node, labeled by route."},
		{MClusterTokensSent, "counter", "—", "§VII", "Workflow control tokens handed to another node (run's next task owned elsewhere)."},
		{MClusterTokensReceived, "counter", "—", "§VII", "Workflow control tokens accepted from another node."},
		{MClusterStaleSubmissions, "counter", "—", "§VII", "Optimistic task submissions rejected by the sequencer (frontier or read set no longer current)."},
		{MClusterPausedKeys, "gauge", "—", "§IV", "Store keys currently quiesced by an incident's partial quiescence."},
		{MClusterIncidents, "counter", "—", "§IV", "Damage incidents this node led through assess, quiesce and repair."},
		{MClusterStampBatchSize, "histogram", "—", "§VII", "Records (specs and entries) stamped per group-commit batch (one journal fsync amortized across each batch)."},
		{MClusterReplicationBytes, "counter", "—", "§VII", "Binary replication body bytes, labeled by direction (dir=in received, dir=out sent)."},
		{MClusterJournalErrors, "counter", "—", "§VII", "Record-journal append failures (the replica stays ahead of its journal; -join catch-up heals the gap)."},
		{MClusterReconcilePickups, "counter", "—", "§VII", "Stalled runs the reconciler started a driver for (no token moved them for a whole reconcile interval)."},
		{MClusterRunsDoneAtAdmission, "counter", "—", "§VII", "Runs this node registered whose first window, stamped in the spec's group, completed them (no token, no further submission)."},
		{MWalFsyncSeconds, "histogram", "—", "§I", "Wall-clock latency of one group-commit fsync."},
		{MWalGroupEntries, "histogram", "—", "§II.A", "Records made durable by one fsync (the achieved group-commit fold)."},
		{MWalAppendedBytes, "counter", "—", "§II.A", "Bytes appended to WAL segments."},
		{MWalSegments, "gauge", "—", "§I", "Live WAL segment files (grows with appends, shrinks at snapshot retirement)."},
		{MWalSnapshots, "counter", "—", "§I", "Durable store snapshots written at compaction checkpoints."},
		{MWalReplaySeconds, "sum", "—", "§I", "Total wall-clock time spent replaying the WAL at boot."},
		{MWalReplayedRecords, "counter", "—", "§I", "WAL records decoded and replayed at boot (snapshot-covered records are skipped)."},
	}
}

// HelpFor returns the catalog help text for a metric-family base name, or
// "" when the name is not cataloged.
func HelpFor(base string) string {
	for _, d := range Catalog() {
		if d.Name == base {
			return d.Help
		}
	}
	return ""
}
