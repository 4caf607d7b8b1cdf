package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/obs"
	"selfheal/internal/recovery"
	"selfheal/internal/stg"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Config sizes the sharded service.
type Config struct {
	// Shards is the number of worker shards executing normal tasks
	// (default 1).
	Shards int
	// BatchMax bounds how many concurrently submitted commits fold into
	// one group commit (default 8).
	BatchMax int
	// CommitQueue buffers the commit pipeline (default 4×Shards).
	CommitQueue int
	// Inbox buffers each shard's run-delivery channel (default 32).
	Inbox int
	// DeferMax bounds the deferred-run queue holding submissions whose
	// key footprints conflict across shards; a full queue rejects with
	// ErrQueueFull (default 16).
	DeferMax int
	// AlertBuf bounds the IDS-alert queue; Report on a full queue drops
	// the alert, counts it lost and returns ErrQueueFull — the explicit
	// backpressure matching the CTMC's loss edge (default 8).
	AlertBuf int
	// RecoveryBuf bounds the recovery-unit queue; a full buffer blocks
	// the analyzer and forces a drain, §IV.E (default 4).
	RecoveryBuf int
	// Repair tunes the recovery executor.
	Repair recovery.Options
	// Triage selects the streaming alert-triage mechanisms (cone
	// coalescing, covered-alert prefilter, Report-time dedupe). The zero
	// value disables all of them: one analysis per alert, exactly the
	// per-alert pipeline the §V CTMC models. See internal/triage and
	// docs/TRIAGE.md.
	Triage triage.Options
	// SnapshotEvery triggers an automatic durable checkpoint once this
	// many log entries have committed beyond the latest snapshot. Durable
	// services only (NewDurable); 0 disables automatic checkpoints —
	// restores replay the whole log. See docs/DURABILITY.md.
	SnapshotEvery int
	// AuditRepairs validates every installed repair's schedule against the
	// Theorem-3 partial orders (recovery.AuditSchedule) and accumulates
	// violations in Metrics.AuditViolations. The audit costs one pass over
	// the repair schedule; it exists so a fuzzing or chaos campaign can
	// assert "no repair ever violated the constraint DAG" from outside
	// (GET /api/v1/chaos/verify, docs/FUZZING.md).
	AuditRepairs bool
	// Fault selects deliberate soundness faults for the fuzzer's mutation
	// smoke. Never set in production.
	Fault FaultInjection
	// Strict selects the paper's strict-correctness strategy (Theorem-4
	// gating): every shard quiesces for the whole SCAN and RECOVERY
	// period, so no normal task executes while recovery work is known or
	// pending. The default (false) is §III.D strategy 3 with §IV partial
	// quiescence: shards keep stepping through analysis, and each repair
	// pauses only the shards whose key footprints intersect the damage
	// closure — clean shards serve new and in-flight runs through the
	// whole RECOVERY window. Normal tasks that consumed corrupt data
	// before the pause are folded into the damage closure when the unit
	// executes, so the final state still converges to the strict one.
	Strict bool
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.BatchMax < 1 {
		c.BatchMax = 8
	}
	if c.CommitQueue < 1 {
		c.CommitQueue = 4 * c.Shards
	}
	if c.Inbox < 1 {
		c.Inbox = 32
	}
	if c.DeferMax == 0 {
		c.DeferMax = 16
	}
	if c.AlertBuf < 1 {
		c.AlertBuf = 8
	}
	if c.RecoveryBuf < 1 {
		c.RecoveryBuf = 4
	}
	return c
}

// FaultInjection selects deliberate soundness faults, used only by the
// fuzzer's mutation smoke (cmd/selfheal-fuzz -fault-skip-repair): a service
// booted with a fault MUST fail the fuzzing oracles, which proves the
// oracle suite can actually catch an unsound implementation. See
// docs/FUZZING.md.
type FaultInjection struct {
	// SkipRepair makes the recovery worker dequeue units and acknowledge
	// them as executed without performing any repair — alerts are consumed
	// but the damage stays in the store.
	SkipRepair bool
}

// Metrics counts the service's activity. All fields are cumulative. The
// JSON names are the wire contract of GET /api/v1/state (docs/API.md).
type Metrics struct {
	// AlertsReported, AlertsLost, AlertsAnalyzed count IDS reports;
	// AlertsLost is the measured side of the CTMC loss probability.
	AlertsReported int `json:"alerts_reported"`
	AlertsLost     int `json:"alerts_lost"`
	AlertsAnalyzed int `json:"alerts_analyzed"`
	// UnitsExecuted counts recovery units completed; RecoveryErrors
	// counts units whose repair failed.
	UnitsExecuted  int `json:"units_executed"`
	RecoveryErrors int `json:"recovery_errors"`
	// Undone, Redone, NewExecuted accumulate recovery work sizes.
	Undone      int `json:"undone"`
	Redone      int `json:"redone"`
	NewExecuted int `json:"new_executed"`
	// RunsSubmitted, RunsCompleted, RunsFailed count run lifecycles.
	RunsSubmitted int `json:"runs_submitted"`
	RunsCompleted int `json:"runs_completed"`
	RunsFailed    int `json:"runs_failed"`
	// NormalSteps totals committed normal task executions; ShardSteps
	// splits them per shard.
	NormalSteps int   `json:"normal_steps"`
	ShardSteps  []int `json:"shard_steps"`
	// CommitBatches and CommitEntries count group commits and the entries
	// they carried; Entries/Batches is the achieved group-commit fold.
	CommitBatches int `json:"commit_batches"`
	CommitEntries int `json:"commit_entries"`
	// ConesAnalyzed counts damage-cone analyses (AnalyzeGraph calls);
	// AlertsAnalyzed/ConesAnalyzed is the achieved coalescing fold.
	ConesAnalyzed int `json:"cones_analyzed"`
	// AlertsPrefiltered counts alerts dropped at triage because an
	// in-flight recovery unit's damage closure already covered them.
	AlertsPrefiltered int `json:"alerts_prefiltered"`
	// AlertsDeduped counts Report-time absorptions of bad sets already
	// queued (only nonzero with Triage.Dedupe).
	AlertsDeduped int `json:"alerts_deduped"`
	// AlertsBelowHorizon counts alerts refused with recovery.ErrHorizon:
	// they named an instance of a run retired beneath the durable snapshot
	// horizon, whose history is gone (durable services only).
	AlertsBelowHorizon int `json:"alerts_below_horizon"`
	// AuditViolations counts Theorem-3 partial-order violations found by
	// the per-repair schedule audit (only maintained with
	// Config.AuditRepairs; always 0 on a sound implementation).
	AuditViolations int `json:"audit_violations"`
}

// RunInfo is one run's externally visible status (the /api/v1/runs/{id}
// resource).
type RunInfo struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Shard  int    `json:"shard"`
	Steps  int    `json:"steps"`
	Error  string `json:"error,omitempty"`
}

// alert is one queued IDS report.
type alert struct {
	bad []wlog.InstanceID
	// walID is the alert's durable WAL record ID (0 when the service has
	// no WAL or the record could not be written). Restarts re-queue every
	// alert whose ID was never acked.
	walID uint64
}

// ackGroup tracks one drained alert batch's durable acknowledgement: the
// ack record is written only after EVERY unit the batch produced has
// completed, so a crash mid-batch re-queues all of its alerts. Guarded by
// Service.alertMu.
type ackGroup struct {
	ids       []uint64
	remaining int
}

// unit is one analyzed unit of recovery tasks.
type unit struct {
	bad []wlog.InstanceID
	an  *recovery.Analysis
	// release re-arms the covered-alert prefilter when the unit completes;
	// nil when Triage.Prefilter is off.
	release func()
	// group refcounts the durable ack for the alert batch this unit came
	// from; nil in non-durable mode.
	group *ackGroup
}

// Service is the concurrent self-healing workflow service: N shard workers
// execute normal tasks (key-disjoint runs in parallel, commits group-
// committed in LSN order) while a dedicated recovery worker turns IDS
// alerts into recovery units and executes them — analysis fully concurrent
// with normal processing, repair under a brief quiescence.
//
// Concurrency contract: every exported method is safe from any goroutine.
type Service struct {
	cfg   Config
	eng   *engine.Engine
	graph *deps.IncrementalGraph
	com   *committer
	exec  *executor

	alerts chan alert

	mu            sync.Mutex
	specs         map[string]*wf.Spec
	unitQ         []*unit
	alertsQueued  int
	analyzing     bool
	executing     bool
	metrics       Metrics
	lastRecovery  error
	lastAudit     error
	gateHeld      bool // recovery goroutine only; under mu for State readers
	startStopOnce struct{ started, stopped sync.Once }

	// pinHook, when set by a test, runs inside pinView between the graph
	// snapshot and the spec copy.
	pinHook func()

	// cover holds the damage-closure signatures of queued and executing
	// units for the covered-alert prefilter (Triage.Prefilter); checked
	// and armed only by the recovery goroutine.
	cover *triage.Coverage
	// pendingKeys refcounts the canonical bad-set keys sitting unanalyzed
	// in the alert channel for Report-time dedupe (Triage.Dedupe);
	// guarded by mu.
	pendingKeys map[string]int
	// drainSecPerAlert is the EWMA of measured alert-consumption cost
	// (seconds per drained alert), feeding RetryAfterSeconds; guarded by
	// mu, 0 until the first batch is handled.
	drainSecPerAlert float64

	stopCh chan struct{}
	wg     sync.WaitGroup

	// Durable mode (NewDurable); all nil/zero otherwise. wal is the
	// write-ahead log every commit is logged to; specStates keeps the live
	// runs' wfjson documents for checkpoints; preEpoch marks the live runs
	// whose history beneath the snapshot horizon was truncated (repairs
	// touching their footprints are refused with recovery.ErrHorizon).
	// submitMu serializes durable submissions against checkpoints; alertMu
	// guards liveAlerts and the WAL alert/ack records; durableEpoch (under
	// mu) is the current snapshot horizon: the log's base and the store's
	// compaction horizon.
	wal            *durable.WAL
	submitMu       sync.Mutex
	alertMu        sync.Mutex
	liveAlerts     map[uint64][]wlog.InstanceID
	specStates     map[string]durable.SpecState
	preEpoch       map[string]bool
	durableEpoch   int
	restoredAlerts []durable.PendingAlert
	ckptCh         chan chan error

	o svcObs
}

// svcObs is the service's optional instrumentation; zero means off
// (obs handles are nil-safe).
type svcObs struct {
	enabled                          bool
	reported, lost, analyzed, units  *obs.Counter
	belowHorizon                     *obs.Counter
	undone, redone, newExec          *obs.Counter
	cones, prefiltered, deduped      *obs.Counter
	batches, entries                 *obs.Counter
	runsCompleted, runsFailed        *obs.Counter
	alertDepth, unitDepth, deferDpth *obs.Gauge
	quiesceSeconds                   *obs.Histogram
	quiescedShards                   *obs.Histogram
	coneSize, coalesceRatio          *obs.Histogram
	stepsByShard                     []*obs.Counter
	activeByShard                    []*obs.Gauge
}

// New builds a sharded service over a fresh store and log. Call Start to
// spin up the workers and Stop to shut them down.
func New(cfg Config, store *data.Store) (*Service, error) {
	cfg = cfg.withDefaults()
	if store == nil {
		store = data.NewStore()
	}
	eng := engine.New(store, wlog.New())
	s := &Service{
		cfg:         cfg,
		eng:         eng,
		graph:       deps.NewIncremental(eng.Log()),
		com:         newCommitter(eng, cfg.BatchMax, cfg.CommitQueue),
		specs:       make(map[string]*wf.Spec),
		alerts:      make(chan alert, cfg.AlertBuf),
		cover:       triage.NewCoverage(),
		pendingKeys: make(map[string]int),
		stopCh:      make(chan struct{}),
	}
	s.exec = newExecutor(eng, s.com, cfg.Shards, cfg.Inbox, cfg.DeferMax)
	return s, nil
}

// Observe wires the service's instrumentation into reg: the engine's and
// log's metrics plus the shard-layer families (docs/OBSERVABILITY.md). Must
// be called before Start.
func (s *Service) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.eng.Observe(reg)
	s.eng.Log().Observe(reg)
	s.o = svcObs{
		enabled:       true,
		reported:      reg.Counter(obs.MAlertsReported),
		lost:          reg.Counter(obs.MAlertsLost),
		belowHorizon:  reg.Counter(obs.MAlertsBelowHorizon),
		analyzed:      reg.Counter(obs.MAlertsAnalyzed),
		units:         reg.Counter(obs.MUnitsExecuted),
		undone:        reg.Counter(obs.MUndone),
		redone:        reg.Counter(obs.MRedone),
		newExec:       reg.Counter(obs.MNewExecuted),
		batches:       reg.Counter(obs.MShardCommitBatches),
		entries:       reg.Counter(obs.MShardCommitEntries),
		runsCompleted: reg.Counter(obs.MShardRunsCompleted),
		runsFailed:    reg.Counter(obs.MShardRunsFailed),
		alertDepth:    reg.Gauge(obs.MAlertQueueDepth),
		unitDepth:     reg.Gauge(obs.MRecoveryQueueDepth),
		deferDpth:     reg.Gauge(obs.MShardDeferredRuns),
		quiesceSeconds: reg.Histogram(obs.MShardQuiesceSeconds,
			obs.LatencyBuckets),
		quiescedShards: reg.Histogram(obs.MShardQuiescedShards,
			obs.TickBuckets),
		cones:         reg.Counter(obs.MTriageCones),
		prefiltered:   reg.Counter(obs.MTriagePrefilterHits),
		deduped:       reg.Counter(obs.MTriageDeduped),
		coneSize:      reg.Histogram(obs.MTriageConeSize, obs.TickBuckets),
		coalesceRatio: reg.Histogram(obs.MTriageCoalesceRatio, obs.TickBuckets),
	}
	for i := 0; i < s.cfg.Shards; i++ {
		s.o.stepsByShard = append(s.o.stepsByShard,
			reg.Counter(fmt.Sprintf("%s{shard=\"%d\"}", obs.MShardSteps, i)))
		s.o.activeByShard = append(s.o.activeByShard,
			reg.Gauge(fmt.Sprintf("%s{shard=\"%d\"}", obs.MShardActiveRuns, i)))
	}
	s.exec.obs = execObs{steps: s.o.stepsByShard, active: s.o.activeByShard,
		deferred: s.o.deferDpth, completed: s.o.runsCompleted, failed: s.o.runsFailed}
	s.com.obs = comObs{batches: s.o.batches, entries: s.o.entries}
	if s.wal != nil {
		s.wal.Observe(reg)
	}
}

// Engine exposes the underlying engine (attack injection in tests goes
// through it — quiesce via Pause or route through InjectForged for safety).
func (s *Service) Engine() *engine.Engine { return s.eng }

// Store returns the current (possibly repaired) store.
func (s *Service) Store() *data.Store { return s.eng.Store() }

// Log returns the system log.
func (s *Service) Log() *wlog.Log { return s.eng.Log() }

// Start spins up the commit pipeline, the shard workers and the recovery
// worker.
func (s *Service) Start() {
	s.startStopOnce.started.Do(func() {
		s.com.start()
		s.exec.start()
		s.wg.Add(1)
		go s.recoveryLoop()
		if s.wal != nil {
			if len(s.restoredAlerts) > 0 {
				s.wg.Add(1)
				go s.feedRestoredAlerts()
			}
			if s.cfg.SnapshotEvery > 0 {
				s.wg.Add(1)
				go s.snapshotLoop()
			}
		}
	})
}

// Stop shuts the service down: recovery worker first (it may hold the
// quiesce gate), then the shard workers, then the commit pipeline (still
// needed to acknowledge in-flight commits until the workers have joined).
func (s *Service) Stop() {
	s.startStopOnce.stopped.Do(func() {
		close(s.stopCh)
		s.wg.Wait()
		s.exec.stop()
		s.com.stop()
		if s.wal != nil {
			// Flush and close the WAL last: the committer's final batches
			// have synced through it.
			_ = s.wal.Close()
		}
	})
}

// SubmitRun registers a workflow run for sharded execution. Errors wrap
// engine.ErrBadSpec, engine.ErrRunExists or ErrQueueFull.
func (s *Service) SubmitRun(id string, spec *wf.Spec) error {
	if s.wal != nil {
		// A bare *wf.Spec has no serializable form: the WAL could not
		// write a spec record and a restore would reject the run's
		// entries. Durable submissions must carry the wfjson document.
		return fmt.Errorf("shard: run %s: durable service requires SubmitRunSpec: %w", id, engine.ErrBadSpec)
	}
	s.mu.Lock()
	if _, dup := s.specs[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("shard: run %s: %w", id, engine.ErrRunExists)
	}
	// Register the spec before the first commit can land, so a concurrent
	// damage analysis never sees a spec-less run.
	s.specs[id] = spec
	s.mu.Unlock()

	if err := s.exec.submit(id, spec); err != nil {
		s.mu.Lock()
		delete(s.specs, id)
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.metrics.RunsSubmitted++
	s.mu.Unlock()
	return nil
}

// RunInfo returns the status of a submitted run; unknown IDs wrap
// engine.ErrUnknownRun. Steps counts the run's entries in the log, which
// holds only the suffix above the snapshot horizon on a durable service: a
// run retired beneath it reports its final status with no steps.
func (s *Service) RunInfo(id string) (RunInfo, error) {
	x := s.exec
	x.mu.Lock()
	info := RunInfo{ID: id}
	if rs, ok := x.runs[id]; ok {
		state, err := x.statusLocked(rs)
		info.Status, info.Shard = state.String(), rs.shard
		if err != nil {
			info.Error = err.Error()
		}
	} else if tb, ok := x.tombs[id]; ok {
		info.Status, info.Error = tb.state.String(), tb.err
	} else {
		x.mu.Unlock()
		return RunInfo{}, fmt.Errorf("shard: run %s: %w", id, engine.ErrUnknownRun)
	}
	x.mu.Unlock()
	info.Steps = len(s.eng.Log().Trace(id, false))
	return info, nil
}

// Runs lists every submitted run, sorted by ID.
func (s *Service) Runs() []RunInfo {
	x := s.exec
	x.mu.Lock()
	ids := make([]string, 0, len(x.runs)+len(x.tombs))
	for id := range x.runs {
		ids = append(ids, id)
	}
	for id := range x.tombs {
		ids = append(ids, id)
	}
	x.mu.Unlock()
	sort.Strings(ids)
	out := make([]RunInfo, 0, len(ids))
	for _, id := range ids {
		if info, err := s.RunInfo(id); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// Report delivers an IDS alert naming malicious committed instances. A full
// alert queue drops the alert, counts it lost and returns ErrQueueFull;
// alerts naming instances absent from the log wrap engine.ErrUnknownRun, or
// recovery.ErrHorizon when the instance's run was retired beneath the
// durable snapshot horizon. Safe from any goroutine.
func (s *Service) Report(bad []wlog.InstanceID) error {
	_, dropped, err := s.ReportAlerts([]triage.Alert{{Bad: bad}})
	if err != nil {
		return err
	}
	if dropped > 0 {
		return fmt.Errorf("shard: alert queue full (capacity %d): %w", s.cfg.AlertBuf, ErrQueueFull)
	}
	return nil
}

// ReportAlerts delivers a batch of IDS alerts in one admission. The whole
// batch is validated first — a malformed or unknown-instance alert rejects
// the batch with nothing admitted. Valid alerts are then admitted
// individually: admitted counts alerts queued for analysis (including, with
// Triage.Dedupe, repeats absorbed by an already-queued twin), dropped
// counts alerts lost to a full queue. Callers seeing dropped > 0 should
// back off for RetryAfterSeconds. Safe from any goroutine.
func (s *Service) ReportAlerts(alerts []triage.Alert) (admitted, dropped int, err error) {
	if len(alerts) == 0 {
		return 0, 0, fmt.Errorf("shard: %w: empty alert batch", engine.ErrBadSpec)
	}
	// Syntax over the whole batch first: a malformed ID anywhere is a bad
	// request (400) regardless of position, while a well-formed ID absent
	// from the log is a lookup miss (404) — or, when its run was retired
	// beneath the snapshot horizon, history that is gone (ErrHorizon).
	for _, a := range alerts {
		if len(a.Bad) == 0 {
			return 0, 0, fmt.Errorf("shard: %w: alert names no instances", engine.ErrBadSpec)
		}
		for _, id := range a.Bad {
			if _, _, _, perr := wlog.ParseInstance(id); perr != nil {
				return 0, 0, fmt.Errorf("shard: %w: malformed instance ID: %v", engine.ErrBadSpec, perr)
			}
		}
	}
	for _, a := range alerts {
		for _, id := range a.Bad {
			if _, ok := s.eng.Log().Get(id); ok {
				continue
			}
			if run, _, _, _ := wlog.ParseInstance(id); s.exec.tombstoned(run) {
				s.mu.Lock()
				s.metrics.AlertsBelowHorizon++
				epoch := s.durableEpoch
				s.mu.Unlock()
				s.o.belowHorizon.Inc()
				return 0, 0, fmt.Errorf("shard: alert names %s, of run %s retired beneath the snapshot horizon (epoch %d): %w",
					id, run, epoch, recovery.ErrHorizon)
			}
			return 0, 0, fmt.Errorf("shard: alert names unknown instance %s: %w", id, engine.ErrUnknownRun)
		}
	}
	wrote := false
	s.mu.Lock()
	for _, a := range alerts {
		s.metrics.AlertsReported++
		s.o.reported.Inc()
		if s.cfg.Triage.Dedupe && s.pendingKeys[triage.Key(a.Bad)] > 0 {
			// Absorbed by a queued twin; the twin's durable record (if
			// any) covers the same repair, so no WAL record is written.
			s.metrics.AlertsDeduped++
			s.o.deduped.Inc()
			admitted++
			continue
		}
		// Every send happens under s.mu, so the capacity check cannot race
		// another admitter; the send below can never block.
		if len(s.alerts) == cap(s.alerts) {
			s.metrics.AlertsLost++
			s.o.lost.Inc()
			dropped++
			continue
		}
		var walID uint64
		if s.wal != nil {
			// The record precedes the queueing: a crash after this point
			// re-queues the alert at restart. A WAL write failure degrades
			// to in-memory admission (walID 0) — the sticky WAL error
			// surfaces on the commit path.
			s.alertMu.Lock()
			if id, werr := s.wal.AppendAlert(a.Bad); werr == nil {
				s.liveAlerts[id] = a.Bad
				walID = id
				wrote = true
			}
			s.alertMu.Unlock()
		}
		s.alerts <- alert{bad: a.Bad, walID: walID}
		s.alertsQueued++
		if s.cfg.Triage.Dedupe {
			s.pendingKeys[triage.Key(a.Bad)]++
		}
		admitted++
	}
	s.o.alertDepth.Set(int64(s.alertsQueued))
	s.mu.Unlock()
	if wrote {
		// Make the admissions durable before acknowledging the reporter,
		// outside s.mu so analysis is never blocked on the fsync.
		if err := s.wal.Sync(); err != nil {
			return admitted, dropped, err
		}
	}
	return admitted, dropped, nil
}

// DefaultDrainSecPerAlert seeds the Retry-After estimate before the service
// has measured its own drain rate.
const DefaultDrainSecPerAlert = 0.05

// EstimateRetryAfter converts an alert-queue depth and a measured
// consumption cost (seconds per alert) into a Retry-After hint in whole
// seconds, clamped to [1, 60].
func EstimateRetryAfter(queued int, secPerAlert float64) int {
	sec := int(math.Ceil(float64(queued) * secPerAlert))
	if sec < 1 {
		return 1
	}
	if sec > 60 {
		return 60
	}
	return sec
}

// RetryAfterSeconds estimates how long a rejected reporter should back off:
// the time to drain the current alert queue at the measured per-alert
// consumption rate (DefaultDrainSecPerAlert until measured).
func (s *Service) RetryAfterSeconds() int {
	s.mu.Lock()
	queued, spa := s.alertsQueued, s.drainSecPerAlert
	s.mu.Unlock()
	if spa == 0 {
		spa = DefaultDrainSecPerAlert
	}
	return EstimateRetryAfter(queued, spa)
}

// State classifies the service per §IV.C: SCAN while alerts are queued or
// under analysis, RECOVERY while units are queued or executing, NORMAL
// otherwise.
func (s *Service) State() stg.Class {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked()
}

func (s *Service) stateLocked() stg.Class {
	switch {
	case s.alertsQueued > 0 || s.analyzing:
		return stg.Scan
	case len(s.unitQ) > 0 || s.executing:
		return stg.Recovery
	default:
		return stg.Normal
	}
}

// QueueLengths returns (alerts queued, recovery units queued, runs
// deferred).
func (s *Service) QueueLengths() (int, int, int) {
	s.mu.Lock()
	a, r := s.alertsQueued, len(s.unitQ)
	s.mu.Unlock()
	s.exec.mu.Lock()
	d := len(s.exec.deferred)
	s.exec.mu.Unlock()
	return a, r, d
}

// Metrics returns a copy of the counters. Safe from any goroutine.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	m := s.metrics
	s.mu.Unlock()
	m.CommitBatches = int(s.com.batches.Load())
	m.CommitEntries = int(s.com.entries.Load())
	m.RunsCompleted = int(s.exec.completed.Load())
	m.RunsFailed = int(s.exec.failed.Load())
	for i := range s.exec.steps {
		n := int(s.exec.steps[i].Load())
		m.ShardSteps = append(m.ShardSteps, n)
		m.NormalSteps += n
	}
	return m
}

// LastRecoveryError returns the most recent failed repair, if any.
func (s *Service) LastRecoveryError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRecovery
}

// LastAuditError returns the most recent Theorem-3 schedule-audit
// violation, if any (Config.AuditRepairs).
func (s *Service) LastAuditError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAudit
}

// InjectForged commits a forged task through the commit pipeline, so the
// injection serializes with concurrent group commits exactly like any other
// log append. A durable service returns once the forged entry is on disk.
func (s *Service) InjectForged(run string, task wf.TaskID, readKeys []data.Key, writes map[data.Key]data.Value) (wlog.InstanceID, error) {
	var inst wlog.InstanceID
	err := s.com.exec(func() error {
		var e error
		inst, e = s.eng.InjectForged(run, task, readKeys, writes)
		return e
	})
	if err == nil && s.wal != nil {
		err = s.wal.Sync()
	}
	return inst, err
}

// WaitIdle blocks until every submitted run has retired and the service is
// back to NORMAL with no recovery work pending and (durable) the WAL covers
// the whole log, or ctx expires; a failed WAL returns its error.
func (s *Service) WaitIdle(ctx context.Context) error {
	for {
		if s.exec.idle() && s.State() == stg.Normal {
			if s.wal == nil {
				return nil
			}
			if lsn, err := s.wal.Durable(); lsn >= s.eng.Log().Len() {
				return nil
			} else if err != nil {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// DrainRecovery blocks until the service returns to NORMAL (all alerts
// analyzed, all units executed), or ctx expires. Normal runs may still be
// stepping.
func (s *Service) DrainRecovery(ctx context.Context) error {
	for {
		if s.State() == stg.Normal {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// recoveryLoop is the dedicated recovery worker: it drains alerts into
// units (SCAN) and executes units (RECOVERY) with alert analysis taking
// priority, per the §IV.C discipline — a normal task cannot run before all
// recovery tasks are known only in Strict mode, where the loop holds the
// shard gate for the whole SCAN+RECOVERY period.
func (s *Service) recoveryLoop() {
	defer s.wg.Done()
	defer s.releaseGate()
	for {
		// Alerts first: SCAN precedes RECOVERY. Checkpoint requests (nil
		// channel on non-durable services) are served between units so a
		// snapshot never interleaves with a repair installation.
		select {
		case <-s.stopCh:
			return
		case a := <-s.alerts:
			s.handleBatch(s.drainAlerts(a))
			continue
		case resp := <-s.ckptCh:
			resp <- s.checkpoint()
			continue
		default:
		}
		if s.pendingUnits() > 0 {
			s.executeUnit()
			continue
		}
		// Back to NORMAL: release the strict-mode gate and block for the
		// next alert.
		s.releaseGate()
		select {
		case <-s.stopCh:
			return
		case a := <-s.alerts:
			s.handleBatch(s.drainAlerts(a))
		case resp := <-s.ckptCh:
			resp <- s.checkpoint()
		}
	}
}

// drainAlerts collects the batch for one SCAN pass: just the received alert
// in the per-alert pipeline, or everything currently queued when cone
// coalescing is on.
func (s *Service) drainAlerts(first alert) []alert {
	batch := []alert{first}
	if !s.cfg.Triage.Coalesce {
		return batch
	}
	for {
		select {
		case a := <-s.alerts:
			batch = append(batch, a)
		default:
			return batch
		}
	}
}

func (s *Service) pendingUnits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.unitQ)
}

// holdGate quiesces every shard (idempotent); releaseGate resumes them.
// Only the recovery goroutine calls either (Strict mode).
func (s *Service) holdGate() {
	s.mu.Lock()
	held := s.gateHeld
	s.mu.Unlock()
	if held {
		return
	}
	s.exec.pauseAll()
	s.mu.Lock()
	s.gateHeld = true
	s.mu.Unlock()
}

func (s *Service) releaseGate() {
	s.mu.Lock()
	held := s.gateHeld
	s.gateHeld = false
	s.mu.Unlock()
	if held {
		s.exec.resumeAll()
	}
}

// handleBatch triages one drained batch of alerts into units of recovery
// tasks: prefiltered alerts (bad set already inside an in-flight unit's
// damage closure) are dropped, the survivors are partitioned into damage
// cones, and each cone gets one AnalyzeGraph call. The damage analysis runs
// fully concurrently with normal stepping (except in Strict mode): it reads
// an epoch-pinned snapshot of the incremental dependence graph, so
// concurrent commits never tear the view. With triage off the batch is one
// alert and one analysis — the legacy per-alert pipeline.
func (s *Service) handleBatch(batch []alert) {
	start := time.Now()
	if s.cfg.Strict {
		// Theorem-4 gating: no normal task may run once recovery work is
		// known to be pending.
		s.holdGate()
	}
	// §IV.E forced drain: a full unit buffer blocks the analyzer until the
	// scheduler drains a unit.
	for s.pendingUnits() >= s.cfg.RecoveryBuf {
		s.executeUnit()
	}
	s.mu.Lock()
	s.alertsQueued -= len(batch)
	s.analyzing = true
	s.o.alertDepth.Set(int64(s.alertsQueued))
	if s.cfg.Triage.Dedupe {
		for _, a := range batch {
			k := triage.Key(a.bad)
			if s.pendingKeys[k]--; s.pendingKeys[k] <= 0 {
				delete(s.pendingKeys, k)
			}
		}
	}
	s.mu.Unlock()

	// Covered-alert prefilter: only the recovery goroutine checks, arms and
	// releases coverage, so a covering unit can never complete between the
	// check here and the alert being dropped.
	survivors := make([]triage.Alert, 0, len(batch))
	prefiltered := 0
	for _, a := range batch {
		if s.cfg.Triage.Prefilter && s.cover.Covered(a.bad) {
			prefiltered++
			continue
		}
		survivors = append(survivors, triage.Alert{Bad: a.bad})
	}

	g, specs := s.pinView()
	var cones []triage.Cone
	switch {
	case len(survivors) == 0:
		// Every drained alert was covered by an in-flight unit.
	case s.cfg.Triage.Coalesce:
		cones = triage.Partition(g, survivors)
	default:
		cones = []triage.Cone{triage.ConeOf(survivors[0])}
	}
	units := make([]*unit, 0, len(cones))
	for _, c := range cones {
		an := recovery.AnalyzeGraph(g, s.eng.Log(), specs, c.Bad)
		u := &unit{bad: c.Bad, an: an}
		if s.cfg.Triage.Prefilter {
			// Signature = DefiniteUndo: the instances this unit's repair is
			// guaranteed to undo (and, per Theorem 2, re-execute where
			// legitimate); candidate undos are excluded.
			u.release = s.cover.Arm(an.DefiniteUndo)
		}
		units = append(units, u)
		s.o.coneSize.Observe(float64(c.Alerts))
	}
	if len(cones) > 0 && s.o.enabled {
		s.o.coalesceRatio.Observe(float64(len(survivors)) / float64(len(cones)))
	}

	if s.wal != nil {
		// Durable acknowledgement rides the whole drained batch: the ack
		// record is written only after every unit completes (prefiltered
		// alerts are covered by an in-flight unit and ack with the batch).
		var ids []uint64
		for _, a := range batch {
			if a.walID != 0 {
				ids = append(ids, a.walID)
			}
		}
		if len(ids) > 0 {
			if len(units) == 0 {
				s.ackAlerts(ids)
			} else {
				grp := &ackGroup{ids: ids, remaining: len(units)}
				for _, u := range units {
					u.group = grp
				}
			}
		}
	}

	perAlert := time.Since(start).Seconds() / float64(len(batch))
	s.mu.Lock()
	s.analyzing = false
	s.unitQ = append(s.unitQ, units...)
	s.metrics.AlertsAnalyzed += len(survivors)
	s.metrics.ConesAnalyzed += len(cones)
	s.metrics.AlertsPrefiltered += prefiltered
	if s.drainSecPerAlert == 0 {
		s.drainSecPerAlert = perAlert
	} else {
		s.drainSecPerAlert = 0.7*s.drainSecPerAlert + 0.3*perAlert
	}
	s.o.unitDepth.Set(int64(len(s.unitQ)))
	s.mu.Unlock()
	s.o.analyzed.Add(int64(len(survivors)))
	s.o.cones.Add(int64(len(cones)))
	s.o.prefiltered.Add(int64(prefiltered))
}

// pinView pins the dependence graph at the current epoch and then copies
// the registered specs. That order is what makes the copy cover the pinned
// log prefix while clean shards keep committing: a run is registered before
// its first commit can land, so every run with a commit at or below the
// pinned epoch was registered before the snapshot and is in a copy taken
// after it. Copying first would miss a run registered and first-committed in
// between, and RepairGraph refuses a log prefix that names a run without a
// spec.
func (s *Service) pinView() (*deps.Graph, map[string]*wf.Spec) {
	g := s.graph.Snapshot()
	if s.pinHook != nil {
		s.pinHook()
	}
	s.mu.Lock()
	specs := s.specsCopyLocked()
	s.mu.Unlock()
	return g, specs
}

func (s *Service) specsCopyLocked() map[string]*wf.Spec {
	specs := make(map[string]*wf.Spec, len(s.specs))
	for id, sp := range s.specs {
		specs[id] = sp
	}
	return specs
}

// executeUnit runs the repair for the head recovery unit. The repair
// re-analyzes the log (normal tasks that consumed corrupt data since the
// alert are folded into the damage closure). In Strict mode every shard is
// already quiesced and the repaired store is swapped in wholesale; otherwise
// only the shards owning damage-closure keys pause while the parallel,
// damage-scoped repair runs, and the repaired chains are merged into the
// live store through the commit pipeline — atomically with respect to every
// group commit from the still-running clean shards.
func (s *Service) executeUnit() {
	s.mu.Lock()
	if len(s.unitQ) == 0 {
		s.mu.Unlock()
		return
	}
	u := s.unitQ[0]
	s.unitQ = s.unitQ[1:]
	s.executing = true
	s.o.unitDepth.Set(int64(len(s.unitQ)))
	s.mu.Unlock()
	if u.release != nil {
		// Re-arm the covered-alert prefilter once the unit is done (even on
		// a failed repair — the failed unit no longer covers anything).
		defer u.release()
	}
	defer func() {
		s.mu.Lock()
		s.executing = false
		s.mu.Unlock()
		if u.group != nil {
			s.unitGroupDone(u.group)
		}
	}()

	var err error
	switch {
	case s.cfg.Fault.SkipRepair:
		// Deliberate soundness fault (mutation smoke): consume the unit
		// without repairing anything. The accounting still runs so the
		// faulty service looks healthy from the outside — exactly the
		// failure the fuzzing oracles must catch.
		s.mu.Lock()
		s.metrics.UnitsExecuted++
		s.mu.Unlock()
		s.o.units.Inc()
	case s.wal != nil:
		err = s.executeDurable(u)
	case s.cfg.Strict:
		quiesceStart := time.Now()
		err = s.repairFullyQuiesced(u)
		s.observeQuiesce(quiesceStart, s.cfg.Shards)
	default:
		err = s.executePartial(u)
	}
	if err != nil {
		s.mu.Lock()
		s.metrics.RecoveryErrors++
		s.lastRecovery = fmt.Errorf("shard: recovery unit failed: %w", err)
		s.mu.Unlock()
	}
}

// executePartial is the §IV concurrent-recovery path: quiesce only the
// shards owning keys in the damage closure, repair the damaged components
// in parallel against an epoch-pinned snapshot, and merge the repaired
// chains into the live store. Clean shards keep committing past the pinned
// epoch throughout; the scoped repair never reads their chains.
//
// Soundness of the scoping is re-checked after the fact: if the repair's
// own damage closure escaped the quiesced key set (a footprint-bridging
// spec registered in the window between closure computation and the pause),
// the scoped result is discarded and the unit re-executes under full
// quiescence.
func (s *Service) executePartial(u *unit) error {
	dkeys := s.damageKeyClosure(u)
	paused := s.exec.beginRecovery(dkeys)
	quiesceStart := time.Now()

	// The damaged shards are drained: every commit in a damaged component
	// is at or below the epoch of the snapshot taken now. Clean shards keep
	// committing and registering runs, which is why the specs are copied
	// only after the snapshot (pinView).
	g, specs := s.pinView()
	ropts := s.cfg.Repair
	ropts.ScopeToDamage = true
	ropts.Epoch = g.Epoch()
	if ropts.Parallel == 0 {
		ropts.Parallel = s.cfg.Shards
	}
	res, err := recovery.RepairGraph(g, s.eng.Store(), s.eng.Log(), specs, u.bad, ropts)

	if err == nil && coveredBy(res.DamagedKeys, dkeys) {
		err = s.com.exec(func() error { return s.installScoped(res, specs) })
		s.exec.endRecovery(paused)
		s.observeQuiesce(quiesceStart, len(paused))
		return err
	}
	s.exec.endRecovery(paused)
	s.observeQuiesce(quiesceStart, len(paused))
	if err != nil {
		return err
	}

	// Coverage violation: the damage reaches keys outside the quiesced
	// set. Redo the unit under full quiescence (always sound).
	s.exec.pauseAll()
	quiesceStart = time.Now()
	err = s.repairFullyQuiesced(u)
	s.observeQuiesce(quiesceStart, s.cfg.Shards)
	s.exec.resumeAll()
	return err
}

// repairFullyQuiesced repairs against the full log with every shard paused
// and swaps the repaired store in wholesale. Callers must hold all shards
// quiesced (Strict gating, or the executePartial fallback).
func (s *Service) repairFullyQuiesced(u *unit) error {
	ropts := s.cfg.Repair
	if ropts.Parallel == 0 {
		ropts.Parallel = s.cfg.Shards
	}
	return s.com.exec(func() error {
		g, specs := s.pinView()
		res, err := recovery.RepairGraph(g, s.eng.Store(), s.eng.Log(), specs, u.bad, ropts)
		if err != nil {
			return err
		}
		s.eng.SwapStore(res.Store)
		if _, err := s.resyncActive(res, specs); err != nil {
			return err
		}
		s.recordRepairStats(res)
		return nil
	})
}

// installScoped merges a scoped repair's damaged chains into the live store
// and resyncs the affected runs. Runs inside com.exec: exclusive with every
// group commit, so clean shards observe either the pre- or post-repair
// chains, never a torn mix.
func (s *Service) installScoped(res *recovery.Result, specs map[string]*wf.Spec) error {
	s.eng.Store().AdoptChains(res.Store, res.DamagedKeys)
	if _, err := s.resyncActive(res, specs); err != nil {
		return err
	}
	s.recordRepairStats(res)
	return nil
}

// resyncActive moves every in-flight run the repair rewrote onto its
// corrected frontier. A scoped repair produces schedule actions only for
// damaged-component runs, whose owning shards are paused — Frontier returns
// ok=false for every run on a still-stepping shard, which is only skipped.
// The returned frontiers feed the durable adopt record (ignored otherwise).
func (s *Service) resyncActive(res *recovery.Result, specs map[string]*wf.Spec) ([]durable.RunFrontier, error) {
	var fronts []durable.RunFrontier
	for _, rs := range s.exec.activeRuns() {
		cur, done, ok := res.Frontier(rs.run.ID, specs[rs.run.ID])
		if !ok {
			continue
		}
		if e := s.eng.Resync(rs.run, cur, done); e != nil {
			return nil, fmt.Errorf("resync %s: %w", rs.run.ID, e)
		}
		fronts = append(fronts, durable.RunFrontier{Run: rs.run.ID, Cur: cur, Done: done})
	}
	return fronts, nil
}

func (s *Service) recordRepairStats(res *recovery.Result) {
	var audit []error
	if s.cfg.AuditRepairs {
		audit = recovery.AuditSchedule(res)
	}
	s.mu.Lock()
	s.metrics.UnitsExecuted++
	s.metrics.Undone += len(res.Undone)
	s.metrics.Redone += len(res.Redone)
	s.metrics.NewExecuted += len(res.NewExecuted)
	if len(audit) > 0 {
		s.metrics.AuditViolations += len(audit)
		s.lastAudit = fmt.Errorf("shard: repair schedule violates Theorem-3 orders: %w", audit[0])
	}
	s.mu.Unlock()
	s.o.units.Inc()
	s.o.undone.Add(int64(len(res.Undone)))
	s.o.redone.Add(int64(len(res.Redone)))
	s.o.newExec.Add(int64(len(res.NewExecuted)))
}

func (s *Service) observeQuiesce(start time.Time, shards int) {
	if s.o.enabled {
		s.o.quiesceSeconds.Observe(time.Since(start).Seconds())
		s.o.quiescedShards.Observe(float64(shards))
	}
}

// coveredBy reports whether every repaired key was inside the quiesced set.
func coveredBy(damaged []data.Key, dkeys map[data.Key]bool) bool {
	for _, k := range damaged {
		if !dkeys[k] {
			return false
		}
	}
	return true
}

// damageKeyClosure computes the §IV quiesce scope for a unit: the union of
// the key-footprint components containing any key an instance in the
// worst-case undo set read or wrote (recovery.DamageKeyClosure, shared with
// the cluster's partial-quiescence coordinator).
func (s *Service) damageKeyClosure(u *unit) map[data.Key]bool {
	s.mu.Lock()
	specs := s.specsCopyLocked()
	s.mu.Unlock()
	return recovery.DamageKeyClosure(s.eng.Log(), specs, u.an.WorstCaseUndo(), u.bad)
}
