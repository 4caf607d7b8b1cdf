package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/machine"
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
	// SnapshotEvery is the checkpoint interval in committed entries. A
	// durable service (NewDurable) snapshots and forgets at the head once
	// this many entries have committed past its horizon; an in-memory one
	// keeps its horizon three intervals beneath the head, moving it up
	// every 50 ms tick, so it keeps three intervals of history (plus what
	// one tick commits) for alerts that arrive late. 0 selects
	// durable.DefaultSnapshotEvery; a negative value disables automatic
	// checkpoints, and the service then forgets only on Checkpoint. See
	// docs/DURABILITY.md.
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
	// gating): every key is paused for the whole SCAN and RECOVERY
	// period, so no normal task executes while recovery work is known or
	// pending. The default (false) is §III.D strategy 3 with §IV partial
	// quiescence: shards keep stepping through analysis, and each repair
	// pauses only the keys of its damage closure — runs whose footprints
	// avoid them, on any shard, serve through the whole RECOVERY window.
	// Normal tasks that consumed corrupt data before the pause are folded
	// into the damage closure when the unit executes, so the final state
	// still converges to the strict one.
	Strict bool
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.AlertBuf < 1 {
		c.AlertBuf = 8
	}
	if c.RecoveryBuf < 1 {
		c.RecoveryBuf = 4
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = durable.DefaultSnapshotEvery
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
	// CommitBatches and CommitEntries count commits and the entries they
	// carried: each worker commits its own step, so a batch is one entry.
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
	// they named an instance beneath the horizon, whose history is gone
	// (machine.Machine.BelowHorizon).
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
	*triage.Unit
	// group refcounts the durable ack for the alert batch this unit came
	// from; nil in non-durable mode.
	group *ackGroup
}

// Service is the concurrent self-healing workflow service: N shard workers
// execute normal tasks (key-disjoint runs in parallel, each commit
// serialized in LSN order) while a dedicated recovery worker turns IDS
// alerts into recovery units and executes them — analysis fully concurrent
// with normal processing, repair under a brief quiescence.
//
// Concurrency contract: every exported method is safe from any goroutine.
type Service struct {
	cfg Config
	// m is the replicated state — engine, specs and their intern table, run
	// frontiers, tombstones and the horizon — which the service forgets,
	// checks, captures, restores and repairs through; eng is its engine.
	m     *machine.Machine
	eng   *engine.Engine
	graph *deps.IncrementalGraph
	com   *pipeline
	exec  *executor

	alerts chan alert

	mu            sync.Mutex
	unitQ         []*unit
	alertsQueued  int
	analyzing     bool
	executing     bool
	metrics       Metrics
	startStopOnce struct{ started, stopped sync.Once }

	// pinHook, when set by a test, runs inside pinView between the graph
	// snapshot and the spec copy; closureHook runs inside repair between
	// the damage-key closure and its pause; captureHook runs on the
	// recovery goroutine right after a durable checkpoint's capture, with
	// every key still paused.
	pinHook, closureHook func()
	captureHook          func(*durable.Snapshot)

	// stage is the analyzer (Config.Triage), run by the recovery
	// goroutine; tally the repair accounting, whose last error is also a
	// failed checkpoint's.
	stage *triage.Stage
	tally machine.Tally
	// drainSecPerAlert is the EWMA of measured alert-consumption cost
	// (seconds per drained alert), feeding RetryAfterSeconds; guarded by
	// mu, 0 until the first batch is handled.
	drainSecPerAlert float64

	stopCh chan struct{}
	wg     sync.WaitGroup

	// ckptCh carries checkpoint requests to the recovery goroutine, which
	// moves the horizon (horizon.go).
	ckptCh chan ckptReq

	// Durable mode (NewDurable); all nil/zero otherwise. wal is the
	// write-ahead log every commit is logged to; specStates (under mu) keeps
	// the live runs' wfjson documents for checkpoints. submitMu serializes durable
	// submissions against checkpoints; alertMu guards liveAlerts and the WAL
	// alert/ack records.
	wal            *durable.WAL
	submitMu       sync.Mutex
	alertMu        sync.Mutex
	liveAlerts     map[uint64][]wlog.InstanceID
	specStates     map[string]durable.SpecState
	restoredAlerts []durable.PendingAlert

	o svcObs
}

// svcObs is the service's optional instrumentation; zero means off
// (obs handles are nil-safe).
type svcObs struct {
	reported, lost, belowHorizon     *obs.Counter
	batches, entries                 *obs.Counter
	runsCompleted, runsFailed        *obs.Counter
	alertDepth, unitDepth, deferDpth *obs.Gauge
	quiesceSeconds, forgetSeconds    *obs.Histogram
	forgotten                        *obs.Counter
	quiescedShards                   *obs.Histogram
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
	m := machine.New(engine.New(store, wlog.New()), wf.NewInterner())
	return newService(cfg, m, deps.NewIncremental(m.Log())), nil
}

// newService assembles a service over m and its dependence graph, with its
// commit pipeline, executor and analyzer; New and NewDurable add the rest.
func newService(cfg Config, m *machine.Machine, graph *deps.IncrementalGraph) *Service {
	s := &Service{
		cfg:    cfg,
		m:      m,
		eng:    m.Engine(),
		graph:  graph,
		com:    &pipeline{eng: m.Engine()},
		alerts: make(chan alert, cfg.AlertBuf),
		stage:  triage.NewStage(cfg.Triage),
		stopCh: make(chan struct{}),
		ckptCh: make(chan ckptReq),
	}
	s.exec = newExecutor(m, s.com, cfg.Shards)
	return s
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
	s.stage.Observe(reg)
	s.tally.Observe(reg)
	s.o = svcObs{
		reported:      reg.Counter(obs.MAlertsReported),
		lost:          reg.Counter(obs.MAlertsLost),
		belowHorizon:  reg.Counter(obs.MAlertsBelowHorizon),
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
		forgetSeconds: reg.Histogram(obs.MShardForgetSeconds,
			obs.LatencyBuckets),
		forgotten: reg.Counter(obs.MShardForgotten),
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

// Start spins up the shard workers and the recovery worker.
func (s *Service) Start() {
	s.startStopOnce.started.Do(func() {
		s.exec.start()
		s.wg.Add(1)
		go s.recoveryLoop()
		if len(s.restoredAlerts) > 0 {
			s.wg.Add(1)
			go s.feedRestoredAlerts()
		}
		if s.cfg.SnapshotEvery > 0 {
			s.wg.Add(1)
			go s.snapshotLoop()
		}
	})
}

// Stop shuts the service down: recovery worker first (it may hold a pause),
// then the shard workers.
func (s *Service) Stop() {
	s.startStopOnce.stopped.Do(func() {
		close(s.stopCh)
		s.wg.Wait()
		s.exec.stop()
		if s.wal != nil {
			// Flush and close the WAL last: the workers' final commits
			// have been logged to it.
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
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("shard: run %s: %w: %w", id, engine.ErrBadSpec, err)
	}
	return s.register(id, spec, nil, nil)
}

// register is the one registration path, with or without a WAL. Refusals
// come first, so a refused run leaves no trace; then one exclusive commit
// pipeline job seeds the declared initial values (first writer wins) and,
// with a WAL, writes the spec record at exactly that point of the commit
// stream, carrying the Inits that happened rather than the ones the document
// declares; then the run is registered and placed. A durable submission
// returns once its record is on disk.
func (s *Service) register(id string, spec *wf.Spec, init map[data.Key]data.Value, doc []byte) error {
	// submitMu serializes submissions against each other and against
	// checkpoints: between the refusals and the placement, conflicts only
	// shrink, and a snapshot never lands between the spec record and the
	// run's registration.
	s.submitMu.Lock()
	err := s.registerLocked(id, spec, init, doc)
	s.submitMu.Unlock()
	if err != nil || s.wal == nil {
		return err
	}
	return s.wal.Sync() // outside submitMu: concurrent submitters share the fsync
}

func (s *Service) registerLocked(id string, spec *wf.Spec, init map[data.Key]data.Value, doc []byte) error {
	if s.m.Has(id) {
		return fmt.Errorf("shard: run %s: %w", id, engine.ErrRunExists)
	}
	if !s.exec.canAdmit(spec.Footprint()) {
		return fmt.Errorf("shard: run %s conflicts across shards and the deferred queue is full: %w", id, ErrQueueFull)
	}

	var applied map[data.Key]data.Value
	if len(init) > 0 || s.wal != nil {
		// Exclusive with commits, so a concurrent commit can never
		// slip a version under an Init.
		if err := s.com.exec(func() error {
			applied = s.m.Init(init)
			if s.wal == nil {
				return nil
			}
			return s.wal.AppendSpec(id, doc, applied)
		}); err != nil {
			return err
		}
	}

	// Register the spec before the first commit can land, so a concurrent
	// damage analysis never sees a spec-less run.
	r, err := s.m.Register(id, spec)
	if err != nil {
		return err
	}
	if s.wal != nil {
		s.mu.Lock()
		s.specStates[id] = durable.SpecState{JSON: doc, Init: applied}
		s.mu.Unlock()
	}
	if err := s.exec.submit(&r.Run, false); err != nil {
		// A repair that began after the admission check can make the run
		// unplaceable with the deferred queue full. Unregister so the
		// in-memory maps stay consistent; an orphaned spec record restores
		// an idle run.
		s.m.Unregister(id)
		s.mu.Lock()
		delete(s.specStates, id)
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
// holds only the suffix above the horizon: a run retired beneath it reports
// its final status with no steps.
func (s *Service) RunInfo(id string) (RunInfo, error) {
	x := s.exec
	x.mu.Lock()
	info := RunInfo{ID: id}
	if rs, ok := x.runs[id]; ok {
		info.Status, info.Shard = rs.state.String(), rs.shard
		if x.gate.Paused(rs.keys) {
			info.Status = RunDeferred.String()
		}
	} else if st, msg, ok := s.m.Status(id); ok && st == machine.Done {
		state, err := x.doneLocked(id)
		info.Status, info.Error = state.String(), errString(err)
	} else if ok && st == machine.Failed {
		info.Status, info.Error = RunFailed.String(), msg
	} else {
		// Unknown, forged by an attacker, or registered but not yet placed.
		x.mu.Unlock()
		return RunInfo{}, fmt.Errorf("shard: run %s: %w", id, engine.ErrUnknownRun)
	}
	x.mu.Unlock()
	info.Steps = len(s.eng.Log().Trace(id, false))
	return info, nil
}

// Runs lists every submitted run, sorted by ID; a forged run was never
// submitted and is not listed.
func (s *Service) Runs() []RunInfo {
	ids := s.m.IDs()
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
// recovery.ErrHorizon when the instance lies beneath the horizon
// (machine.Machine.BelowHorizon). Safe from any goroutine.
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
	if err := s.m.CheckAlerts(alerts); err != nil {
		if errors.Is(err, recovery.ErrHorizon) {
			s.mu.Lock()
			s.metrics.AlertsBelowHorizon++
			s.mu.Unlock()
			s.o.belowHorizon.Inc()
		}
		return 0, 0, fmt.Errorf("shard: %w", err)
	}
	wrote := false
	s.mu.Lock()
	for _, a := range alerts {
		s.metrics.AlertsReported++
		s.o.reported.Inc()
		if s.stage.Absorbs(a.Bad) {
			// Absorbed by a queued twin; the twin's durable record (if
			// any) covers the same repair, so no WAL record is written.
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
		s.stage.Queued(a.Bad)
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
	tc, rc := s.stage.Counts(), s.tally.Counts()
	m.AlertsAnalyzed, m.ConesAnalyzed = tc.Analyzed, tc.Cones
	m.AlertsPrefiltered, m.AlertsDeduped = tc.Prefiltered, tc.Deduped
	m.UnitsExecuted, m.RecoveryErrors, m.AuditViolations = rc.Units, rc.Errors, rc.AuditViolations
	m.Undone, m.Redone, m.NewExecuted = rc.Undone, rc.Redone, rc.NewExecuted
	m.CommitEntries = int(s.com.commits.Load())
	m.CommitBatches = m.CommitEntries
	m.RunsCompleted = int(s.exec.completed.Load())
	m.RunsFailed = int(s.exec.failed.Load())
	for i := range s.exec.steps {
		n := int(s.exec.steps[i].Load())
		m.ShardSteps = append(m.ShardSteps, n)
		m.NormalSteps += n
	}
	return m
}

// LastRecoveryError returns the most recent failed repair or checkpoint,
// if any.
func (s *Service) LastRecoveryError() error { return s.tally.Counts().LastErr }

// LastAuditError returns the most recent Theorem-3 schedule-audit
// violation, if any (Config.AuditRepairs).
func (s *Service) LastAuditError() error { return s.tally.Counts().LastAudit }

// InjectForged commits a forged task through the commit pipeline, so the
// injection serializes with concurrent commits exactly like any other log
// append. A durable service returns once the forged entry is on disk.
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
// recovery tasks are known only in Strict mode, where the loop pauses every
// key for the whole SCAN+RECOVERY period (Theorem-4 gating).
func (s *Service) recoveryLoop() {
	defer s.wg.Done()
	held := false // Strict: every key paused until back to NORMAL
	defer func() {
		if held {
			s.exec.gate.ReleaseAll()
		}
	}()
	scan := func(a alert) {
		if s.cfg.Strict && !held {
			s.exec.gate.PauseAll()
			held = true
		}
		s.handleBatch(s.drainAlerts(a))
	}
	for {
		// Alerts first: SCAN precedes RECOVERY. Checkpoint requests are
		// served between units, so a horizon never moves during a repair.
		select {
		case <-s.stopCh:
			return
		case a := <-s.alerts:
			scan(a)
			continue
		case req := <-s.ckptCh:
			req.resp <- s.checkpoint(req.auto)
			continue
		default:
		}
		if s.pendingUnits() > 0 {
			s.executeUnit()
			continue
		}
		// Back to NORMAL: release the strict-mode pause and block for the
		// next alert.
		if held {
			s.exec.gate.ReleaseAll()
			held = false
		}
		select {
		case <-s.stopCh:
			return
		case a := <-s.alerts:
			scan(a)
		case req := <-s.ckptCh:
			req.resp <- s.checkpoint(req.auto)
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

// handleBatch turns one drained batch of alerts into units of recovery
// tasks through the analyzer stage (triage.Stage.Analyze), which reads an
// epoch-pinned snapshot of the incremental dependence graph, so the
// analysis runs fully concurrently with normal stepping (except in Strict
// mode) and concurrent commits never tear the view. Only the recovery
// goroutine analyzes and releases units, so a covering unit can never
// complete between the prefilter's check and the alert being dropped.
func (s *Service) handleBatch(batch []alert) {
	start := time.Now()
	// §IV.E forced drain: a full unit buffer blocks the analyzer until the
	// scheduler drains a unit.
	for s.pendingUnits() >= s.cfg.RecoveryBuf {
		s.executeUnit()
	}
	s.mu.Lock()
	s.alertsQueued -= len(batch)
	s.analyzing = true
	s.o.alertDepth.Set(int64(s.alertsQueued))
	s.mu.Unlock()

	alerts := make([]triage.Alert, len(batch))
	for i, a := range batch {
		alerts[i] = triage.Alert{Bad: a.bad}
	}
	g, specs := s.pinView()
	analyzed := s.stage.Analyze(g, s.eng.Log(), specs, alerts)
	units := make([]*unit, len(analyzed))
	for i, tu := range analyzed {
		units[i] = &unit{Unit: tu}
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
	if s.drainSecPerAlert == 0 {
		s.drainSecPerAlert = perAlert
	} else {
		s.drainSecPerAlert = 0.7*s.drainSecPerAlert + 0.3*perAlert
	}
	s.o.unitDepth.Set(int64(len(s.unitQ)))
	s.mu.Unlock()
}

// pinView pins the dependence graph at the current epoch and then copies
// the registered specs. That order is what makes the copy cover the pinned
// log prefix while clean runs keep committing: a run is registered before
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
	return g, s.m.Specs()
}

// executeUnit runs the repair for the head recovery unit. The repair
// re-analyzes the log (normal tasks that consumed corrupt data since the
// alert are folded into the damage closure) and is installed the one way
// every mode shares (repair).
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
	defer u.Done()
	defer func() {
		s.mu.Lock()
		s.executing = false
		s.mu.Unlock()
		if u.group != nil {
			s.unitGroupDone(u.group)
		}
	}()

	if s.cfg.Fault.SkipRepair {
		// Deliberate soundness fault (mutation smoke): consume the unit
		// without repairing anything. The accounting still runs so the
		// faulty service looks healthy from the outside — exactly the
		// failure the fuzzing oracles must catch.
		s.tally.Installed(machine.Effect{})
	} else if err := s.repair(u); err != nil {
		s.tally.Fail(fmt.Errorf("shard: recovery unit failed: %w", err))
	}
}

// repair is the one repair path of every service, with or without a WAL and
// in either strategy: the §IV concurrent recovery. It pauses the keys of the
// damage closure (in Strict mode the recovery loop pauses every key
// already), repairs the damaged components in parallel against an
// epoch-pinned snapshot, and merges the repaired chains into the live store
// (install). Runs whose footprints avoid the paused keys keep committing past
// the pinned epoch throughout; the scoped repair never reads their chains. A
// repair that would need history beneath the horizon is refused with
// recovery.ErrHorizon (machine.Machine.CheckHorizon).
//
// Soundness of the scoping is re-checked after the fact: if the repair's
// own damage closure escaped the paused key set (a footprint-bridging spec
// registered in the window between closure computation and the pause), the
// result is discarded and the unit is repaired again, still damage-scoped,
// with every key paused.
func (s *Service) repair(u *unit) error {
	// The §IV quiesce scope: the key-footprint components holding a key an
	// instance of the worst-case undo set read or wrote.
	dkeys := s.m.DamageKeys(u.Analysis.WorstCaseUndo(), u.Bad)
	if err := s.m.CheckHorizon(u.Bad, dkeys); err != nil {
		return err
	}
	if s.closureHook != nil {
		s.closureHook()
	}
	keys := make([]data.Key, 0, len(dkeys))
	for k := range dkeys {
		keys = append(keys, k)
	}
	gate := s.exec.gate
	gate.Pause(keys)
	defer gate.Release(keys)
	quiesced := s.cfg.Shards
	if !s.cfg.Strict {
		quiesced = s.exec.owners(keys)
	}
	quiesceStart := time.Now()
	// The damaged runs are drained: every commit in a damaged component is
	// at or below the epoch of the snapshot taken now.
	res, err := s.repairPinned(u)
	if err == nil && !s.cfg.Strict && !coveredBy(res.DamagedKeys, dkeys) {
		// Coverage violation: the damage reaches keys outside the paused
		// set, which a running step may be committing to. With every key
		// paused (Strict) nothing commits past the pinned epoch, so the
		// check only matters while some key is open.
		gate.PauseAll()
		defer gate.ReleaseAll()
		quiesced = s.cfg.Shards
		res, err = s.repairPinned(u)
	}
	if err == nil {
		err = s.install(res)
	}
	s.o.quiesceSeconds.Observe(time.Since(quiesceStart).Seconds())
	s.o.quiescedShards.Observe(float64(quiesced))
	return err
}

// repairPinned computes u's damage-scoped repair against a view pinned now.
// Clean shards keep committing and registering runs, which is why the specs
// are copied only after the snapshot (pinView).
func (s *Service) repairPinned(u *unit) (*recovery.Result, error) {
	g, specs := s.pinView()
	ropts := s.cfg.Repair
	ropts.Epoch = g.Epoch()
	if ropts.Parallel == 0 {
		ropts.Parallel = s.cfg.Shards
	}
	return s.m.Repair(g, specs, u.Bad, ropts)
}

// install merges a scoped repair's damaged chains into the live store and
// resyncs the runs it rewrote (machine.Machine.Install of the repair's
// effect) and, with a WAL, writes that same effect as the adopt record: the
// replacement chain of every damaged key (nil = deleted) plus the resynced
// run frontiers. It runs inside com.exec: exclusive with every commit, so clean runs observe either the pre- or post-repair chains,
// never a torn mix, and the record lands before any later commit's entry
// record. The record is synced before the keys are released: a run the
// repair moved past its end must not read done first.
func (s *Service) install(res *recovery.Result) error {
	err := s.com.exec(func() error {
		eff := s.m.EffectOf(res)
		if err := s.m.Install(eff); err != nil {
			return err
		}
		if s.wal != nil {
			if err := s.wal.AppendAdopt(eff.Adopt); err != nil {
				return err
			}
		}
		s.tally.Computed(res, s.cfg.AuditRepairs)
		s.tally.Installed(eff)
		return nil
	})
	if err != nil || s.wal == nil {
		return err
	}
	return s.wal.Sync()
}

// coveredBy reports whether every repaired key was inside the paused set.
func coveredBy(damaged []data.Key, dkeys map[data.Key]bool) bool {
	for _, k := range damaged {
		if !dkeys[k] {
			return false
		}
	}
	return true
}
