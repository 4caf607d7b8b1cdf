// Package selfheal implements the attack-recovery system architecture of
// Fig 2 of the paper as a running component: a bounded queue of IDS alerts,
// the recovery analyzer that turns each alert into a unit of recovery tasks,
// a bounded queue of recovery-task units, and a scheduler that executes
// normal workflow tasks and recovery tasks under the state discipline of
// §IV.C:
//
//   - NORMAL: no alerts and no recovery units queued; normal tasks execute.
//   - SCAN: alerts queued; the analyzer processes them; recovery tasks and
//     normal tasks wait (Theorem 4: a normal task cannot run before all
//     recovery tasks are known).
//   - RECOVERY: alert queue empty, recovery units queued; the scheduler
//     executes recovery units; normal tasks still wait.
//
// When the recovery-unit buffer is full the analyzer blocks (§IV.E) and the
// scheduler drains recovery units even though alerts are queued — the same
// deadlock completion the STG model uses (DESIGN.md).
//
// The core is a deterministic Tick-driven state machine so tests and
// simulations control time; Serve wraps it in a goroutine with channels for
// production-style use.
//
// Only that tick discipline is the package's own. The analyzer is the
// triage.Stage the sharded service runs too (Config.Triage selects its
// mechanisms), and runs register, repair and resync through a
// machine.Machine, the state every runtime holds; repairs are counted by
// its machine.Tally.
//
// The runtime is fully instrumented through the observability layer
// (internal/obs): Observe wires alert/loss/analysis counters, queue-depth
// gauges, NORMAL/SCAN/RECOVERY tick counts and dwell-time histograms, and
// per-repair latency split into analyze/undo/redo phases — the measured
// side of the CTMC comparison printed by `selfheal-sim -metrics`. The
// catalog is docs/OBSERVABILITY.md; instrumentation is off (nil-safe,
// near-zero cost) until Observe is called.
package selfheal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/engine"
	"selfheal/internal/machine"
	"selfheal/internal/recovery"
	"selfheal/internal/stg"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Alert is one IDS report: the set of instances found malicious.
type Alert = triage.Alert

// Config sizes the system.
type Config struct {
	// AlertBuf bounds the IDS-alert queue; alerts reported while it is
	// full are lost.
	AlertBuf int
	// RecoveryBuf bounds the recovery-unit queue; a full buffer blocks
	// the analyzer.
	RecoveryBuf int
	// Repair tunes the recovery executor.
	Repair recovery.Options
	// Concurrent selects the third recovery strategy of §III.D ("obtain
	// concurrency while taking risks of corrupting only normal tasks"):
	// normal tasks keep executing during SCAN and RECOVERY instead of
	// waiting for the damage analysis (multi-version data makes this
	// safe for the recovery itself). Normal tasks that consume corrupt
	// data in the window are folded into the damage closure when the
	// recovery unit executes, because the repair always analyzes the
	// full log — so the final state converges to the strict-correct one,
	// at the cost of some transiently wrong normal results and extra
	// recovery work. The default (false) is the paper's strict
	// correctness strategy: Theorem-4 gating.
	Concurrent bool
	// Triage selects the analyzer's streaming mechanisms — cone
	// coalescing, the covered-alert prefilter and Report-time dedupe — run
	// by the analyzer stage every runtime shares (triage.Stage). With
	// Coalesce, one SCAN tick drains the whole alert queue into one unit
	// per damage cone, so the recovery queue may transiently exceed
	// RecoveryBuf; the forced drain (§IV.E) reclaims the excess before the
	// next analysis. The zero value is the per-alert pipeline the CTMC
	// models; Dedupe off also keeps every repeat counted individually, as
	// the drop-accounting tests expect. See docs/TRIAGE.md.
	Triage triage.Options
	// EagerRecovery selects the second strategy of §III.D ("obtain
	// concurrency while taking risks of corrupting tasks"): recovery
	// units execute even while IDS alerts are still queued, instead of
	// waiting for the SCAN phase to drain (§IV.C's restriction). A later
	// alert can invalidate work an eager unit already repaired, which
	// the paper warns "introduces more recovery tasks and costs"; here
	// each unit re-analyzes the full log, so the system still converges
	// — the risk materializes purely as redundant recovery work.
	EagerRecovery bool
}

// Metrics counts the system's activity.
type Metrics struct {
	// AlertsReported, AlertsLost, AlertsAnalyzed count IDS reports.
	AlertsReported, AlertsLost, AlertsAnalyzed int
	// UnitsExecuted counts recovery units completed.
	UnitsExecuted int
	// NormalSteps counts normal workflow task executions.
	NormalSteps int
	// TicksNormal, TicksScan, TicksRecovery split the ticks by the state
	// the system was in when the tick was processed.
	TicksNormal, TicksScan, TicksRecovery int
	// Undone, Redone, NewExecuted accumulate recovery work sizes.
	Undone, Redone, NewExecuted int
	// ConcurrentNormalSteps counts normal tasks executed while recovery
	// work was pending (only nonzero in Concurrent mode).
	ConcurrentNormalSteps int
	// EagerUnits counts recovery units executed while alerts were still
	// queued (only nonzero in EagerRecovery mode).
	EagerUnits int
	// ConesAnalyzed counts damage-cone analyses (AnalyzeGraph calls) made
	// by the triage front-end; AlertsAnalyzed/ConesAnalyzed is the
	// achieved coalescing fold.
	ConesAnalyzed int
	// AlertsPrefiltered counts alerts dropped because an in-flight
	// recovery unit's damage closure already covered their bad set.
	AlertsPrefiltered int
	// AlertsDeduped counts Report-time absorptions of bad sets already
	// queued (only nonzero with Triage.Dedupe).
	AlertsDeduped int
}

// System is the self-healing workflow system.
//
// Concurrency contract: one goroutine owns the tick loop (Tick, Serve,
// DrainRecovery, RunToCompletion, StartRun), while Report, State,
// QueueLengths and Metrics are safe to call from any goroutine at any time
// — IDS sensors report asynchronously, exactly like the paper's
// architecture assumes. The fully concurrent execution layer (normal
// processing on worker shards while recovery proceeds) is internal/shard.
type System struct {
	cfg Config
	// m is the state every runtime holds — engine, specs, run frontiers —
	// which the system registers, repairs and installs through.
	m *machine.Machine
	// runs are the runs StartRun registered, stepped round-robin; a run
	// leaves the machine's live set when it completes, by a step or by a
	// repair, so a later repair never resyncs it.
	runs   []*machine.Run
	nextRn int

	// graph is the incrementally maintained dependence graph: every commit
	// folds into it at Append time (O(Δ)), so alert analysis reads a
	// consistent snapshot instead of rescanning the log — alert handling no
	// longer scales with total log length.
	graph *deps.IncrementalGraph
	// stage is the analyzer (Config.Triage); tally the repair accounting.
	stage *triage.Stage
	tally machine.Tally

	// mu guards the queues, the metrics and the in-progress flags; the
	// expensive analysis and repair work runs outside the lock so a
	// concurrent Report never blocks behind a recovery unit.
	mu        sync.Mutex
	alertQ    []Alert
	recoveryQ []*triage.Unit
	metrics   Metrics
	// analyzing/executing mark a dequeued alert (unit) whose work is still
	// in flight, so State never transiently under-classifies the system
	// while the lock is released for the heavy lifting.
	analyzing, executing bool

	// o is the optional observability wiring (Observe); zero means off.
	o sysObs
	// flip alternates recovery and normal work in concurrent mode.
	flip bool
	// eagerFlip alternates analysis and unit execution in eager mode.
	eagerFlip bool
}

// New builds a system over a fresh store and log.
func New(cfg Config, store *data.Store) (*System, error) {
	if store == nil {
		store = data.NewStore()
	}
	return NewWithEngine(cfg, engine.New(store, wlog.New()), nil)
}

// NewWithEngine builds a system that adopts an existing engine (and its
// committed history) together with the specs of the runs already in its
// log. Used to put the self-healing runtime in charge of a workload that
// executed before the runtime started. The engine stays the one Engine
// returns and runs step on, so attacks registered on it still fire; the
// adopted runs are repaired but never stepped or resynced.
func NewWithEngine(cfg Config, eng *engine.Engine, specs map[string]*wf.Spec) (*System, error) {
	if cfg.AlertBuf < 1 || cfg.RecoveryBuf < 1 {
		return nil, fmt.Errorf("selfheal: buffers must be ≥ 1, got %d/%d", cfg.AlertBuf, cfg.RecoveryBuf)
	}
	if eng == nil {
		return nil, fmt.Errorf("selfheal: nil engine")
	}
	s := &System{
		cfg:   cfg,
		m:     machine.New(eng, wf.NewInterner()),
		stage: triage.NewStage(cfg.Triage),
		// Subscribe the incremental dependence graph to the engine's log:
		// history already committed is folded in now, future commits fold
		// in at Append time.
		graph: deps.NewIncremental(eng.Log()),
	}
	for run, spec := range specs {
		if _, err := s.m.Register(run, spec); err != nil {
			return nil, err
		}
		s.m.Retire(run, machine.Done, "")
	}
	return s, nil
}

// Engine exposes the underlying engine (attack injection in tests and
// examples goes through it).
func (s *System) Engine() *engine.Engine { return s.m.Engine() }

// Store returns the current (possibly repaired) store.
func (s *System) Store() *data.Store { return s.m.Store() }

// Log returns the system log.
func (s *System) Log() *wlog.Log { return s.m.Log() }

// Metrics returns a copy of the counters. Safe from any goroutine.
func (s *System) Metrics() Metrics {
	s.mu.Lock()
	m := s.metrics
	s.mu.Unlock()
	tc, rc := s.stage.Counts(), s.tally.Counts()
	m.AlertsAnalyzed, m.ConesAnalyzed = tc.Analyzed, tc.Cones
	m.AlertsPrefiltered, m.AlertsDeduped = tc.Prefiltered, tc.Deduped
	m.UnitsExecuted, m.Undone, m.Redone, m.NewExecuted = rc.Units, rc.Undone, rc.Redone, rc.NewExecuted
	return m
}

// StartRun registers a workflow run for normal processing. Reusing a run ID
// returns an error wrapping engine.ErrRunExists.
func (s *System) StartRun(id string, spec *wf.Spec) error {
	r, err := s.m.Register(id, spec)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, r)
	return nil
}

// State classifies the system per §IV.C.
func (s *System) State() stg.Class {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked()
}

func (s *System) stateLocked() stg.Class {
	switch {
	case len(s.alertQ) > 0 || s.analyzing:
		return stg.Scan
	case len(s.recoveryQ) > 0 || s.executing:
		return stg.Recovery
	default:
		return stg.Normal
	}
}

// QueueLengths returns (alerts, recovery units) currently queued.
func (s *System) QueueLengths() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.alertQ), len(s.recoveryQ)
}

// Report delivers an IDS alert. It returns false when the alert buffer is
// full and the alert is lost. With Triage.Dedupe, a repeat of a bad set
// already queued is absorbed without consuming buffer space and reports
// true: the queued twin's analysis covers it. Report is safe to call from
// any goroutine, concurrently with the tick loop.
func (s *System) Report(a Alert) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.AlertsReported++
	s.o.reported.Inc()
	if s.stage.Absorbs(a.Bad) {
		return true
	}
	if len(s.alertQ) >= s.cfg.AlertBuf {
		s.metrics.AlertsLost++
		s.o.lost.Inc()
		return false
	}
	s.alertQ = append(s.alertQ, a)
	s.stage.Queued(a.Bad)
	if s.o.enabled {
		s.o.queues(len(s.alertQ), len(s.recoveryQ))
		s.o.checkState(s.stateLocked())
	}
	return true
}

// ErrIdle is returned by Tick when there is nothing to do: no alerts, no
// recovery units, and no runnable normal task.
var ErrIdle = errors.New("selfheal: idle")

// Tick performs one unit of work according to the state discipline:
// analyzing one alert in SCAN, executing one recovery unit in RECOVERY
// (including the forced drain when the unit buffer is full), or stepping one
// normal workflow task in NORMAL. In Concurrent mode (§III.D strategy 3),
// ticks alternate between recovery work and normal work whenever both are
// pending, instead of gating normal tasks.
func (s *System) Tick() error {
	err := s.tick()
	if s.o.enabled {
		s.mu.Lock()
		s.o.queues(len(s.alertQ), len(s.recoveryQ))
		s.o.afterTick(s.stateLocked())
		s.mu.Unlock()
	}
	return err
}

func (s *System) tick() error {
	s.mu.Lock()
	if s.cfg.Concurrent && s.stateLocked() != stg.Normal {
		s.flip = !s.flip
		if s.flip && s.hasNormalWork() {
			s.metrics.TicksNormal++
			s.metrics.ConcurrentNormalSteps++
			s.mu.Unlock()
			s.o.ticks[stg.Normal].Inc()
			s.o.concurrentSteps.Inc()
			return s.stepNormal()
		}
	}
	aLen, rLen := len(s.alertQ), len(s.recoveryQ)
	switch {
	case rLen >= s.cfg.RecoveryBuf:
		// Analyzer blocked: forced drain (§IV.E completion). Alerts may
		// be queued; the tick is classified as SCAN when so.
		if aLen == 0 {
			s.metrics.TicksRecovery++
			s.o.ticks[stg.Recovery].Inc()
		} else {
			s.metrics.TicksScan++
			s.o.ticks[stg.Scan].Inc()
		}
		s.mu.Unlock()
		return s.executeUnit()
	case s.cfg.EagerRecovery && rLen > 0 && aLen > 0:
		// §III.D strategy 2: alternate unit execution with analysis
		// instead of gating recovery behind an empty alert queue.
		s.eagerFlip = !s.eagerFlip
		s.metrics.TicksScan++
		s.o.ticks[stg.Scan].Inc()
		if s.eagerFlip {
			s.metrics.EagerUnits++
			s.mu.Unlock()
			s.o.eagerUnit.Inc()
			return s.executeUnit()
		}
		s.mu.Unlock()
		return s.analyzeAlert()
	case aLen > 0:
		s.metrics.TicksScan++
		s.mu.Unlock()
		s.o.ticks[stg.Scan].Inc()
		return s.analyzeAlert()
	case rLen > 0:
		s.metrics.TicksRecovery++
		s.mu.Unlock()
		s.o.ticks[stg.Recovery].Inc()
		return s.executeUnit()
	default:
		s.metrics.TicksNormal++
		s.mu.Unlock()
		s.o.ticks[stg.Normal].Inc()
		return s.stepNormal()
	}
}

// analyzeAlert drains the head alert (with Triage.Coalesce, the whole alert
// queue) into the analyzer stage, which turns it into units of recovery
// tasks over one epoch-pinned snapshot of the dependence graph.
func (s *System) analyzeAlert() error {
	s.mu.Lock()
	take := 1
	if s.cfg.Triage.Coalesce {
		take = len(s.alertQ)
	}
	if len(s.alertQ) == 0 {
		s.mu.Unlock()
		return ErrIdle
	}
	// Validate every drained alert before consuming anything: an alert
	// naming an unlogged instance fails the tick with the queue intact.
	if err := s.m.CheckAlerts(s.alertQ[:take]); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("selfheal: %w", err)
	}
	batch := s.alertQ[:take:take]
	s.alertQ = s.alertQ[take:]
	// The heavy analysis runs outside the lock; analyzing keeps the state
	// classified SCAN so concurrent observers never see a transient gap.
	s.analyzing = true
	s.mu.Unlock()

	units := s.stage.Analyze(s.graph.Snapshot(), s.m.Log(), s.m.Specs(), batch)
	s.mu.Lock()
	s.analyzing = false
	s.recoveryQ = append(s.recoveryQ, units...)
	s.mu.Unlock()
	return nil
}

// executeUnit repairs the head recovery unit and installs the repair in
// the live store, moving the runs it rewrote onto their corrected frontiers.
func (s *System) executeUnit() error {
	s.mu.Lock()
	if len(s.recoveryQ) == 0 {
		s.mu.Unlock()
		return ErrIdle
	}
	u := s.recoveryQ[0]
	s.recoveryQ = s.recoveryQ[1:]
	// The repair runs outside the lock; executing keeps the state
	// classified RECOVERY for concurrent observers until it lands.
	s.executing = true
	s.mu.Unlock()
	defer u.Done()
	defer func() {
		s.mu.Lock()
		s.executing = false
		s.mu.Unlock()
	}()
	// A fresh snapshot (not the unit's analysis-time one): normal tasks
	// may have committed since the alert was analyzed (Concurrent mode),
	// and the repair must fold them into the damage closure.
	start := time.Now()
	res, err := s.m.Repair(s.graph.Snapshot(), nil, u.Bad, s.cfg.Repair)
	var eff machine.Effect
	if err == nil {
		eff = s.m.EffectOf(res)
		err = s.m.Install(eff)
	}
	if err != nil {
		return fmt.Errorf("selfheal: recovery unit failed: %w", err)
	}
	s.o.repairSeconds.Observe(time.Since(start).Seconds())
	s.tally.Computed(res, false)
	s.tally.Installed(eff)
	for _, f := range eff.Fronts {
		if f.Done {
			s.m.Retire(f.Run, machine.Done, "")
		}
	}
	return nil
}

// stepNormal advances one incomplete run round-robin.
func (s *System) stepNormal() error {
	n := len(s.runs)
	if n == 0 {
		return ErrIdle
	}
	for i := 0; i < n; i++ {
		r := s.runs[(s.nextRn+i)%n]
		if r.Done() {
			continue
		}
		s.nextRn = (s.nextRn + i + 1) % n
		done, err := s.m.Engine().Step(&r.Run)
		if r.Failed() {
			s.m.Retire(r.ID, machine.Failed, "")
		} else if done {
			s.m.Retire(r.ID, machine.Done, "")
		}
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.metrics.NormalSteps++
		s.mu.Unlock()
		s.o.normalSteps.Inc()
		return nil
	}
	return ErrIdle
}

// DrainRecovery ticks until the system returns to NORMAL (all alerts
// analyzed, all units executed), with a tick budget. A cancelled ctx stops
// the loop between ticks and returns the context's error.
func (s *System) DrainRecovery(ctx context.Context, maxTicks int) error {
	for i := 0; i < maxTicks; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.State() == stg.Normal {
			return nil
		}
		if err := s.Tick(); err != nil && !errors.Is(err, ErrIdle) {
			return err
		}
	}
	return fmt.Errorf("selfheal: recovery did not drain within %d ticks", maxTicks)
}

// RunToCompletion ticks until every registered run is complete and the
// system is back to NORMAL, with a tick budget. A cancelled ctx stops the
// loop between ticks and returns the context's error.
func (s *System) RunToCompletion(ctx context.Context, maxTicks int) error {
	for i := 0; i < maxTicks; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := s.Tick()
		switch {
		case errors.Is(err, ErrIdle):
			if s.State() == stg.Normal && !s.hasNormalWork() {
				return nil
			}
		case err != nil:
			return err
		}
	}
	return fmt.Errorf("selfheal: did not complete within %d ticks", maxTicks)
}

// hasNormalWork reports whether any registered run is incomplete.
func (s *System) hasNormalWork() bool {
	for _, r := range s.runs {
		if !r.Done() {
			return true
		}
	}
	return false
}
