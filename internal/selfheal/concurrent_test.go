package selfheal_test

import (
	"context"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/recovery"
	"selfheal/internal/scenario"
	"selfheal/internal/selfheal"
	"selfheal/internal/stg"
	"selfheal/internal/triage"
	"selfheal/internal/wlog"
)

// TestConcurrentModeKeepsServingNormalTasks: with the §III.D concurrency
// strategy, normal tasks advance while recovery work is pending — the
// defining difference from the strict strategy's Theorem-4 gating.
func TestConcurrentModeKeepsServingNormalTasks(t *testing.T) {
	cfg := selfheal.Config{AlertBuf: 8, RecoveryBuf: 8, Concurrent: true}
	sys := newFig1System(t, cfg, true)
	// Commit the first two tasks, then report while work remains.
	for i := 0; i < 2; i++ {
		if err := sys.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Metrics().NormalSteps
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if sys.State() != stg.Scan {
		t.Fatal("not in SCAN after report")
	}
	// Alternating ticks: normal work must advance before recovery fully
	// drains.
	for i := 0; i < 4 && sys.State() != stg.Normal; i++ {
		if err := sys.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	m := sys.Metrics()
	if m.NormalSteps <= before {
		t.Error("concurrent mode gated normal tasks")
	}
	if m.ConcurrentNormalSteps == 0 {
		t.Error("ConcurrentNormalSteps not accounted")
	}
}

// TestConcurrentModeConverges: even though normal tasks transiently consume
// corrupt data during the recovery window, the final state after the last
// repair equals the clean execution — the repair analyzes the full log, so
// window-corrupted normal tasks are folded into the damage closure.
func TestConcurrentModeConverges(t *testing.T) {
	cfg := selfheal.Config{AlertBuf: 8, RecoveryBuf: 8, Concurrent: true}
	sys := newFig1System(t, cfg, true)

	// Report the attack as soon as t1 commits; the rest of the workload
	// races the recovery.
	if err := sys.Tick(); err != nil { // commits r1/t1#1
		t.Fatal(err)
	}
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if err := sys.RunToCompletion(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	// A final follow-up report heals anything corrupted inside the
	// window (in a deployment the IDS keeps reporting; one repair over
	// the full log suffices here).
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if err := sys.DrainRecovery(context.Background(), 20); err != nil {
		t.Fatal(err)
	}

	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), sys.Store()); err != nil {
		t.Errorf("concurrent strategy did not converge: %v", err)
	}
	if sys.Metrics().ConcurrentNormalSteps == 0 {
		t.Error("no overlap achieved; test exercised nothing")
	}
}

// TestConcurrentVsStrictWorkAccounting: the ablation the paper's §III.D
// predicts — concurrency buys normal-task progress during recovery but can
// only increase total recovery work (more tasks executed → more tasks
// corrupted).
func TestConcurrentVsStrictWorkAccounting(t *testing.T) {
	run := func(concurrent bool) selfheal.Metrics {
		cfg := selfheal.Config{AlertBuf: 8, RecoveryBuf: 8, Concurrent: concurrent}
		sys := newFig1System(t, cfg, true)
		if err := sys.Tick(); err != nil {
			t.Fatal(err)
		}
		sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
		if err := sys.RunToCompletion(context.Background(), 200); err != nil {
			t.Fatal(err)
		}
		sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
		if err := sys.DrainRecovery(context.Background(), 20); err != nil {
			t.Fatal(err)
		}
		return sys.Metrics()
	}
	strict := run(false)
	conc := run(true)
	if strict.ConcurrentNormalSteps != 0 {
		t.Error("strict mode overlapped normal work with recovery")
	}
	if conc.ConcurrentNormalSteps == 0 {
		t.Error("concurrent mode achieved no overlap")
	}
	if conc.Undone < strict.Undone {
		t.Errorf("concurrent mode undid less (%d) than strict (%d); risk accounting inverted",
			conc.Undone, strict.Undone)
	}
}

// TestConcurrentModeWithCleanWorkload: concurrency must not change anything
// when there are no attacks.
func TestConcurrentModeWithCleanWorkload(t *testing.T) {
	cfg := selfheal.Config{AlertBuf: 4, RecoveryBuf: 4, Concurrent: true}
	sys := newFig1System(t, cfg, false)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if !data.Equal(clean.Store(), sys.Store()) {
		t.Error("clean concurrent execution diverged")
	}
	if sys.Metrics().ConcurrentNormalSteps != 0 {
		t.Error("overlap counted with no recovery pending")
	}
}

// TestCoalesceAlertsBatchesAnalysis: with Triage.Coalesce, a burst of queued
// alerts becomes one unit of recovery tasks covering the union of reports,
// and the final state is identical to per-alert processing.
func TestCoalesceAlertsBatchesAnalysis(t *testing.T) {
	mk := func(coalesce bool) *selfheal.System {
		cfg := selfheal.Config{AlertBuf: 8, RecoveryBuf: 8, Triage: triage.Options{Coalesce: coalesce}}
		sys := newFig1System(t, cfg, true)
		if err := sys.RunToCompletion(context.Background(), 100); err != nil {
			t.Fatal(err)
		}
		// A burst of three alerts: the attack plus two flow-damaged
		// instances an IDS might flag independently.
		for _, id := range []wlog.InstanceID{"r1/t1#1", "r1/t2#1", "r2/t8#1"} {
			sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{id}})
		}
		if err := sys.DrainRecovery(context.Background(), 20); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	batched := mk(true)
	serial := mk(false)

	bm, sm := batched.Metrics(), serial.Metrics()
	if bm.AlertsAnalyzed != 3 || sm.AlertsAnalyzed != 3 {
		t.Errorf("alerts analyzed: batched %d serial %d, want 3/3", bm.AlertsAnalyzed, sm.AlertsAnalyzed)
	}
	if bm.UnitsExecuted != 1 {
		t.Errorf("batched units = %d, want 1", bm.UnitsExecuted)
	}
	if sm.UnitsExecuted != 3 {
		t.Errorf("serial units = %d, want 3", sm.UnitsExecuted)
	}
	if !data.Equal(batched.Store(), serial.Store()) {
		t.Error("coalesced and serial recovery disagree on the final state")
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), batched.Store()); err != nil {
		t.Error(err)
	}
}

// TestEagerRecoveryStrategy: §III.D strategy 2 — units execute while alerts
// are still queued. The system converges (every repair analyzes the full
// log) and the eager work is accounted; the total units executed can only
// grow relative to the strict discipline.
func TestEagerRecoveryStrategy(t *testing.T) {
	mk := func(eager bool) *selfheal.System {
		cfg := selfheal.Config{AlertBuf: 8, RecoveryBuf: 8, EagerRecovery: eager}
		sys := newFig1System(t, cfg, true)
		if err := sys.RunToCompletion(context.Background(), 100); err != nil {
			t.Fatal(err)
		}
		// A burst of three alerts queues up before any tick.
		for _, id := range []wlog.InstanceID{"r1/t1#1", "r1/t2#1", "r2/t8#1"} {
			sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{id}})
		}
		if err := sys.DrainRecovery(context.Background(), 30); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	eager := mk(true)
	strict := mk(false)

	em, sm := eager.Metrics(), strict.Metrics()
	if em.EagerUnits == 0 {
		t.Error("eager mode executed no units during SCAN")
	}
	if sm.EagerUnits != 0 {
		t.Error("strict mode executed eager units")
	}
	if em.UnitsExecuted < sm.UnitsExecuted {
		t.Errorf("eager executed fewer units (%d) than strict (%d)", em.UnitsExecuted, sm.UnitsExecuted)
	}
	if !data.Equal(eager.Store(), strict.Store()) {
		t.Error("eager and strict recovery disagree on the final state")
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), eager.Store()); err != nil {
		t.Error(err)
	}
}
