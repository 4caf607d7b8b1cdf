package selfheal_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/scenario"
	"selfheal/internal/selfheal"
	"selfheal/internal/stg"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// newFig1System builds a system hosting the Fig 1 workload, optionally
// attacked at t1, without running anything yet.
func newFig1System(t *testing.T, cfg selfheal.Config, attack bool) *selfheal.System {
	t.Helper()
	st := data.NewStore()
	st.Init("e", 0)
	sys, err := selfheal.New(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	wf1, wf2 := wf.Fig1Specs()
	if attack {
		sys.Engine().AddAttack(engine.Attack{
			Run: "r1", Task: "t1",
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				return map[data.Key]data.Value{"a": 100}
			},
		})
	}
	if err := sys.StartRun("r1", wf1); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartRun("r2", wf2); err != nil {
		t.Fatal(err)
	}
	return sys
}

func defaultCfg() selfheal.Config {
	return selfheal.Config{AlertBuf: 8, RecoveryBuf: 8}
}

func TestNewValidatesBuffers(t *testing.T) {
	if _, err := selfheal.New(selfheal.Config{AlertBuf: 0, RecoveryBuf: 1}, nil); err == nil {
		t.Error("zero alert buffer accepted")
	}
	if _, err := selfheal.New(selfheal.Config{AlertBuf: 1, RecoveryBuf: 0}, nil); err == nil {
		t.Error("zero recovery buffer accepted")
	}
}

func TestNormalProcessingWithoutAlerts(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), false)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.NormalSteps != 8 {
		t.Errorf("normal steps = %d, want 8 (two clean runs)", m.NormalSteps)
	}
	if m.TicksScan != 0 || m.TicksRecovery != 0 {
		t.Errorf("idle system spent ticks in SCAN/RECOVERY: %+v", m)
	}
	if v, _ := sys.Store().Get("f"); v.Value != 14 {
		t.Errorf("f = %d, want clean 14", v.Value)
	}
}

func TestStateMachineTransitions(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), true)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	if sys.State() != stg.Normal {
		t.Fatalf("state = %v after normal completion", sys.State())
	}
	ok := sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if !ok {
		t.Fatal("alert lost with empty buffer")
	}
	if sys.State() != stg.Scan {
		t.Fatalf("state = %v after report, want SCAN", sys.State())
	}
	if err := sys.Tick(); err != nil { // analyze
		t.Fatal(err)
	}
	if sys.State() != stg.Recovery {
		t.Fatalf("state = %v after analysis, want RECOVERY", sys.State())
	}
	if err := sys.Tick(); err != nil { // execute unit
		t.Fatal(err)
	}
	if sys.State() != stg.Normal {
		t.Fatalf("state = %v after recovery, want NORMAL", sys.State())
	}
	m := sys.Metrics()
	if m.AlertsAnalyzed != 1 || m.UnitsExecuted != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestEndToEndRecoveryMatchesClean: the flagship runtime test — attack,
// complete the workload, report, recover, and compare with the clean twin.
func TestEndToEndRecoveryMatchesClean(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), true)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if err := sys.DrainRecovery(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), sys.Store()); err != nil {
		t.Error(err)
	}
	m := sys.Metrics()
	if m.Undone != 7 || m.Redone != 5 || m.NewExecuted != 1 {
		t.Errorf("recovery sizes = undone %d redone %d new %d, want 7/5/1", m.Undone, m.Redone, m.NewExecuted)
	}
}

// TestMidRunRecoveryResync: report the attack while the damaged run is still
// in flight; recovery must reroute the run onto the corrected path, and its
// completion must match the clean state.
func TestMidRunRecoveryResync(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), true)
	// Execute only the first five normal steps: t1 t7 t2 t8 t3 — r1 is
	// now heading down the wrong path P1 with t4 pending.
	for i := 0; i < 5; i++ {
		if err := sys.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := sys.Log().Get("r1/t3#1"); !ok {
		t.Fatal("setup: t3 not committed yet; interleaving drifted")
	}
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if err := sys.DrainRecovery(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	// Let the runs finish normally from the corrected frontier.
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	// Final values must be the clean ones.
	for _, c := range []struct {
		key  data.Key
		want data.Value
	}{{"a", 1}, {"b", 2}, {"f", 14}, {"h", 4}, {"j", 8}} {
		v, ok := sys.Store().Get(c.key)
		if !ok || v.Value != c.want {
			t.Errorf("%s = %v (ok=%v), want %d", c.key, v.Value, ok, c.want)
		}
	}
	// The wrong path must not have been resumed after recovery.
	if _, ok := sys.Log().Get("r1/t4#1"); ok {
		t.Error("run continued down the stale path: t4 executed after recovery")
	}
}

func TestAlertBufferOverflowLosesAlerts(t *testing.T) {
	cfg := selfheal.Config{AlertBuf: 2, RecoveryBuf: 2}
	sys := newFig1System(t, cfg, true)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	bad := []wlog.InstanceID{"r1/t1#1"}
	for i := 0; i < 4; i++ {
		sys.Report(selfheal.Alert{Bad: bad})
	}
	m := sys.Metrics()
	if m.AlertsReported != 4 || m.AlertsLost != 2 {
		t.Errorf("reported %d lost %d, want 4/2", m.AlertsReported, m.AlertsLost)
	}
	a, _ := sys.QueueLengths()
	if a != 2 {
		t.Errorf("alert queue = %d, want 2", a)
	}
}

// TestRecoveryBufferFullForcesDrain: with RecoveryBuf=1 and two alerts, the
// analyzer blocks after the first unit and the scheduler drains it even
// though an alert is still queued (the §IV.E completion).
func TestRecoveryBufferFullForcesDrain(t *testing.T) {
	cfg := selfheal.Config{AlertBuf: 4, RecoveryBuf: 1}
	sys := newFig1System(t, cfg, true)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	bad := []wlog.InstanceID{"r1/t1#1"}
	sys.Report(selfheal.Alert{Bad: bad})
	sys.Report(selfheal.Alert{Bad: bad})

	if err := sys.Tick(); err != nil { // analyze alert 1 → unit buffer full
		t.Fatal(err)
	}
	a, r := sys.QueueLengths()
	if a != 1 || r != 1 {
		t.Fatalf("queues = %d/%d, want 1/1", a, r)
	}
	if sys.State() != stg.Scan {
		t.Fatalf("state = %v, want SCAN (alert still queued)", sys.State())
	}
	if err := sys.Tick(); err != nil { // forced drain executes the unit
		t.Fatal(err)
	}
	a, r = sys.QueueLengths()
	if a != 1 || r != 0 {
		t.Fatalf("after drain: queues = %d/%d, want 1/0", a, r)
	}
	if err := sys.DrainRecovery(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if sys.Metrics().UnitsExecuted != 2 {
		t.Errorf("units executed = %d, want 2", sys.Metrics().UnitsExecuted)
	}
}

// TestTheorem4Gating: normal tasks do not execute while alerts or recovery
// units are pending.
func TestTheorem4Gating(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), true)
	// Two normal steps commit t1 (r1) and t7 (r2).
	for i := 0; i < 2; i++ {
		if err := sys.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.Metrics().NormalSteps
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if err := sys.Tick(); err != nil { // must analyze, not step normal
		t.Fatal(err)
	}
	if err := sys.Tick(); err != nil { // must execute recovery, not step normal
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.NormalSteps != before {
		t.Errorf("normal steps advanced during SCAN/RECOVERY: %d → %d", before, m.NormalSteps)
	}
	if m.AlertsAnalyzed != 1 || m.UnitsExecuted != 1 {
		t.Errorf("recovery did not progress: %+v", m)
	}
}

func TestAlertUnknownInstanceFails(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), false)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r9/ghost#1"}})
	if err := sys.Tick(); err == nil {
		t.Error("alert for unknown instance analyzed without error")
	}
}

func TestRepeatedAlertsSameAttackIdempotent(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), true)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	bad := []wlog.InstanceID{"r1/t1#1"}
	sys.Report(selfheal.Alert{Bad: bad})
	sys.Report(selfheal.Alert{Bad: bad})
	if err := sys.DrainRecovery(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), sys.Store()); err != nil {
		t.Errorf("double recovery broke the state: %v", err)
	}
}

// TestRepeatedAlertsDedupedAtReport extends the idempotent-repeat property:
// with Triage.Dedupe on, the second identical report is absorbed at Report
// time — it still returns true (the alert IS accounted for), but only one
// copy occupies the bounded queue and only one analysis runs, and the repair
// is exactly as correct as the double-analysis path.
func TestRepeatedAlertsDedupedAtReport(t *testing.T) {
	cfg := defaultCfg()
	cfg.Triage.Dedupe = true
	sys := newFig1System(t, cfg, true)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	bad := []wlog.InstanceID{"r1/t1#1"}
	if !sys.Report(selfheal.Alert{Bad: bad}) {
		t.Fatal("first alert rejected")
	}
	if !sys.Report(selfheal.Alert{Bad: bad}) {
		t.Fatal("duplicate alert rejected instead of absorbed")
	}
	if m := sys.Metrics(); m.AlertsDeduped != 1 {
		t.Fatalf("AlertsDeduped = %d, want 1", m.AlertsDeduped)
	}
	if err := sys.DrainRecovery(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.AlertsAnalyzed != 1 || m.ConesAnalyzed != 1 {
		t.Errorf("duplicate reached the analyzer: analyzed %d alerts, %d cones, want 1 and 1",
			m.AlertsAnalyzed, m.ConesAnalyzed)
	}
	if m.AlertsLost != 0 {
		t.Errorf("dedupe counted the duplicate as lost: AlertsLost = %d", m.AlertsLost)
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), sys.Store()); err != nil {
		t.Errorf("deduped recovery broke the state: %v", err)
	}
}

// TestSequentialDistinctAlerts: two separate attacks reported one after the
// other, each repaired cumulatively.
func TestSequentialDistinctAlerts(t *testing.T) {
	st := data.NewStore()
	st.Init("e", 0)
	sys, err := selfheal.New(defaultCfg(), st)
	if err != nil {
		t.Fatal(err)
	}
	wf1, wf2 := wf.Fig1Specs()
	sys.Engine().AddAttack(engine.Attack{
		Run: "r1", Task: "t1",
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"a": 100}
		},
	})
	sys.Engine().AddAttack(engine.Attack{
		Run: "r2", Task: "t9",
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"i": -5}
		},
	})
	if err := sys.StartRun("r1", wf1); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartRun("r2", wf2); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
	if err := sys.DrainRecovery(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r2/t9#1"}})
	if err := sys.DrainRecovery(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), sys.Store()); err != nil {
		t.Error(err)
	}
	if sys.Metrics().UnitsExecuted != 2 {
		t.Errorf("units = %d, want 2", sys.Metrics().UnitsExecuted)
	}
}

func TestServeProcessesAlertsAndStops(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), true)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	alerts := make(chan selfheal.Alert, 1)
	alerts <- selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}}
	close(alerts)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := sys.Serve(ctx, alerts)
	if err != nil {
		t.Fatal(err)
	}
	if m.AlertsAnalyzed != 1 || m.UnitsExecuted != 1 {
		t.Errorf("serve metrics = %+v", m)
	}
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.CheckStrictCorrectness(clean.Store(), sys.Store()); err != nil {
		t.Error(err)
	}
}

func TestServeHonorsContextCancel(t *testing.T) {
	sys := newFig1System(t, defaultCfg(), false)
	if err := sys.RunToCompletion(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	alerts := make(chan selfheal.Alert) // never closed, never sent
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sys.Serve(ctx, alerts)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop on cancel")
	}
}
