package shard

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/recovery"
	"selfheal/internal/triage"
	"selfheal/internal/wlog"
)

// TestSubmitInitSurvivesQueuedFullRepair pins the Strict-mode lost-init
// defect: a repair under full quiescence whose installation sits in the
// commit pipeline ahead of a submission's init-seeding job must not make
// that job seed a store the repair replaced. The pipeline is held busy so
// both jobs wait on it, in that order, before either runs (its mutex wakes
// parked waiters in arrival order). The repair merges its chains into the
// one store, so the service's store is the same object before and after it.
func TestSubmitInitSurvivesQueuedFullRepair(t *testing.T) {
	svc := startService(t, Config{Shards: 2, Strict: true})
	store := svc.Store()
	if err := svc.SubmitRunSpec("a", durableDoc("a", 3)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	forged, err := svc.InjectForged("evil", "f", nil, map[data.Key]data.Value{"a.k3": 99})
	if err != nil {
		t.Fatal(err)
	}
	bad := []wlog.InstanceID{forged}
	g, specs := svc.pinView()
	u := &unit{Unit: &triage.Unit{Cone: triage.Cone{Bad: bad}, Analysis: recovery.AnalyzeGraph(g, svc.Log(), specs, bad)}}

	running, release := make(chan struct{}), make(chan struct{})
	blocker := make(chan error, 1)
	go func() {
		blocker <- svc.com.exec(func() error { close(running); <-release; return nil })
	}()
	<-running
	// waitQueued returns once a goroutine inside fn is parked on the
	// pipeline's mutex, as the goroutine dump shows it.
	waitQueued := func(fn string) {
		t.Helper()
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(10 * time.Second); ; {
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, "(*pipeline).exec") && strings.Contains(g, fn) {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no goroutine in %s waits on the commit pipeline", fn)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Strict gating: every key is paused for the repair, as the recovery
	// loop pauses them for a unit.
	svc.exec.gate.PauseAll()
	repaired := make(chan error, 1)
	go func() { repaired <- svc.repair(u) }()
	waitQueued("(*Service).install")
	doc := durableDoc("b", 2)
	doc.Init = map[string]int64{"b.fresh": 15}
	submitted := make(chan error, 1)
	go func() { submitted <- svc.SubmitRunSpec("b", doc) }()
	waitQueued("(*Service).registerLocked")
	close(release)

	for name, ch := range map[string]chan error{"blocker": blocker, "repair": repaired, "submit": submitted} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	svc.exec.gate.ReleaseAll()
	waitIdle(t, svc)
	if svc.Store() != store {
		t.Fatal("the Strict repair replaced the service's store; repairs merge into the one store")
	}
	if v, ok := svc.Store().Get("a.k3"); !ok || v.Value != durableVal(3) {
		t.Errorf("a.k3 = %v (present %v) after the repair, want %d", v.Value, ok, durableVal(3))
	}
	if v, ok := svc.Store().Get("b.fresh"); !ok || v.Value != 15 {
		t.Fatalf("init key b.fresh = %v (present %v) after a repair queued ahead of the submission, want 15", v.Value, ok)
	}
}
