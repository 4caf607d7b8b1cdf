package shard

import (
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/wlog"
)

// TestSubmitInitSurvivesQueuedFullRepair pins the Strict-mode lost-init
// defect: a full repair (repairFullyQuiesced swaps the engine's store) that
// sits in the commit pipeline ahead of a submission's init-seeding job must
// not make that job seed the swapped-out store. The committer is held busy
// so both jobs are queued, in that order, before either runs.
func TestSubmitInitSurvivesQueuedFullRepair(t *testing.T) {
	svc := startService(t, Config{Shards: 2})
	if err := svc.SubmitRunSpec("a", durableDoc("a", 3)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	forged, err := svc.InjectForged("evil", "f", nil, map[data.Key]data.Value{"a.k3": 99})
	if err != nil {
		t.Fatal(err)
	}

	running, release := make(chan struct{}), make(chan struct{})
	blocker := make(chan error, 1)
	go func() {
		blocker <- svc.com.exec(func() error { close(running); <-release; return nil })
	}()
	<-running
	waitQueued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); len(svc.com.reqs) < n; {
			if time.Now().After(deadline) {
				t.Fatalf("commit pipeline holds %d queued jobs, want %d", len(svc.com.reqs), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	repaired := make(chan error, 1)
	go func() { repaired <- svc.repairFullyQuiesced(&unit{bad: []wlog.InstanceID{forged}}) }()
	waitQueued(1)
	doc := durableDoc("b", 2)
	doc.Init = map[string]int64{"b.fresh": 15}
	submitted := make(chan error, 1)
	go func() { submitted <- svc.SubmitRunSpec("b", doc) }()
	waitQueued(2)
	close(release)

	for name, ch := range map[string]chan error{"blocker": blocker, "repair": repaired, "submit": submitted} {
		if err := <-ch; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	waitIdle(t, svc)
	if v, ok := svc.Store().Get("a.k3"); !ok || v.Value != durableVal(3) {
		t.Errorf("a.k3 = %v (present %v) after the repair, want %d", v.Value, ok, durableVal(3))
	}
	if v, ok := svc.Store().Get("b.fresh"); !ok || v.Value != 15 {
		t.Fatalf("init key b.fresh = %v (present %v) after a repair queued ahead of the submission, want 15", v.Value, ok)
	}
}
