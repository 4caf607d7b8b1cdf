package shard

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/machine"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// TestCleanRunServesOnDamagedShard is §IV partial quiescence at key grain:
// on a single shard, a repair pauses only the keys of its damage closure,
// so a run whose footprint avoids them commits while the repair is held —
// the damaged run still active on the same shard. A shard-grained pause
// holds the clean run until the repair lands.
func TestCleanRunServesOnDamagedShard(t *testing.T) {
	svc := startService(t, Config{Shards: 1})
	specD := chainSpec("d", 12, 10*time.Millisecond)
	svc.Engine().AddAttack(engine.Attack{
		Run: "d", Task: "t2", Visit: 1,
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"d.k2": 9999}
		},
	})
	if err := svc.SubmitRun("d", specD); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if info, err := svc.RunInfo("d"); err == nil && info.Steps >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the damaged run never committed its attacked task")
		}
	}

	specC := chainSpec("c", 4, 0)
	var repairing, served, active atomic.Bool
	svc.closureHook = func() { repairing.Store(true) }
	svc.pinHook = func() {
		if !repairing.Swap(false) {
			return
		}
		if info, err := svc.RunInfo("d"); err == nil && info.Status != RunDone.String() {
			active.Store(true)
		}
		if err := svc.SubmitRun("c", specC); err != nil {
			t.Errorf("submit the clean run inside the repair: %v", err)
			return
		}
		for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if info, err := svc.RunInfo("c"); err == nil && info.Status == RunDone.String() {
				served.Store(true)
				return
			}
		}
	}
	if err := svc.Report([]wlog.InstanceID{wlog.FormatInstance("d", "t2", 1)}); err != nil {
		t.Fatal(err)
	}
	drainRecovery(t, svc)
	waitIdle(t, svc)
	if !active.Load() {
		t.Fatal("the damaged run retired before its repair paused it: nothing shares the clean run's shard")
	}
	if !served.Load() {
		t.Fatal("the clean run did not commit while the repair held the damaged keys of its shard")
	}
	if m := svc.Metrics(); m.UnitsExecuted != 1 || m.RecoveryErrors != 0 {
		t.Fatalf("recovery accounting %+v (last error %v)", m, svc.LastRecoveryError())
	}

	ref := engine.New(data.NewStore(), wlog.New())
	for id, spec := range map[string]*wf.Spec{"d": specD, "c": specC} {
		r, err := ref.NewRun(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.RunAll(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	want, got := ref.Store().Snapshot(), svc.Store().Snapshot()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d after recovery, benign value is %d", k, got[k], v)
		}
	}
}

// TestQuiesceDrainsAndHidesPausedRuns pins the two halves of the key gate's
// contract with the shard workers. A pause returns only once the step in
// flight on its keys has committed, never while it is still preparing. And
// a worker reads nothing of a run whose footprint is paused: a repair's
// install moving such a run past its end leaves it in place until the
// release, however busy its shard is with other runs (under -race, the
// frontier the install writes inside the commit pipeline is never read by
// a worker concurrently).
func TestQuiesceDrainsAndHidesPausedRuns(t *testing.T) {
	t.Run("in-flight step", func(t *testing.T) {
		svc := startService(t, Config{Shards: 1})
		started, proceed := make(chan struct{}), make(chan struct{})
		spec := wf.NewBuilder("s", "t1").
			Task("t1").Writes("s.k1").Compute(func(map[data.Key]data.Value) map[data.Key]data.Value {
			close(started)
			<-proceed
			return map[data.Key]data.Value{"s.k1": 1}
		}).End().MustBuild()
		if err := svc.SubmitRun("s", spec); err != nil {
			t.Fatal(err)
		}
		<-started
		pausedAt := make(chan int, 1)
		go func() {
			svc.exec.gate.Pause(spec.Footprint())
			pausedAt <- len(svc.Log().Trace("s", false))
		}()
		select {
		case <-pausedAt:
			close(proceed)
			t.Fatal("Pause returned while a step on its keys was still preparing")
		case <-time.After(50 * time.Millisecond):
		}
		close(proceed)
		if n := <-pausedAt; n != 1 {
			t.Fatalf("Pause returned with %d entries of the in-flight step committed, want 1", n)
		}
		svc.exec.gate.Release(spec.Footprint())
		waitIdle(t, svc)
	})

	t.Run("paused run unread", func(t *testing.T) {
		svc := startService(t, Config{Shards: 1})
		specX := chainSpec("x", 3, 0)
		keys := specX.Footprint()
		svc.exec.gate.Pause(keys)
		if err := svc.SubmitRun("x", specX); err != nil {
			t.Fatal(err)
		}
		// A busy clean run keeps the shard's worker scanning past x.
		if err := svc.SubmitRun("c", chainSpec("c", 500, 200*time.Microsecond)); err != nil {
			t.Fatal(err)
		}
		done := machine.Effect{Adopt: durable.Adopt{Fronts: []durable.RunFrontier{{Run: "x", Done: true}}}}
		for i := 0; i < 20; i++ {
			if err := svc.com.exec(func() error { return svc.m.Install(done) }); err != nil {
				t.Fatal(err)
			}
			if info, err := svc.RunInfo("x"); err != nil || info.Status != RunDeferred.String() {
				t.Fatalf("run x after install %d with its keys paused: %+v, %v; want deferred", i, info, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if info, err := svc.RunInfo("c"); err != nil || info.Status != RunActive.String() {
			t.Fatalf("clean run c: %+v, %v; want it still stepping at the release", info, err)
		}
		svc.exec.gate.Release(keys)
		waitIdle(t, svc)
		if info, err := svc.RunInfo("x"); err != nil || info.Status != RunDone.String() || info.Steps != 0 {
			t.Fatalf("run x after the release: %+v, %v; want done with no step", info, err)
		}
	})
}
