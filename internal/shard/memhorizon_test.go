package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// readerSpec is a one-task run that reads key and writes "<name>.k1": a
// forged value of key propagates into it.
func readerSpec(name string, key data.Key) *wf.Spec {
	out := data.Key(name + ".k1")
	b := wf.NewBuilder(name, "t1")
	b.Task("t1").Reads(key).Writes(out).Compute(wf.SumCompute(1, out))
	return b.MustBuild()
}

// serial submits runs one at a time, each to completion, so the log grows by
// exactly each run's length in submission order, and remembers them for the
// attack-free replay.
type serial struct {
	t    *testing.T
	svc  *Service
	ids  []string
	runs []*wf.Spec
}

func (w *serial) run(id string, spec *wf.Spec) {
	w.t.Helper()
	if err := w.svc.SubmitRun(id, spec); err != nil {
		w.t.Fatalf("submit %s: %v", id, err)
	}
	waitIdle(w.t, w.svc)
	w.ids, w.runs = append(w.ids, id), append(w.runs, spec)
}

// fill commits chain runs of at most 8 tasks until the log holds upTo
// entries.
func (w *serial) fill(upTo int) {
	w.t.Helper()
	for n := upTo - w.svc.Log().Len(); n > 0; n = upTo - w.svc.Log().Len() {
		id := fmt.Sprintf("fill%d", len(w.ids))
		w.run(id, chainSpec(id, min(n, 8), 0))
	}
}

// benign replays the same runs in the same order, without the forges, on a
// service that never forgets, and returns its store.
func (w *serial) benign() map[data.Key]data.Value {
	w.t.Helper()
	ref := startService(w.t, Config{Shards: 2, SnapshotEvery: -1})
	for i, id := range w.ids {
		if err := ref.SubmitRun(id, w.runs[i]); err != nil {
			w.t.Fatal(err)
		}
		waitIdle(w.t, ref)
	}
	return ref.Store().Snapshot()
}

// waitHorizon waits until an automatic checkpoint has moved the log's base
// to at least lsn.
func waitHorizon(t *testing.T, svc *Service, lsn int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); svc.Log().Base() < lsn; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no automatic checkpoint moved the horizon to %d (base %d, head %d)", lsn, svc.Log().Base(), svc.Log().Len())
		}
	}
}

// assertRepairedToBenign waits for recovery and requires no failed repair and
// the attack-free store.
func assertRepairedToBenign(t *testing.T, w *serial) {
	t.Helper()
	waitIdle(t, w.svc)
	if err := w.svc.LastRecoveryError(); err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if got, want := w.svc.Store().Snapshot(), w.benign(); !reflect.DeepEqual(got, want) {
		t.Fatalf("store after the repair differs from the attack-free one:\n got %v\nwant %v", got, want)
	}
}

// TestMemoryHorizonKeepsDetectionWindow: an in-memory service forgets
// memoryTrail intervals beneath its head, so an alert that arrives one entry
// short of that after its forge, across automatic checkpoints, still finds
// the forge's history and is repaired to the attack-free store; one that
// arrives a few entries later, once a tick has moved the horizon, names
// history that is gone, and is refused as below the horizon.
func TestMemoryHorizonKeepsDetectionWindow(t *testing.T) {
	const every, trail = 64, memoryTrail * 64
	svc := startService(t, Config{Shards: 2, SnapshotEvery: every})
	w := &serial{t: t, svc: svc}

	// No checkpoint before trail entries; from then on each tick moves the
	// horizon to trail entries beneath the head, never past the forge while
	// the alert is pending.
	w.fill(100)
	w.run("v", chainSpec("v", 4, 0))
	inst, err := svc.InjectForged("atk1", "x", []data.Key{"v.k4"}, map[data.Key]data.Value{"v.k4": -1})
	if err != nil {
		t.Fatal(err)
	}
	forged := svc.Log().Len()
	w.run("r", readerSpec("r", "v.k4"))
	w.fill(forged + trail - 1)
	waitHorizon(t, svc, 1)
	if base := svc.Log().Base(); base >= forged {
		t.Fatalf("the horizon %d passed the forge at %d, %d entries beneath the head %d", base, forged, svc.Log().Len()-base, svc.Log().Len())
	}
	if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatalf("an alert %d entries after its forge, across the checkpoint at %d: %v", svc.Log().Len()-forged, svc.Log().Base(), err)
	}
	assertRepairedToBenign(t, w)

	inst, err = svc.InjectForged("atk2", "x", nil, map[data.Key]data.Value{"v.k3": -1})
	if err != nil {
		t.Fatal(err)
	}
	forged = svc.Log().Len()
	w.fill(forged + trail + 8)
	waitHorizon(t, svc, forged)
	if err := svc.Report([]wlog.InstanceID{inst}); !errors.Is(err, recovery.ErrHorizon) {
		t.Fatalf("an alert %d entries after its forge, beneath the horizon %d: %v, want ErrHorizon", svc.Log().Len()-forged, svc.Log().Base(), err)
	}
	if n := svc.Metrics().AlertsBelowHorizon; n != 1 {
		t.Fatalf("%d below-horizon refusals counted, want 1", n)
	}
}

// TestMemoryHorizonTrailsEveryTick: under sustained commits an in-memory
// service holds its trail plus what committed since its last tick, not a
// fourth interval. Sampled across at least 20 ticks, the resident log never
// exceeds the trail plus the entries committed over the last few ticks (an
// allowance for a late tick) plus a few entries a retired run straddling the
// target may hold beneath it.
func TestMemoryHorizonTrailsEveryTick(t *testing.T) {
	const every, trail = 128, memoryTrail * 128
	const window, slack, samples = 250 * time.Millisecond, 32, 30
	svc := startService(t, Config{Shards: 2, SnapshotEvery: every})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			id := fmt.Sprintf("r%d", i)
			if err := svc.SubmitRun(id, chainSpec(id, 4, 0)); err != nil && !errors.Is(err, ErrQueueFull) {
				done <- err
				return
			}
			pace := time.Millisecond // fill the trail quickly
			if svc.Log().Len() > trail+every {
				pace = 20 * time.Millisecond // then about 200 entries a second
			}
			time.Sleep(pace)
		}
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}()
	waitHorizon(t, svc, every)

	type sample struct {
		at        time.Time
		len, base int
	}
	var hist []sample
	moves, checked, worst := 0, 0, -1<<31
	for checked < samples {
		time.Sleep(window / 5)
		s := sample{at: time.Now(), len: svc.Log().Len()}
		s.base = svc.Log().Base() // after the length: a forget in between only lowers the reading
		hist = append(hist, s)
		if len(hist) > 1 && s.base > hist[len(hist)-2].base {
			moves++
		}
		// The commits since the latest sample at least a window old
		// cover those since the service's last tick.
		since := -1
		for _, h := range hist {
			if s.at.Sub(h.at) >= window {
				since = h.len
			}
		}
		if since < 0 {
			continue
		}
		checked++
		worst = max(worst, s.len-s.base-trail-(s.len-since))
		if resident, allowed := s.len-s.base, trail+(s.len-since)+slack; resident > allowed {
			t.Fatalf("sample %d: %d entries resident (%d..%d), more than the trail %d plus %d committed in the last %v plus %d",
				len(hist), resident, s.base+1, s.len, trail, s.len-since, window, slack)
		}
	}
	t.Logf("%d samples checked, the horizon moved at %d of %d; at worst %d entries resident beyond the trail and the window's commits (slack %d)",
		checked, moves, len(hist), worst, slack)
	if moves < samples/3 {
		t.Fatalf("the horizon moved at %d of %d samples, %v apart: it does not trail the head tick by tick", moves, len(hist), window/5)
	}
}

// TestMemoryHorizonRetiredStraddler guards the consistent cut: a retired run
// with entries on both sides of the trailing target (head − memoryTrail
// intervals) moves the epoch beneath its first entry, so it keeps its whole
// history — neither buried nor pre-epoch — and a forge on its keys, read by
// a later run, is repaired with no ErrHorizon.
func TestMemoryHorizonRetiredStraddler(t *testing.T) {
	const every, trail = 64, memoryTrail * 64
	svc := startService(t, Config{Shards: 2, SnapshotEvery: every})
	w := &serial{t: t, svc: svc}

	// Every automatic checkpoint this workload can trigger (trail + every ≤
	// head ≤ trail + 88) targets an LSN in 64..88, inside the straddler's
	// 60..100.
	w.fill(59)
	w.run("s", chainSpec("s", 41, 0))
	w.fill(trail + 88)
	// A tick during the fill may cut at a target still beneath 60 (the
	// head passes trail+1..trail+59 on the way), so the test waits for the
	// cut beneath the straddler; every target after that lies inside
	// 60..100 and leaves the horizon at 59.
	waitHorizon(t, svc, 59)
	if base := svc.Log().Base(); base != 59 {
		t.Fatalf("horizon at %d, want 59: beneath the retired run s, whose entries 60..100 straddle every target", base)
	}
	if info, err := svc.RunInfo("s"); err != nil || info.Steps != 41 {
		t.Fatalf("RunInfo(s) = %+v, %v; want all 41 steps above the horizon", info, err)
	}
	if svc.m.PreEpoch()["s"] {
		t.Fatal("the straddler is pre-epoch; every repair reaching its keys would be refused")
	}

	inst, err := svc.InjectForged("atk", "x", []data.Key{"s.k41"}, map[data.Key]data.Value{"s.k41": -1})
	if err != nil {
		t.Fatal(err)
	}
	w.run("r", readerSpec("r", "s.k41"))
	if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	assertRepairedToBenign(t, w)
	if m := svc.Metrics(); m.RecoveryErrors != 0 || m.Undone < 1 || m.Redone < 1 {
		t.Fatalf("repair on the straddler's keys: %+v", m)
	}
}

// TestAlertOnForgedRunBelowHorizon: a checkpoint that forgets a forge leaves
// its attacker's run name behind as a tombstone, so an alert naming the
// forge afterwards is refused as below the horizon (410), not as unknown
// (404) — in memory and on a durable service, and after the durable service
// restarts. The forged run is still no submitted run.
func TestAlertOnForgedRunBelowHorizon(t *testing.T) {
	for _, mode := range []string{"memory", "durable"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			boot := func() *Service {
				if mode == "memory" {
					return startService(t, Config{Shards: 2})
				}
				return newDurableSvc(t, dir, Config{Shards: 2})
			}
			svc := boot()
			if err := svc.SubmitRunSpec("a", durableDoc("a", 3)); err != nil {
				t.Fatal(err)
			}
			waitIdle(t, svc)
			inst, err := svc.InjectForged("intruder", "evil", nil, map[data.Key]data.Value{"a.k3": -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
			check := func(label string, s *Service) {
				t.Helper()
				if err := s.Report([]wlog.InstanceID{inst}); !errors.Is(err, recovery.ErrHorizon) {
					t.Errorf("%s: alert on a forge beneath the horizon = %v, want ErrHorizon", label, err)
				}
				if _, err := s.RunInfo("intruder"); !errors.Is(err, engine.ErrUnknownRun) {
					t.Errorf("%s: RunInfo(intruder) = %v, want ErrUnknownRun", label, err)
				}
				if runs := s.Runs(); len(runs) != 1 || runs[0].ID != "a" {
					t.Errorf("%s: Runs() = %+v, want only a", label, runs)
				}
				if m := s.Metrics(); m.RunsSubmitted != 1 || m.AlertsBelowHorizon != 1 {
					t.Errorf("%s: %d runs submitted, %d below-horizon refusals; want 1 and 1", label, m.RunsSubmitted, m.AlertsBelowHorizon)
				}
			}
			check(mode, svc)
			if mode == "durable" {
				svc.Stop()
				check("restarted", boot())
			}
		})
	}
}

// TestAlertOnPreEpochRunBelowHorizon: a checkpoint that lands while a run is
// live truncates the run's first instances, and the run goes on above the
// horizon. An alert naming one of the truncated instances is a 410 — the
// history is gone, as for a retired run's — in memory, durable, and after a
// durable restart, while one naming a visit the run never made stays
// unknown. The run takes exactly three steps before the checkpoint, driven
// by hand with every shard paused.
func TestAlertOnPreEpochRunBelowHorizon(t *testing.T) {
	for _, mode := range []string{"memory", "durable"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			boot := func() *Service {
				if mode == "memory" {
					return startService(t, Config{Shards: 2})
				}
				return newDurableSvc(t, dir, Config{Shards: 2})
			}
			svc := boot()
			svc.exec.gate.PauseAll()
			if err := svc.SubmitRunSpec("slow", durableDoc("slow", 40)); err != nil {
				t.Fatal(err)
			}
			run := &svc.m.Run("slow").Run
			for i := 0; i < 3; i++ {
				if err := svc.com.exec(func() error { _, err := svc.eng.Step(run); return err }); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Checkpoint(context.Background()); err != nil {
				t.Fatal(err)
			}
			svc.exec.gate.ReleaseAll()
			if !svc.m.PreEpoch()["slow"] {
				t.Fatal("the checkpoint did not make the live run pre-epoch")
			}
			check := func(label string, s *Service) {
				t.Helper()
				for _, id := range []wlog.InstanceID{"slow/t1#1", "slow/t3#1"} {
					if err := s.Report([]wlog.InstanceID{id}); !errors.Is(err, recovery.ErrHorizon) {
						t.Errorf("%s: alert on %s, truncated from a live run = %v, want ErrHorizon", label, id, err)
					}
				}
				if err := s.Report([]wlog.InstanceID{"slow/t1#2"}); !errors.Is(err, engine.ErrUnknownRun) {
					t.Errorf("%s: alert on a visit the run never made = %v, want ErrUnknownRun", label, err)
				}
				if n := s.Metrics().AlertsBelowHorizon; n != 2 {
					t.Errorf("%s: %d below-horizon refusals counted, want 2", label, n)
				}
			}
			check(mode, svc)
			if mode == "durable" {
				svc.Stop()
				check("restarted", boot())
			}
		})
	}
}
