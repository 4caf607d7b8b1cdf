package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// durableDoc is chainSpec as a wfjson document: a linear workflow of n
// tasks where task i reads "<name>.k<i-1>", writes "<name>.k<i>" and adds
// bias i — so the terminal key deterministically ends at n(n+1)/2
// regardless of scheduling, and any corruption propagates visibly.
func durableDoc(name string, n int) *wfjson.SpecJSON {
	key := func(i int) string { return fmt.Sprintf("%s.k%d", name, i) }
	sj := &wfjson.SpecJSON{Name: name, Start: "t1"}
	for i := 1; i <= n; i++ {
		tj := wfjson.TaskJSON{ID: fmt.Sprintf("t%d", i), Writes: []string{key(i)}, Bias: int64(i)}
		if i > 1 {
			tj.Reads = []string{key(i - 1)}
		}
		if i < n {
			tj.Next = []string{fmt.Sprintf("t%d", i+1)}
		}
		sj.Tasks = append(sj.Tasks, tj)
	}
	return sj
}

// durableVal is the benign terminal value of durableDoc(name, n)'s last key.
func durableVal(n int) data.Value { return data.Value(n * (n + 1) / 2) }

func newDurableSvc(t *testing.T, dir string, cfg Config) *Service {
	t.Helper()
	return startDurable(t, dir, cfg, durable.Options{})
}

func startDurable(t *testing.T, dir string, cfg Config, opts durable.Options) *Service {
	t.Helper()
	svc, err := NewDurable(cfg, dir, opts)
	if err != nil {
		t.Fatalf("NewDurable(%s): %v", dir, err)
	}
	svc.Start()
	t.Cleanup(svc.Stop)
	return svc
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func drainRecovery(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.DrainRecovery(ctx); err != nil {
		t.Fatalf("DrainRecovery: %v (state %v)", err, svc.State())
	}
}

// TestDurableRestartResumesState: a clean stop/start cycle restores the
// exact service state — store chains, log, run statuses, graph frontier —
// and the restored service keeps accepting work.
func TestDurableRestartResumesState(t *testing.T) {
	dir := t.TempDir()
	svc := newDurableSvc(t, dir, Config{Shards: 2})
	for _, name := range []string{"a", "b", "c"} {
		if err := svc.SubmitRunSpec(name, durableDoc(name, 6)); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, svc)
	chains := svc.Store().ChainsCopy()
	logLen := svc.Log().Len()
	runs := svc.Runs()
	front := svc.graph.Frontier()
	svc.Stop()

	svc2 := newDurableSvc(t, dir, Config{Shards: 2})
	if !reflect.DeepEqual(chains, svc2.Store().ChainsCopy()) {
		t.Errorf("restored store differs:\n%s", data.Diff(svc.Store(), svc2.Store()))
	}
	if got := svc2.Log().Len(); got != logLen {
		t.Errorf("restored log length %d, want %d", got, logLen)
	}
	got := svc2.Runs()
	for i := range got {
		// Shard placement is scheduling state, not durable state: a restore
		// may re-place a run on any shard.
		got[i].Shard = 0
		runs[i].Shard = 0
	}
	if !reflect.DeepEqual(runs, got) {
		t.Errorf("restored runs %+v, want %+v", got, runs)
	}
	if got := svc2.graph.Frontier(); !reflect.DeepEqual(front, got) {
		t.Errorf("restored graph frontier differs:\n got  %+v\n want %+v", got, front)
	}
	if records, _ := svc2.ReplayStats(); records != logLen+3 {
		// 3 spec records + one record per committed entry, no snapshot.
		t.Errorf("replayed %d records, want %d", records, logLen+3)
	}
	// The restored service is live: new submissions execute to completion.
	if err := svc2.SubmitRunSpec("d", durableDoc("d", 4)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc2)
	if v, _ := svc2.Store().Get("d.k4"); v.Value != durableVal(4) {
		t.Errorf("d.k4 = %d, want %d", v.Value, durableVal(4))
	}
}

// TestDurableKillMidFlightRestores simulates kill -9 by copying the WAL
// directory while the service is executing (the copy can catch a torn tail
// and runs at arbitrary frontiers). A service booted from the copy must
// resume every registered run and finish with the benign terminal values.
func TestDurableKillMidFlightRestores(t *testing.T) {
	const runs, steps = 8, 10
	dir := t.TempDir()
	svc := newDurableSvc(t, dir, Config{Shards: 2})
	for i := 0; i < runs; i++ {
		if err := svc.SubmitRunSpec(fmt.Sprintf("r%d", i), durableDoc(fmt.Sprintf("r%d", i), steps)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the workload is demonstrably mid-flight, then "crash".
	deadline := time.Now().Add(30 * time.Second)
	for svc.Log().Len() < runs*steps/4 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crash)
	waitIdle(t, svc)
	svc.Stop()

	svc2 := newDurableSvc(t, crash, Config{Shards: 2})
	restored := svc2.Runs()
	if len(restored) == 0 {
		t.Fatal("crash copy restored no runs")
	}
	waitIdle(t, svc2)
	if err := svc2.Store().CheckIndex(); err != nil {
		t.Errorf("restored store index: %v", err)
	}
	active := 0
	for _, ri := range restored {
		if ri.Status != RunDone.String() {
			active++
		}
		k := data.Key(fmt.Sprintf("%s.k%d", ri.ID, steps))
		if v, ok := svc2.Store().Get(k); !ok || v.Value != durableVal(steps) {
			t.Errorf("run %s terminal %s = %d (present %v), want %d", ri.ID, k, v.Value, ok, durableVal(steps))
		}
		if info, err := svc2.RunInfo(ri.ID); err != nil || info.Status != RunDone.String() {
			t.Errorf("run %s status %q (%v), want done", ri.ID, info.Status, err)
		}
	}
	t.Logf("crash copy caught %d/%d runs mid-flight at log length %d", active, len(restored), svc2.Log().Base()+svc2.Log().Len())
}

// TestDurableRepairSurvivesRestart: a completed repair's adopt record is the
// only durable trace of the chain rewrite — after a restart the repaired
// store, not the attacked one, must come back.
func TestDurableRepairSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc := newDurableSvc(t, dir, Config{Shards: 2})
	if err := svc.SubmitRunSpec("v1", durableDoc("v1", 8)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	inst, err := svc.InjectForged("intruder", "evil", []data.Key{"v1.k8"},
		map[data.Key]data.Value{"v1.k8": -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	drainRecovery(t, svc)
	waitIdle(t, svc)
	if err := svc.LastRecoveryError(); err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	chains := svc.Store().ChainsCopy()
	svc.Stop()

	svc2 := newDurableSvc(t, dir, Config{Shards: 2})
	if !reflect.DeepEqual(chains, svc2.Store().ChainsCopy()) {
		t.Errorf("repair did not survive restart:\n%s", data.Diff(svc.Store(), svc2.Store()))
	}
	if v, _ := svc2.Store().Get("v1.k8"); v.Value != durableVal(8) {
		t.Errorf("v1.k8 = %d after restart, benign value is %d", v.Value, durableVal(8))
	}
	if n := len(svc2.restoredAlerts); n != 0 {
		t.Errorf("%d un-acked alerts restored after completed repair, want 0", n)
	}
}

// TestCheckpointOfRunRepairedPastItsEnd: a repair can resync an in-flight
// run past its end (frontier "", done) while the run's keys are paused, and a
// checkpoint can capture it before its worker retires it. A restart from that
// snapshot must come back with the run done, not refuse to restore it.
func TestCheckpointOfRunRepairedPastItsEnd(t *testing.T) {
	dir := t.TempDir()
	svc := newDurableSvc(t, dir, Config{Shards: 1})
	svc.exec.gate.PauseAll()
	if err := svc.SubmitRunSpec("x", durableDoc("x", 3)); err != nil {
		t.Fatal(err)
	}
	if err := svc.eng.Resync(&svc.m.Run("x").Run, "", true); err != nil { // as machine.Install would
		t.Fatal(err)
	}
	if err := svc.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.exec.gate.ReleaseAll()
	waitIdle(t, svc)
	svc.Stop()

	re := newDurableSvc(t, dir, Config{Shards: 1})
	if info, err := re.RunInfo("x"); err != nil || info.Status != RunDone.String() {
		t.Fatalf("restarted RunInfo(x) = %+v, %v; want done", info, err)
	}
}

// TestInterruptedRepairResumes: a crash after an alert is admitted (its
// record synced) but before the repair installs must re-queue the alert at
// the next boot and end in exactly the state of the uninterrupted repair.
func TestInterruptedRepairResumes(t *testing.T) {
	// Base state: completed run + forged entry, no alert yet.
	base := filepath.Join(t.TempDir(), "base")
	svc := newDurableSvc(t, base, Config{Shards: 2})
	if err := svc.SubmitRunSpec("v1", durableDoc("v1", 8)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	inst, err := svc.InjectForged("intruder", "evil", []data.Key{"v1.k8"},
		map[data.Key]data.Value{"v1.k8": -1})
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	svc.Stop()

	ref := filepath.Join(t.TempDir(), "ref")
	cut := filepath.Join(t.TempDir(), "cut")
	copyTree(t, base, ref)
	copyTree(t, base, cut)

	// Reference: report, repair, done.
	refSvc := newDurableSvc(t, ref, Config{Shards: 2})
	if err := refSvc.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	drainRecovery(t, refSvc)
	waitIdle(t, refSvc)
	if err := refSvc.LastRecoveryError(); err != nil {
		t.Fatalf("reference repair failed: %v", err)
	}
	want := refSvc.Store().ChainsCopy()

	// Interrupted: the service admits the alert (record synced by
	// ReportAlerts) and "crashes" before its recovery worker — never
	// started — can touch it.
	cutSvc, err := NewDurable(Config{Shards: 2}, cut, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cutSvc.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	if err := cutSvc.wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: the un-acked alert is re-queued and the repair re-runs.
	cutSvc2 := newDurableSvc(t, cut, Config{Shards: 2})
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m := cutSvc2.Metrics(); m.UnitsExecuted >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	drainRecovery(t, cutSvc2)
	waitIdle(t, cutSvc2)
	if err := cutSvc2.LastRecoveryError(); err != nil {
		t.Fatalf("resumed repair failed: %v", err)
	}
	if got := cutSvc2.Store().ChainsCopy(); !reflect.DeepEqual(want, got) {
		t.Errorf("resumed repair diverged from uninterrupted repair:\n%s",
			data.Diff(refSvc.Store(), cutSvc2.Store()))
	}
}

// TestCheckpointBoundsReplayAndHorizon: an explicit checkpoint truncates
// what a restart replays; afterwards, post-epoch damage repairs normally
// while damage reaching pre-epoch history is refused with ErrHorizon
// instead of installing a silently wrong repair against the truncated log.
func TestCheckpointBoundsReplayAndHorizon(t *testing.T) {
	dir := t.TempDir()
	svc := newDurableSvc(t, dir, Config{Shards: 2})
	if err := svc.SubmitRunSpec("a", durableDoc("a", 3)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	if err := svc.Checkpoint(context.Background()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := svc.SubmitRunSpec("b", durableDoc("b", 3)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	svc.Stop()

	svc2 := newDurableSvc(t, dir, Config{Shards: 2})
	if records, _ := svc2.ReplayStats(); records != 4 {
		// Post-snapshot tail: spec record for b + its 3 entries.
		t.Errorf("replayed %d records past the snapshot, want 4", records)
	}
	if base := svc2.Log().Base(); base != 3 {
		t.Errorf("restored log base %d, want 3", base)
	}
	for _, ri := range svc2.Runs() {
		if ri.Status != RunDone.String() {
			t.Errorf("run %s restored as %s, want done", ri.ID, ri.Status)
		}
	}

	// Post-epoch damage: normal repair.
	inst, err := svc2.InjectForged("intruder", "evil", []data.Key{"b.k3"},
		map[data.Key]data.Value{"b.k3": -7})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	drainRecovery(t, svc2)
	if err := svc2.LastRecoveryError(); err != nil {
		t.Fatalf("post-epoch repair failed: %v", err)
	}
	if v, _ := svc2.Store().Get("b.k3"); v.Value != durableVal(3) {
		t.Errorf("b.k3 = %d after repair, benign value is %d", v.Value, durableVal(3))
	}

	// Damage on run a's keys: a is retired with every entry beneath the
	// snapshot — frozen history. The undo exposes the checkpoint boundary
	// version, so the repair succeeds instead of refusing conservatively.
	inst, err = svc2.InjectForged("intruder", "evil2", []data.Key{"a.k1"},
		map[data.Key]data.Value{"a.k1": -9})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	drainRecovery(t, svc2)
	if err := svc2.LastRecoveryError(); err != nil {
		t.Errorf("repair over frozen run a failed: %v", err)
	}
	if v, _ := svc2.Store().Get("a.k1"); v.Value != durableVal(1) {
		t.Errorf("a.k1 = %d after repair, boundary value is %d", v.Value, durableVal(1))
	}
}

// TestAutoCheckpoint: Config.SnapshotEvery drives checkpoints without any
// explicit call, so a long-lived service's restart replays a bounded tail.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	svc := newDurableSvc(t, dir, Config{Shards: 2, SnapshotEvery: 16})
	total := 0
	for i := 0; i < 6; i++ {
		if err := svc.SubmitRunSpec(fmt.Sprintf("r%d", i), durableDoc(fmt.Sprintf("r%d", i), 8)); err != nil {
			t.Fatal(err)
		}
		total += 8
	}
	waitIdle(t, svc)
	deadline := time.Now().Add(30 * time.Second)
	for svc.wal.SnapshotEpoch() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	epoch := svc.wal.SnapshotEpoch()
	if epoch == 0 {
		t.Fatal("no automatic checkpoint happened")
	}
	svc.Stop()

	svc2 := newDurableSvc(t, dir, Config{Shards: 2, SnapshotEvery: 16})
	records, _ := svc2.ReplayStats()
	if records >= total {
		t.Errorf("replayed %d records despite a checkpoint at epoch %d (%d entries total)", records, epoch, total)
	}
	for i := 0; i < 6; i++ {
		k := data.Key(fmt.Sprintf("r%d.k8", i))
		if v, _ := svc2.Store().Get(k); v.Value != durableVal(8) {
			t.Errorf("%s = %d after restore, want %d", k, v.Value, durableVal(8))
		}
	}
}

// TestDurableRejectsBareSpec: the durable submission path requires the
// serializable wfjson document.
func TestDurableRejectsBareSpec(t *testing.T) {
	svc := newDurableSvc(t, t.TempDir(), Config{})
	if err := svc.SubmitRun("x", chainSpec("x", 2, 0)); !errors.Is(err, engine.ErrBadSpec) {
		t.Errorf("SubmitRun on durable service = %v, want ErrBadSpec", err)
	}
	if err := svc.SubmitRunSpec("x", durableDoc("x", 2)); err != nil {
		t.Errorf("SubmitRunSpec: %v", err)
	}
	waitIdle(t, svc)
}
