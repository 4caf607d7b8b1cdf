package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/machine"
)

// The durable service acknowledges a step once it is applied in memory and
// publishes only what the WAL's durable prefix covers. The tests below copy
// the WAL directory at the moment a client observes a result — a kill -9 at
// that instant — and require the copy to restore it. A GroupWait makes the
// WAL lag behind memory, so a result published early is caught in the gap.

// crashCopy copies the WAL directory as it is on disk now and boots a
// service on the copy (restoreDir).
func crashCopy(t *testing.T, dir string) *Service {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, cp)
	return restoreDir(t, cp)
}

func waitLogLen(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for svc.Log().Len() < n {
		if time.Now().After(deadline) || t.Failed() {
			t.Fatalf("log stuck at length %d, want %d", svc.Log().Len(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestDoneImpliesDurable: the first time RunInfo reads done, the run's whole
// execution is on disk — a copy taken at that instant restores the run done
// with its benign terminal value.
func TestDoneImpliesDurable(t *testing.T) {
	const runs, steps = 32, 6
	dir := t.TempDir()
	svc := startDurable(t, dir, Config{Shards: 4}, durable.Options{GroupWait: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := svc.SubmitRunSpec(id, durableDoc(id, steps)); err != nil {
				t.Error(err)
			}
		}(fmt.Sprintf("r%d", i))
	}
	seen := make(map[string]bool)
	deadline := time.Now().Add(30 * time.Second)
	for len(seen) < runs && time.Now().Before(deadline) && !t.Failed() {
		var fresh []string
		for i := 0; i < runs; i++ {
			id := fmt.Sprintf("r%d", i)
			if seen[id] {
				continue
			}
			if info, err := svc.RunInfo(id); err == nil && info.Status == RunDone.String() {
				fresh = append(fresh, id)
				seen[id] = true
			}
		}
		if len(fresh) == 0 {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		st := crashCopy(t, dir)
		for _, id := range fresh {
			if status, _, _ := st.m.Status(id); status != machine.Done {
				t.Errorf("run %s read done, but a copy taken then restores it %s", id, status)
			}
			k := data.Key(fmt.Sprintf("%s.k%d", id, steps))
			if v, ok := st.Store().Get(k); !ok || v.Value != durableVal(steps) {
				t.Errorf("run %s read done, but a copy taken then restores %s = %d (present %v), want %d",
					id, k, v.Value, ok, durableVal(steps))
			}
		}
	}
	wg.Wait()
	if len(seen) < runs && !t.Failed() {
		t.Fatalf("only %d/%d runs read done", len(seen), runs)
	}
}

// TestSubmitAckImpliesSpecDurable: once SubmitRunSpec returns (the 201), the
// spec record is on disk.
func TestSubmitAckImpliesSpecDurable(t *testing.T) {
	const runs = 16
	dir := t.TempDir()
	svc := startDurable(t, dir, Config{Shards: 2}, durable.Options{GroupWait: 2 * time.Millisecond})
	acked := make(chan string, runs) // one send per submitter; "" on failure
	for i := 0; i < runs; i++ {
		go func(id string) {
			if err := svc.SubmitRunSpec(id, durableDoc(id, 3)); err != nil {
				t.Error(err)
				id = ""
			}
			acked <- id
		}(fmt.Sprintf("s%d", i))
	}
	copies := make(map[string]string, runs)
	for i := 0; i < runs; i++ {
		if id := <-acked; id != "" {
			copies[id] = filepath.Join(t.TempDir(), id)
			copyTree(t, dir, copies[id])
		}
	}
	for id, cp := range copies {
		if !restoreDir(t, cp).m.Has(id) {
			t.Errorf("SubmitRunSpec(%s) returned, but a copy taken then does not know the run", id)
		}
	}
}

// TestCheckpointCoversOnlyDurablePrefix: a checkpoint taken under concurrent
// commits never claims a record the log does not hold on disk — a copy taken
// right after it restores, snapshot plus tail, to what a full replay of the
// same copy yields.
func TestCheckpointCoversOnlyDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	svc := startDurable(t, dir, Config{Shards: 2}, durable.Options{GroupWait: 2 * time.Millisecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	halt := func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("g%d-%d", g, i)
				if err := svc.SubmitRunSpec(id, durableDoc(id, 8)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	var crashes []string
	for c := 0; c < 3; c++ {
		waitLogLen(t, svc, svc.Log().Len()+40)
		if err := svc.Checkpoint(context.Background()); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		cp := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d", c))
		copyTree(t, dir, cp)
		crashes = append(crashes, cp)
	}
	halt()

	for _, cp := range crashes {
		full := cp + "-full"
		copyTree(t, cp, full)
		snaps, _ := filepath.Glob(filepath.Join(full, "snap-*"))
		for _, f := range snaps {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		bounded, replayed := restoreDir(t, cp), restoreDir(t, full)
		epoch := bounded.m.Epoch()
		if epoch == 0 {
			t.Fatalf("%s: no snapshot restored", cp)
		}
		replayed.Store().CompactBefore(float64(epoch))
		if !data.Equal(bounded.Store(), replayed.Store()) {
			t.Errorf("%s: snapshot+tail store differs from full replay:\n%s", cp, data.Diff(bounded.Store(), replayed.Store()))
		}
		// A run the snapshot keeps only as a tombstone is one the full
		// replay retired with the same status; the rest match record for
		// record.
		tombs := bounded.m.Tombs()
		for run, tb := range tombs {
			if status, msg, ok := replayed.m.Status(run); !ok || status.String() != tb.Status || msg != tb.Err {
				t.Errorf("%s: tombstone %s %+v, full replay %s %q (known %v)", cp, run, tb, status, msg, ok)
			}
		}
		b, f := bounded.m.Capture(), replayed.m.Capture()
		if !reflect.DeepEqual(b.Runs, f.Runs) || !reflect.DeepEqual(b.Tombs, f.Tombs) {
			t.Errorf("%s: snapshot+tail run frontiers or tombstones differ from full replay", cp)
		}
		if b, f := bounded.specStates, machine.Prune(replayed.specStates, tombs); !reflect.DeepEqual(b, f) {
			t.Errorf("%s: snapshot+tail specs differ from full replay", cp)
		}
		if b, f := bounded.Log().Len(), replayed.Log().Len(); b != f {
			t.Errorf("%s: snapshot+tail log ends at LSN %d, full replay at %d", cp, b, f)
		}
	}
}

// TestClosedWALFailsUndurableRuns: a WAL that stops under a running service
// (here: closed mid-traffic) fails every run it can no longer make durable —
// no run reads done unless a copy of the directory restores it done, every
// other run reads failed with the WAL's error, and WaitIdle returns that
// error instead of waiting for a WAL that will never catch up.
func TestClosedWALFailsUndurableRuns(t *testing.T) {
	// Short runs finish before the close, long ones cannot.
	const runs, short, long = 32, 4, 400
	steps := func(i int) int { return []int{short, long}[i%2] }
	dir := t.TempDir()
	svc := startDurable(t, dir, Config{Shards: 4}, durable.Options{})
	// Paused shards hold every run at a step boundary, so the close lands
	// mid-flight however fast the steps are.
	svc.exec.gate.PauseAll()
	for i := 0; i < runs; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := svc.SubmitRunSpec(id, durableDoc(id, steps(i))); err != nil {
			t.Fatal(err)
		}
	}
	svc.exec.gate.ReleaseAll()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		if info, _ := svc.RunInfo("w0"); info.Status == RunDone.String() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("short run w0 never read done")
		}
	}
	svc.exec.gate.PauseAll()
	if err := svc.wal.Close(); err != nil {
		t.Fatal(err)
	}
	closedAt := svc.Log().Len()
	doneAtClose := make(map[string]bool)
	for _, info := range svc.Runs() {
		doneAtClose[info.ID] = info.Status == RunDone.String()
	}
	svc.exec.gate.ReleaseAll()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.WaitIdle(ctx); !errors.Is(err, durable.ErrClosed) {
		t.Fatalf("WaitIdle on a closed WAL = %v, want %v", err, durable.ErrClosed)
	}
	// The pipeline reports the failure with the first step after the
	// close, so no run steps on in memory past it.
	if extra := svc.Log().Len() - closedAt; extra > runs {
		t.Errorf("%d entries committed after the WAL closed, want at most one per run (%d)", extra, runs)
	}
	st := crashCopy(t, dir)
	done, failed := 0, 0
	for i := 0; i < runs; i++ {
		id := fmt.Sprintf("w%d", i)
		info, err := svc.RunInfo(id)
		if err != nil {
			t.Fatal(err)
		}
		switch info.Status {
		case RunDone.String():
			done++
			if !doneAtClose[id] {
				t.Errorf("run %s reads done, but did not when the WAL closed", id)
			}
			if status, _, _ := st.m.Status(id); status != machine.Done {
				t.Errorf("run %s reads done, but the disk has it %s", id, status)
			}
			k := data.Key(fmt.Sprintf("%s.k%d", id, steps(i)))
			if v, _ := st.Store().Get(k); v.Value != durableVal(steps(i)) {
				t.Errorf("run %s reads done, but the disk has %s = %d", id, k, v.Value)
			}
		case RunFailed.String():
			failed++
			if !strings.Contains(info.Error, durable.ErrClosed.Error()) {
				t.Errorf("run %s failed with %q, want the WAL's error", id, info.Error)
			}
		default:
			t.Errorf("run %s reads %s after the service went idle", id, info.Status)
		}
	}
	if failed == 0 || done == 0 {
		t.Errorf("closing the WAL at log length %d left %d runs done and %d failed, want some of each", closedAt, done, failed)
	}
	// The closed WAL refuses what the service would log next.
	if _, err := svc.InjectForged("intruder", "evil", nil, map[data.Key]data.Value{"x": 1}); !errors.Is(err, durable.ErrClosed) {
		t.Errorf("InjectForged on a closed WAL = %v, want %v", err, durable.ErrClosed)
	}
}
