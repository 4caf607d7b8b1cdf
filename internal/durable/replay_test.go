package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/wlog"
)

// snapshotOf captures a checkpoint of a restored state, mirroring what the
// shard layer's gatherSnapshot persists.
func snapshotOf(wal *WAL, st *State) *Snapshot {
	graph := deps.NewIncrementalFrom(st.Log, st.Graph)
	snap := &Snapshot{
		Seq:    wal.Seq(),
		Epoch:  st.Log.Len(),
		Chains: st.Store.ChainsCopy(),
		Graph:  graph.Frontier(),
		Specs:  make(map[string]SpecState, len(st.Specs)),
		Runs:   make(map[string]RunState, len(st.Runs)),
		Alerts: make(map[uint64][]wlog.InstanceID, len(st.Alerts)),
	}
	for run, ss := range st.Specs {
		snap.Specs[run] = ss
	}
	for run, rs := range st.Runs {
		snap.Runs[run] = RunState{Cur: rs.Cur, Visits: copyVisits(rs.Visits), Status: rs.Status, Err: rs.Err}
	}
	for _, pa := range st.Alerts {
		snap.Alerts[pa.ID] = pa.Bad
	}
	return snap
}

// forgetRetired drops from a state restored without a snapshot every run
// that tombs records as retired, checking that the tombstone keeps the run's
// status and error: what is left is what a restore from the snapshot keeps.
func forgetRetired(t testing.TB, st *State, tombs map[string]Tombstone) {
	t.Helper()
	for run, tb := range tombs {
		if rs, ok := st.Runs[run]; !ok || rs.Status != tb.Status || rs.Err != tb.Err {
			t.Fatalf("tombstone %s %+v does not match the replayed run %+v", run, tb, rs)
		}
		delete(st.Runs, run)
		delete(st.Specs, run)
		delete(st.Workflows, run)
	}
}

// checkpointDir builds a workload directory, checkpoints it (snapshot over
// the restored state), then appends a post-snapshot run. Returns the
// directory and the snapshot epoch.
func checkpointDir(t testing.TB, runs, steps int) (string, int) {
	t.Helper()
	dir := buildDir(t, Options{}, runs, steps)

	wal, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(wal, st)
	if err := wal.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	// Post-snapshot activity: one more run, stepped to completion.
	wal.AttachLog(st.Log)
	run := "post"
	if err := wal.AppendSpec(run, specDoc(t, run, steps), map[data.Key]data.Value{runKey(run): 0}); err != nil {
		t.Fatal(err)
	}
	prev := wlog.ReadObs{Value: 0, Writer: "", WriterPos: data.InitPos}
	for i := 0; i < steps; i++ {
		prev = stepEntry(t, st.Log, run, i, prev)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, snap.Epoch
}

func TestSnapshotBoundsReplay(t *testing.T) {
	dir, epoch := checkpointDir(t, 3, 4)

	st := reopen(t, dir, Options{})
	if st.Epoch != epoch {
		t.Fatalf("restored epoch %d, want %d", st.Epoch, epoch)
	}
	// Only the post-snapshot records replay: 1 spec + 4 entries.
	if st.ReplayedRecords != 5 {
		t.Errorf("replayed %d records, want 5 (snapshot must bound the replay)", st.ReplayedRecords)
	}
	if st.Log.Base() != epoch {
		t.Errorf("restored log based at %d, want snapshot epoch %d", st.Log.Base(), epoch)
	}
	if got := st.Log.Len() - st.Log.Base(); got != 4 {
		t.Errorf("restored log tail has %d entries, want 4", got)
	}
	// Runs retired before the snapshot come back as tombstones, without a
	// spec or a frontier; the post-snapshot run is live and has no history
	// beneath the epoch.
	for _, run := range []string{"r0", "r1", "r2"} {
		if tb, ok := st.Tombs[run]; !ok || tb.Status != RunDone {
			t.Errorf("run %s restored as tombstone %+v (%v), want a done tombstone", run, tb, ok)
		}
		if _, ok := st.Workflows[run]; ok {
			t.Errorf("tombstoned run %s still has a built spec", run)
		}
		if _, ok := st.Runs[run]; ok || st.PreEpoch[run] {
			t.Errorf("tombstoned run %s still has a frontier or a pre-epoch mark", run)
		}
	}
	if _, ok := st.Tombs["post"]; ok || st.PreEpoch["post"] {
		t.Error("post-snapshot run wrongly tombstoned or marked pre-epoch")
	}
	// The workload's un-acked alert survives the snapshot.
	if len(st.Alerts) != 1 {
		t.Errorf("restored %d pending alerts, want 1", len(st.Alerts))
	}
	// And the post-snapshot run's effects are present.
	if v := st.Store.Snapshot()[runKey("post")]; v != 4 {
		t.Errorf("post-snapshot run's key = %d, want 4", v)
	}
}

// TestSnapshotRestoreEqualsFullReplay: deleting the snapshot file from a
// directory copy forces a from-scratch replay of every record; both
// restores must agree on all state (modulo the compaction the snapshot
// legitimately applies).
func TestSnapshotRestoreEqualsFullReplay(t *testing.T) {
	dir, epoch := checkpointDir(t, 3, 4)
	bounded := reopen(t, copyDir(t, dir), Options{})

	full := copyDir(t, dir)
	nums, err := listNumbered(full, snapPrefix, snapSuffix)
	if err != nil || len(nums) != 1 {
		t.Fatalf("snapshot files: %v (%d)", err, len(nums))
	}
	if err := os.Remove(filepath.Join(full, snapName(nums[0]))); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, full, Options{})

	// The bounded restore compacted at the epoch; apply the same horizon
	// to the full replay before comparing chains.
	st.Store.CompactBefore(float64(epoch))
	if !data.Equal(bounded.Store, st.Store) {
		t.Fatalf("stores differ:\n%s", data.Diff(bounded.Store, st.Store))
	}
	// The full replay keeps every run; the bounded one keeps the runs live
	// at the snapshot and tombstones of the rest.
	forgetRetired(t, st, bounded.Tombs)
	if !reflect.DeepEqual(bounded.Runs, st.Runs) {
		t.Fatalf("run frontiers differ:\n bounded %+v\n full    %+v", bounded.Runs, st.Runs)
	}
	if !reflect.DeepEqual(bounded.Alerts, st.Alerts) {
		t.Fatalf("alerts differ: %+v vs %+v", bounded.Alerts, st.Alerts)
	}
	if !reflect.DeepEqual(bounded.Specs, st.Specs) {
		t.Fatal("specs differ")
	}
	// Log tails beyond the epoch must match entry for entry.
	var boundedTail, fullTail [][]byte
	bounded.Log.Range(func(e *wlog.Entry) bool {
		boundedTail = append(boundedTail, EncodeEntry(nil, e))
		return true
	})
	st.Log.Range(func(e *wlog.Entry) bool {
		if e.LSN > epoch {
			fullTail = append(fullTail, EncodeEntry(nil, e))
		}
		return true
	})
	if !reflect.DeepEqual(boundedTail, fullTail) {
		t.Fatalf("log tails differ: %d vs %d entries", len(boundedTail), len(fullTail))
	}
}

func TestSnapshotRetiresSegments(t *testing.T) {
	dir := buildDir(t, Options{SegmentBytes: 300}, 3, 4)

	wal, st, err := Open(dir, Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	before := wal.Segments()
	if before < 2 {
		t.Fatalf("need a multi-segment layout, got %d", before)
	}
	snap := snapshotOf(wal, st)
	if err := wal.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if after := wal.Segments(); after >= before {
		t.Errorf("snapshot retired nothing: %d segments before, %d after", before, after)
	}
	if wal.SnapshotEpoch() != snap.Epoch {
		t.Errorf("SnapshotEpoch = %d, want %d", wal.SnapshotEpoch(), snap.Epoch)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	// The retired layout still restores, to the same state.
	st2 := reopen(t, dir, Options{})
	if st2.Epoch != snap.Epoch {
		t.Errorf("restored epoch %d, want %d", st2.Epoch, snap.Epoch)
	}
	// Every run had retired before the checkpoint: it comes back as a
	// tombstone with the same status.
	forgetRetired(t, st, st2.Tombs)
	if len(st.Runs) != 0 || len(st2.Runs) != 0 {
		t.Errorf("runs left live across checkpoint:\n %+v\n %+v", st.Runs, st2.Runs)
	}

	// A second checkpoint supersedes the first: exactly one snapshot file
	// remains and the directory still restores.
	wal2, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap2 := snapshotOf(wal2, st2)
	if err := wal2.WriteSnapshot(snap2); err != nil {
		t.Fatal(err)
	}
	if err := wal2.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listNumbered(dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != snap2.Seq {
		t.Errorf("snapshot files after second checkpoint: %v, want just %d", snaps, snap2.Seq)
	}
	reopen(t, dir, Options{})
}

// TestCrashDuringSnapshotWrite: a temp snapshot file left by a crash must
// not poison the restore — the previous snapshot governs.
func TestCrashDuringSnapshotWrite(t *testing.T) {
	dir, _ := checkpointDir(t, 2, 3)
	want := reopen(t, copyDir(t, dir), Options{})

	cp := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(cp, snapName(999)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, reopen(t, cp, Options{}), "stray tmp snapshot")
}
