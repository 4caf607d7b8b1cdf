package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wlog"
)

// snapshotOf returns a snapshot covering every record wal holds: its
// position and entry horizon, and the pending alerts, which a snapshot must
// carry. The state a checkpoint captures beside them is the machine's; the
// shard layer's tests boot from real ones.
func snapshotOf(wal *WAL, st *State) *Snapshot {
	snap := &Snapshot{Seq: wal.Seq(), Epoch: wal.LastLSN(), Alerts: make(map[uint64][]wlog.InstanceID, len(st.Alerts))}
	for _, pa := range st.Alerts {
		snap.Alerts[pa.ID] = pa.Bad
	}
	return snap
}

// checkpointDir builds a workload directory, checkpoints it, then appends a
// post-snapshot run. Returns the directory and the snapshot epoch.
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
	log := wlog.NewAt(snap.Epoch)
	wal.AttachLog(log)
	run := "post"
	if err := wal.AppendSpec(run, specDoc(t, run, steps), map[data.Key]data.Value{runKey(run): 0}); err != nil {
		t.Fatal(err)
	}
	prev := wlog.ReadObs{Value: 0, Writer: "", WriterPos: data.InitPos}
	for i := 0; i < steps; i++ {
		prev = stepEntry(t, log, run, i, prev)
	}
	if err := wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, snap.Epoch
}

// TestSnapshotBoundsReplay: Open decodes only the records past the
// snapshot — the post-snapshot run's spec record and its entries, at the
// LSNs after the epoch — and the snapshot carries the pending alert. What
// they restore to is asserted in internal/shard (TestBootBoundsReplay).
func TestSnapshotBoundsReplay(t *testing.T) {
	dir, epoch := checkpointDir(t, 3, 4)

	st, replayed := reopen(t, dir, Options{})
	if st.Snapshot == nil || st.Snapshot.Epoch != epoch {
		t.Fatalf("recovered snapshot %+v, want one at epoch %d", st.Snapshot, epoch)
	}
	// Only the post-snapshot records replay: 1 spec + 4 entries.
	if replayed != 5 || len(st.Records) != 5 {
		t.Errorf("replayed %d records (%d state records), want 5 (snapshot must bound the replay)", replayed, len(st.Records))
	}
	if st.Records[0].Run != "post" || st.Records[0].Spec == nil {
		t.Errorf("first record past the snapshot = %+v, want post's spec record", st.Records[0])
	}
	for i, e := range entryRecords(st.Records) {
		if e.LSN != epoch+1+i || e.Run != "post" {
			t.Errorf("entry %d past the snapshot is %s at LSN %d, want post's at %d", i, e.ID(), e.LSN, epoch+1+i)
		}
	}
	// The workload's un-acked alert survives the snapshot.
	if len(st.Alerts) != 1 {
		t.Errorf("restored %d pending alerts, want 1", len(st.Alerts))
	}
}

// TestSnapshotRestoreEqualsFullReplay: deleting the snapshot file from a
// directory copy makes Open hand back every record from the start; the
// records past the snapshot are the bounded recovery's, and the pending
// alerts agree. The states both restore to are compared in internal/shard
// (TestBootFromSnapshotEqualsFullReplay).
func TestSnapshotRestoreEqualsFullReplay(t *testing.T) {
	dir, epoch := checkpointDir(t, 3, 4)
	bounded := recovered(t, copyDir(t, dir))

	full := copyDir(t, dir)
	nums, err := listNumbered(full, snapPrefix, snapSuffix)
	if err != nil || len(nums) != 1 {
		t.Fatalf("snapshot files: %v (%d)", err, len(nums))
	}
	if err := os.Remove(filepath.Join(full, snapName(nums[0]))); err != nil {
		t.Fatal(err)
	}
	st := recovered(t, full)
	if st.Snapshot != nil {
		t.Fatal("the snapshot file is gone, but Open found a snapshot")
	}
	if n := len(entryRecords(st.Records)) - len(entryRecords(bounded.Records)); n != epoch {
		t.Fatalf("the full replay holds %d entries beneath the bounded one's, want the epoch's %d", n, epoch)
	}
	if tail := st.Records[len(st.Records)-len(bounded.Records):]; !reflect.DeepEqual(tail, bounded.Records) {
		t.Fatalf("records past the snapshot differ: %+v vs %+v", tail, bounded.Records)
	}
	if !reflect.DeepEqual(bounded.Alerts, st.Alerts) {
		t.Fatalf("alerts differ: %+v vs %+v", bounded.Alerts, st.Alerts)
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
	// The retired layout still opens, to the snapshot and nothing past it.
	st2 := recovered(t, dir)
	if st2.Snapshot == nil || st2.Snapshot.Epoch != snap.Epoch || len(st2.Records) != 0 {
		t.Errorf("recovered snapshot %+v and %d records, want the snapshot at epoch %d alone", st2.Snapshot, len(st2.Records), snap.Epoch)
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
	recovered(t, dir)
}

// TestCrashDuringSnapshotWrite: a temp snapshot file left by a crash must
// not poison the restore — the previous snapshot governs.
func TestCrashDuringSnapshotWrite(t *testing.T) {
	dir, _ := checkpointDir(t, 2, 3)
	want := recovered(t, copyDir(t, dir))

	cp := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(cp, snapName(999)+".tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, recovered(t, cp), "stray tmp snapshot")
}
