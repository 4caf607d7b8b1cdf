package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/machine"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// The WAL fixtures of internal/durable's tests, written the same way — spec,
// entry, alert, ack and adopt records through the WAL's own API — and booted
// through NewDurable. internal/durable asserts what Open recovers from them,
// the snapshot and the records past it; the state those records turn into is
// the machine's, and is asserted here.

// fixtureKey is the single data key a fixture run reads and writes.
func fixtureKey(run string) data.Key { return data.Key("k-" + run) }

// fixtureDoc builds a linear workflow document t0 → t1 → … → t{n-1}, every
// task reading and writing the run's own key.
func fixtureDoc(t testing.TB, run string, tasks int) []byte {
	t.Helper()
	sj := wfjson.SpecJSON{Name: run, Start: "t0"}
	for i := 0; i < tasks; i++ {
		tj := wfjson.TaskJSON{
			ID:     fmt.Sprintf("t%d", i),
			Reads:  []string{string(fixtureKey(run))},
			Writes: []string{string(fixtureKey(run))},
			Bias:   1,
		}
		if i+1 < tasks {
			tj.Next = []string{fmt.Sprintf("t%d", i+1)}
		}
		sj.Tasks = append(sj.Tasks, tj)
	}
	doc, err := json.Marshal(&sj)
	if err != nil {
		t.Fatalf("marshal spec %s: %v", run, err)
	}
	return doc
}

// fixtureStep appends one committed step of run to the log (the attached
// WAL hook enqueues its record). prev is the previous write's observation.
func fixtureStep(t testing.TB, log *wlog.Log, run string, step int, prev wlog.ReadObs) wlog.ReadObs {
	t.Helper()
	k := fixtureKey(run)
	e := &wlog.Entry{
		Run:    run,
		Task:   wf.TaskID(fmt.Sprintf("t%d", step)),
		Visit:  1,
		Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{k: prev}),
		Writes: wlog.WritesOf(map[data.Key]data.Value{k: prev.Value + 1}),
	}
	lsn, err := log.Append(e)
	if err != nil {
		t.Fatalf("append %s step %d: %v", run, step, err)
	}
	return wlog.ReadObs{Value: prev.Value + 1, Writer: string(e.ID()), WriterPos: float64(lsn)}
}

// fixtureRun registers run with a spec record seeding its key and steps it
// to completion through log.
func fixtureRun(t testing.TB, wal *durable.WAL, log *wlog.Log, run string, steps int) {
	t.Helper()
	if err := wal.AppendSpec(run, fixtureDoc(t, run, steps), map[data.Key]data.Value{fixtureKey(run): 0}); err != nil {
		t.Fatalf("AppendSpec %s: %v", run, err)
	}
	prev := wlog.ReadObs{Value: 0, Writer: "", WriterPos: data.InitPos}
	for i := 0; i < steps; i++ {
		prev = fixtureStep(t, log, run, i, prev)
	}
}

// fixtureWorkload drives a WAL through the full record vocabulary, logging
// log's entries: runs registered with spec records and stepped to
// completion, two alerts (one acked), and one adopt record rewriting run
// r0's chain. It returns without closing wal.
func fixtureWorkload(t testing.TB, wal *durable.WAL, log *wlog.Log, runs, steps int) {
	t.Helper()
	wal.AttachLog(log)
	for r := 0; r < runs; r++ {
		fixtureRun(t, wal, log, fmt.Sprintf("r%d", r), steps)
		// Per-run durability point: forces a flush boundary so small
		// SegmentBytes options actually rotate between batches.
		if err := wal.Sync(); err != nil {
			t.Fatalf("Sync after r%d: %v", r, err)
		}
	}
	id1, err := wal.AppendAlert([]wlog.InstanceID{wlog.FormatInstance("r0", "t0", 1)})
	if err != nil {
		t.Fatalf("AppendAlert: %v", err)
	}
	if _, err := wal.AppendAlert([]wlog.InstanceID{wlog.FormatInstance("r0", "t1", 1)}); err != nil {
		t.Fatalf("AppendAlert: %v", err)
	}
	if err := wal.AppendAck([]uint64{id1}); err != nil {
		t.Fatalf("AppendAck: %v", err)
	}
	// A repair-style adopt: rewrite r0's chain and complete the run.
	chain := []data.Version{
		{Pos: data.InitPos, Value: 0},
		{Pos: 1, Writer: "recovery", Value: 41, Recovery: true},
	}
	fronts := []durable.RunFrontier{{Run: "r0", Cur: wf.TaskID(fmt.Sprintf("t%d", steps-1)), Done: true}}
	if err := wal.AppendAdopt(durable.Adopt{Fronts: fronts, Chains: map[data.Key][]data.Version{fixtureKey("r0"): chain}}); err != nil {
		t.Fatalf("AppendAdopt: %v", err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// fixtureDir creates a WAL directory holding the standard workload.
func fixtureDir(t testing.TB, opts durable.Options, runs, steps int) string {
	t.Helper()
	dir := t.TempDir()
	wal, _, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	fixtureWorkload(t, wal, wlog.New(), runs, steps)
	if err := wal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// fixtureCheckpoint builds a workload directory, checkpoints it — the
// snapshot a service booted there captures — and then logs one more run,
// stepped to completion past the snapshot. It returns the directory and the
// snapshot's epoch.
func fixtureCheckpoint(t testing.TB, runs, steps int) (string, int) {
	t.Helper()
	dir := fixtureDir(t, durable.Options{}, runs, steps)
	svc, err := NewDurable(Config{}, dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := svc.gatherSnapshot()
	if err := svc.wal.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := svc.wal.Close(); err != nil {
		t.Fatal(err)
	}

	wal, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := wlog.NewAt(snap.Epoch)
	wal.AttachLog(log)
	fixtureRun(t, wal, log, "post", steps)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, snap.Epoch
}

// restoreDir boots a service on dir and never starts it: the state a restart
// there rebuilds, inspected rather than run. Its WAL closes with the test.
func restoreDir(t testing.TB, dir string) *Service {
	t.Helper()
	svc, err := NewDurable(Config{}, dir, durable.Options{})
	if err != nil {
		t.Fatalf("restoring %s: %v", dir, err)
	}
	t.Cleanup(func() { _ = svc.wal.Close() })
	if err := svc.Store().CheckIndex(); err != nil {
		t.Fatalf("restored store index: %v", err)
	}
	return svc
}

// encodedEntries returns the log's entries re-encoded, for order-sensitive
// byte comparison.
func encodedEntries(l *wlog.Log) [][]byte {
	var out [][]byte
	l.Range(func(e *wlog.Entry) bool {
		out = append(out, durable.EncodeEntry(nil, e))
		return true
	})
	return out
}

// mustEqualBoots fails unless two booted services hold the same state: the
// horizon, store, log, graph frontier, run frontiers, tombstones, pre-epoch
// runs, registrations and pending alerts.
func mustEqualBoots(t testing.TB, want, got *Service, label string) {
	t.Helper()
	if w, g := want.m.Epoch(), got.m.Epoch(); w != g {
		t.Fatalf("%s: epoch %d != %d", label, g, w)
	}
	if !data.Equal(want.Store(), got.Store()) {
		t.Fatalf("%s: stores differ:\n%s", label, data.Diff(want.Store(), got.Store()))
	}
	if w, g := encodedEntries(want.Log()), encodedEntries(got.Log()); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: logs differ (%d vs %d entries)", label, len(w), len(g))
	}
	wc, gc := want.m.Capture(), got.m.Capture()
	if !reflect.DeepEqual(wc.Runs, gc.Runs) {
		t.Fatalf("%s: run frontiers differ:\n want %+v\n got  %+v", label, wc.Runs, gc.Runs)
	}
	if !reflect.DeepEqual(wc.Tombs, gc.Tombs) {
		t.Fatalf("%s: tombstones differ:\n want %+v\n got  %+v", label, wc.Tombs, gc.Tombs)
	}
	if w, g := want.m.PreEpoch(), got.m.PreEpoch(); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: pre-epoch run sets differ: want %v, got %v", label, w, g)
	}
	if !reflect.DeepEqual(want.specStates, got.specStates) {
		t.Fatalf("%s: specs differ", label)
	}
	if !reflect.DeepEqual(want.restoredAlerts, got.restoredAlerts) {
		t.Fatalf("%s: alerts differ:\n want %+v\n got  %+v", label, want.restoredAlerts, got.restoredAlerts)
	}
	if !reflect.DeepEqual(want.graph.Frontier(), got.graph.Frontier()) {
		t.Fatalf("%s: graph frontiers differ", label)
	}
}

// finalSegment returns the path of a WAL directory's highest-numbered
// segment.
func finalSegment(t testing.TB, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments in %s: %v (%d found)", dir, err, len(segs))
	}
	return segs[len(segs)-1]
}

// TestBootAfterCleanClose: every record of the workload reaches the state
// through the machine — the log holds every entry, r0's adopt record
// rewrote its chain, every run is done and the unacked alert is pending.
func TestBootAfterCleanClose(t *testing.T) {
	st := restoreDir(t, fixtureDir(t, durable.Options{}, 3, 4))

	if st.Log().Len() != 12 {
		t.Errorf("restored log has %d entries, want 12", st.Log().Len())
	}
	snap := st.Store().Snapshot()
	for _, run := range []string{"r1", "r2"} {
		if v := snap[fixtureKey(run)]; v != 4 {
			t.Errorf("restored %s = %d, want 4", fixtureKey(run), v)
		}
	}
	if v := snap[fixtureKey("r0")]; v != 41 {
		t.Errorf("adopted chain value = %d, want 41", v)
	}
	if ids := st.m.IDs(); len(ids) != 3 {
		t.Errorf("restored runs %v, want r0, r1 and r2", ids)
	}
	for _, run := range st.m.IDs() {
		if status, _, _ := st.m.Status(run); status != machine.Done {
			t.Errorf("run %s restored as %s, want done", run, status)
		}
	}
	// Alert 2 was never acked; alert 1 was.
	if len(st.restoredAlerts) != 1 {
		t.Fatalf("restored %d pending alerts, want 1: %+v", len(st.restoredAlerts), st.restoredAlerts)
	}
	if got := st.restoredAlerts[0].Bad[0]; got != wlog.FormatInstance("r0", "t1", 1) {
		t.Errorf("pending alert names %s", got)
	}
	if pre := st.m.PreEpoch(); len(pre) != 0 {
		t.Errorf("no snapshot yet, but pre-epoch runs %v", pre)
	}
}

// TestBootIsDeterministic: booting the same directory twice, or the same
// records laid out in rotated segments, rebuilds the same state.
func TestBootIsDeterministic(t *testing.T) {
	dir := fixtureDir(t, durable.Options{}, 3, 5)
	mustEqualBoots(t, restoreDir(t, dir), restoreDir(t, dir), "repeated restore")
	rotated := fixtureDir(t, durable.Options{SegmentBytes: 256}, 3, 5)
	if segs, _ := filepath.Glob(filepath.Join(rotated, "wal-*.seg")); len(segs) < 2 {
		t.Fatalf("SegmentBytes=256 produced %d segments, want several", len(segs))
	}
	mustEqualBoots(t, restoreDir(t, dir), restoreDir(t, rotated), "rotated vs single segment")
}

// TestBootBoundsReplay: a boot from a snapshot applies only the records past
// it; the runs retired before the snapshot come back as tombstones, the run
// logged after it is live state with no history beneath the epoch.
func TestBootBoundsReplay(t *testing.T) {
	dir, epoch := fixtureCheckpoint(t, 3, 4)
	st := restoreDir(t, dir)
	if st.m.Epoch() != epoch {
		t.Fatalf("restored epoch %d, want %d", st.m.Epoch(), epoch)
	}
	// Only the post-snapshot records replay: 1 spec + 4 entries.
	if records, _ := st.ReplayStats(); records != 5 {
		t.Errorf("replayed %d records, want 5 (snapshot must bound the replay)", records)
	}
	if st.Log().Base() != epoch {
		t.Errorf("restored log based at %d, want snapshot epoch %d", st.Log().Base(), epoch)
	}
	if got := st.Log().Len() - st.Log().Base(); got != 4 {
		t.Errorf("restored log tail has %d entries, want 4", got)
	}
	pre := st.m.PreEpoch()
	for _, run := range []string{"r0", "r1", "r2"} {
		if status, ok := st.m.Buried(run); !ok || status != machine.Done {
			t.Errorf("run %s restored as tombstone %s (%v), want a done tombstone", run, status, ok)
		}
		if st.m.Spec(run) != nil {
			t.Errorf("tombstoned run %s still has a built spec", run)
		}
		if st.m.Run(run) != nil || pre[run] {
			t.Errorf("tombstoned run %s still has a frontier or a pre-epoch mark", run)
		}
	}
	if _, ok := st.m.Buried("post"); ok || pre["post"] {
		t.Error("post-snapshot run wrongly tombstoned or marked pre-epoch")
	}
	// The workload's un-acked alert survives the snapshot.
	if len(st.restoredAlerts) != 1 {
		t.Errorf("restored %d pending alerts, want 1", len(st.restoredAlerts))
	}
	if v := st.Store().Snapshot()[fixtureKey("post")]; v != 4 {
		t.Errorf("post-snapshot run's key = %d, want 4", v)
	}
}

// TestBootFromSnapshotEqualsFullReplay: deleting the snapshot file from a
// directory copy forces a replay of every record from the start; both boots
// must agree on all state, but for the compaction and the burials the
// snapshot legitimately applies.
func TestBootFromSnapshotEqualsFullReplay(t *testing.T) {
	dir, epoch := fixtureCheckpoint(t, 3, 4)
	cp, full := t.TempDir(), t.TempDir()
	copyTree(t, dir, cp)
	copyTree(t, dir, full)
	snaps, err := filepath.Glob(filepath.Join(full, "snap-*"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files: %v (%d)", err, len(snaps))
	}
	if err := os.Remove(snaps[0]); err != nil {
		t.Fatal(err)
	}
	bounded, st := restoreDir(t, cp), restoreDir(t, full)

	// The bounded restore compacted at the epoch; apply the same horizon
	// to the full replay before comparing chains.
	st.Store().CompactBefore(float64(epoch))
	if !data.Equal(bounded.Store(), st.Store()) {
		t.Fatalf("stores differ:\n%s", data.Diff(bounded.Store(), st.Store()))
	}
	// The full replay keeps every run; the bounded one keeps the runs live
	// at the snapshot and tombstones of the rest, with the same status.
	tombs := bounded.m.Tombs()
	for run, tb := range tombs {
		if status, msg, ok := st.m.Status(run); !ok || status.String() != tb.Status || msg != tb.Err {
			t.Fatalf("tombstone %s %+v does not match the replayed run (%s %q, known %v)", run, tb, status, msg, ok)
		}
	}
	b, f := bounded.m.Capture(), st.m.Capture()
	if !reflect.DeepEqual(b.Runs, f.Runs) || !reflect.DeepEqual(b.Tombs, f.Tombs) {
		t.Fatalf("run frontiers differ:\n bounded %+v %+v\n full    %+v %+v", b.Runs, b.Tombs, f.Runs, f.Tombs)
	}
	if !reflect.DeepEqual(bounded.restoredAlerts, st.restoredAlerts) {
		t.Fatalf("alerts differ: %+v vs %+v", bounded.restoredAlerts, st.restoredAlerts)
	}
	if !reflect.DeepEqual(bounded.specStates, machine.Prune(st.specStates, tombs)) {
		t.Fatal("specs differ")
	}
	// Log tails beyond the epoch must match entry for entry.
	fullTail := encodedEntries(st.Log())[epoch:]
	if boundedTail := encodedEntries(bounded.Log()); !reflect.DeepEqual(boundedTail, fullTail) {
		t.Fatalf("log tails differ: %d vs %d entries", len(boundedTail), len(fullTail))
	}
}

// TestBootAfterTornTail: a final segment that ends in garbage boots to the
// clean directory's state, and one torn mid-record, then written on by a
// restarted process, boots to a consistent store.
func TestBootAfterTornTail(t *testing.T) {
	dir := fixtureDir(t, durable.Options{}, 2, 3)
	seg := finalSegment(t, dir)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	want := restoreDir(t, dir)

	garbage := t.TempDir()
	copyTree(t, dir, garbage)
	tail := append(append([]byte(nil), b...), 0xde, 0xad, 0xbe, 0xef, 0x01)
	if err := os.WriteFile(filepath.Join(garbage, filepath.Base(seg)), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	mustEqualBoots(t, want, restoreDir(t, garbage), "garbage tail")

	// Tear half the final record off, resume, and log the alert, ack and
	// adopt block again.
	torn := t.TempDir()
	copyTree(t, dir, torn)
	payloads, _ := durable.SplitFrames(b)
	last := len(b) - durable.FrameHeader - len(payloads[len(payloads)-1])
	if err := os.Truncate(filepath.Join(torn, filepath.Base(seg)), int64(last+(len(b)-last)/2)); err != nil {
		t.Fatal(err)
	}
	wal, _, err := durable.Open(torn, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	fixtureWorkload(t, wal, wlog.New(), 0, 0)
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if got := restoreDir(t, torn).Store().Snapshot()[fixtureKey("r0")]; got != 41 {
		t.Errorf("r0's key after the resumed adopt = %d, want 41", got)
	}
}

// TestInitAfterWriteRefused: a spec record that seeds a key an earlier
// record already wrote cannot come from a live service, which seeds initial
// values exclusive with group commits; the boot refuses it with
// ErrStreamOrder rather than let the machine's first-writer-wins Init skip
// the key and diverge from the store that ran.
func TestInitAfterWriteRefused(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := wlog.New()
	fixtureWorkload(t, wal, log, 1, 2)
	// r0 wrote k-r0; a second run's spec record claims to have seeded it.
	if err := wal.AppendSpec("late", fixtureDoc(t, "late", 2), map[data.Key]data.Value{fixtureKey("r0"): 5}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if svc, err := NewDurable(Config{}, dir, durable.Options{}); !errors.Is(err, ErrStreamOrder) {
		if err == nil {
			_ = svc.wal.Close()
		}
		t.Fatalf("booting a WAL whose init follows a write to its key = %v, want ErrStreamOrder", err)
	}
}
