package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/obs"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// --- workload helpers ---------------------------------------------------

// runKey is the single data key a workload run reads and writes.
func runKey(run string) data.Key { return data.Key("k-" + run) }

// specDoc builds a linear workflow document t0 → t1 → … → t{n-1}, every
// task reading and writing the run's own key.
func specDoc(t testing.TB, run string, tasks int) []byte {
	t.Helper()
	sj := wfjson.SpecJSON{Name: run, Start: "t0"}
	for i := 0; i < tasks; i++ {
		tj := wfjson.TaskJSON{
			ID:     fmt.Sprintf("t%d", i),
			Reads:  []string{string(runKey(run))},
			Writes: []string{string(runKey(run))},
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

// stepEntry appends one committed step of run to the log (the attached WAL
// hook enqueues its record). prev is the previous write's observation.
func stepEntry(t testing.TB, log *wlog.Log, run string, step int, prev wlog.ReadObs) wlog.ReadObs {
	t.Helper()
	k := runKey(run)
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

// workload drives a WAL through the full record vocabulary, logging log's
// entries: R runs registered with spec records, steps of committed entries,
// two alerts (one acked), and one adopt record rewriting run r0's chain. It
// returns without closing wal so tests can keep appending.
func workload(t testing.TB, wal *WAL, log *wlog.Log, runs, steps int) {
	t.Helper()
	wal.AttachLog(log)
	for r := 0; r < runs; r++ {
		run := fmt.Sprintf("r%d", r)
		if err := wal.AppendSpec(run, specDoc(t, run, steps), map[data.Key]data.Value{runKey(run): 0}); err != nil {
			t.Fatalf("AppendSpec %s: %v", run, err)
		}
		prev := wlog.ReadObs{Value: 0, Writer: "", WriterPos: data.InitPos}
		for i := 0; i < steps; i++ {
			prev = stepEntry(t, log, run, i, prev)
		}
		// Per-run durability point: forces a flush boundary so small
		// SegmentBytes options actually rotate between batches.
		if err := wal.Sync(); err != nil {
			t.Fatalf("Sync after %s: %v", run, err)
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
	fronts := []RunFrontier{{Run: "r0", Cur: wf.TaskID(fmt.Sprintf("t%d", steps-1)), Done: true}}
	if err := wal.AppendAdopt(Adopt{Fronts: fronts, Chains: map[data.Key][]data.Version{runKey("r0"): chain}}); err != nil {
		t.Fatalf("AppendAdopt: %v", err)
	}
	if err := wal.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// buildDir creates a WAL directory holding the standard workload.
func buildDir(t testing.TB, opts Options, runs, steps int) string {
	t.Helper()
	dir := t.TempDir()
	wal, _, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	workload(t, wal, wlog.New(), runs, steps)
	if err := wal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// reopen recovers a WAL directory and immediately closes the WAL, handing
// back what Open recovered and how many records it decoded past the
// snapshot.
func reopen(t testing.TB, dir string, opts Options) (*State, int) {
	t.Helper()
	wal, st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	if err := wal.Close(); err != nil {
		t.Fatalf("close %s: %v", dir, err)
	}
	replayed, _ := wal.Replayed()
	return st, replayed
}

// recovered is reopen's State alone.
func recovered(t testing.TB, dir string) *State {
	t.Helper()
	st, _ := reopen(t, dir, Options{})
	return st
}

// mustEqualStates fails unless two recoveries found the same snapshot, the
// same records past it and the same pending alerts.
func mustEqualStates(t testing.TB, want, got *State, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Snapshot, got.Snapshot) {
		t.Fatalf("%s: snapshots differ", label)
	}
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Fatalf("%s: records differ (%d vs %d)", label, len(want.Records), len(got.Records))
	}
	if !reflect.DeepEqual(want.Alerts, got.Alerts) {
		t.Fatalf("%s: alerts differ:\n want %+v\n got  %+v", label, want.Alerts, got.Alerts)
	}
}

// entryRecords returns the entries among records, in order.
func entryRecords(records []Record) []*wlog.Entry {
	var out []*wlog.Entry
	for _, r := range records {
		if r.Entry != nil {
			out = append(out, r.Entry)
		}
	}
	return out
}

// copyDir clones a WAL directory into a fresh temp dir.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// --- tests ---------------------------------------------------------------

// TestRestoreAfterCleanClose: Open recovers every record the workload wrote
// in order — each run's spec record with its seeded key, its entries at
// dense LSNs, the adopt record last — and settles the alerts: alert 1 was
// acked, alert 2 is pending. The state they restore to is asserted in
// internal/shard (TestBootAfterCleanClose).
func TestRestoreAfterCleanClose(t *testing.T) {
	st, replayed := reopen(t, buildDir(t, Options{}, 3, 4), Options{})
	if st.Snapshot != nil {
		t.Fatalf("no checkpoint was written, but Open found snapshot %d", st.Snapshot.Seq)
	}
	// 3 × (spec + 4 entries), 2 alerts, an ack and an adopt.
	if replayed != 19 || len(st.Records) != 16 {
		t.Fatalf("decoded %d records, %d of them state records; want 19 and 16", replayed, len(st.Records))
	}
	lsn := 0
	for r := 0; r < 3; r++ {
		run := fmt.Sprintf("r%d", r)
		spec := st.Records[5*r]
		if spec.Run != run || spec.Spec == nil || !reflect.DeepEqual(spec.Spec.Init, map[data.Key]data.Value{runKey(run): 0}) {
			t.Fatalf("record %d = %+v, want %s's spec record seeding %s", 5*r, spec, run, runKey(run))
		}
		for i, rec := range st.Records[5*r+1 : 5*r+5] {
			lsn++
			if e := rec.Entry; e == nil || e.LSN != lsn || e.Run != run || e.Task != wf.TaskID(fmt.Sprintf("t%d", i)) {
				t.Fatalf("record %d = %+v, want %s's step %d at LSN %d", 5*r+1+i, rec, run, i, lsn)
			}
		}
	}
	if a := st.Records[15].Adopt; a == nil || len(a.Fronts) != 1 || a.Fronts[0].Run != "r0" || a.Chains[runKey("r0")][1].Value != 41 {
		t.Fatalf("last record = %+v, want r0's adopt record", st.Records[15])
	}
	// Alert 2 was never acked; alert 1 was.
	if len(st.Alerts) != 1 {
		t.Fatalf("restored %d pending alerts, want 1: %+v", len(st.Alerts), st.Alerts)
	}
	if got := st.Alerts[0].Bad[0]; got != wlog.FormatInstance("r0", "t1", 1) {
		t.Errorf("pending alert names %s", got)
	}
}

func TestRestoreIsDeterministic(t *testing.T) {
	dir := buildDir(t, Options{}, 3, 5)
	mustEqualStates(t, recovered(t, dir), recovered(t, dir), "repeated restore")
}

func TestSegmentRotation(t *testing.T) {
	dir := buildDir(t, Options{SegmentBytes: 256}, 3, 6)
	segs, err := listNumbered(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("SegmentBytes=256 produced %d segments, want several", len(segs))
	}
	// Rotated layout recovers identically to a single-segment layout of
	// the same records.
	mustEqualStates(t, recovered(t, buildDir(t, Options{}, 3, 6)), recovered(t, dir), "rotated vs single segment")
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := wal.AppendAlert(nil); err != ErrClosed {
		t.Errorf("AppendAlert after close: %v, want ErrClosed", err)
	}
	if err := wal.AppendAck(nil); err != ErrClosed {
		t.Errorf("AppendAck after close: %v, want ErrClosed", err)
	}
	if err := wal.AppendSpec("r", nil, nil); err != ErrClosed {
		t.Errorf("AppendSpec after close: %v, want ErrClosed", err)
	}
	if err := wal.AppendAdopt(Adopt{}); err != ErrClosed {
		t.Errorf("AppendAdopt after close: %v, want ErrClosed", err)
	}
	if err := wal.Sync(); err != ErrClosed {
		t.Errorf("Sync after close: %v, want ErrClosed", err)
	}
}

// TestGroupCommitAbsorption proves the fsync amortization: many concurrent
// committers, each demanding durability, complete with far fewer flushes
// than records.
func TestGroupCommitAbsorption(t *testing.T) {
	dir := t.TempDir()
	wal, _, err := Open(dir, Options{GroupWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wal.Observe(reg)
	log := wlog.New()
	wal.AttachLog(log)

	const committers = 32
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(committers)
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			_, err := log.Append(&wlog.Entry{
				Run: "", Task: wf.TaskID(fmt.Sprintf("bg%d", i)), Visit: 1, Forged: true,
				Writes: wlog.WritesOf(map[data.Key]data.Value{data.Key(fmt.Sprintf("g%d", i)): 1}),
			})
			if err == nil {
				err = wal.Sync()
			}
			errs[i] = err
		}(i)
	}
	start.Done()
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	flushes := snap[obs.MWalGroupEntries+"_count"]
	records := snap[obs.MWalGroupEntries+"_sum"]
	if records < committers {
		t.Fatalf("flushed %v records, want at least %d", records, committers)
	}
	if flushes >= committers {
		t.Errorf("%v flushes for %d concurrent committers — no group-commit absorption", flushes, committers)
	}
	t.Logf("group commit: %v records in %v flushes (%.1f per fsync)", records, flushes, float64(records)/float64(flushes))
}

func TestObserveReportsReplayAndSegments(t *testing.T) {
	dir := buildDir(t, Options{SegmentBytes: 256}, 2, 5)
	wal, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	reg := obs.NewRegistry()
	wal.Observe(reg)
	snap := reg.Snapshot()
	if n := snap[obs.MWalReplayedRecords]; n == 0 {
		t.Error("wal_replayed_records_total is 0 after a non-trivial restore")
	}
	if s := snap[obs.MWalSegments]; s < 2 {
		t.Errorf("wal_segments = %v, want the rotated layout's count", s)
	}
	records, d := wal.Replayed()
	if records == 0 || d <= 0 {
		t.Errorf("Replayed() = (%d, %v), want nonzero", records, d)
	}
}
