package cluster

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// repairStream is a stream whose last record repairs a forged write of x
// that runs r1 and r2 read: the repair rewrites those two — r1 branched on x,
// so it moves to the other branch; r2 stays where it was — and leaves r3,
// which read only z, alone; r4 has not started.
func repairStream() []Record {
	spec := func(name string, tasks ...wfjson.TaskJSON) Record {
		return Record{Kind: KindSpec, Run: name, Spec: &wfjson.SpecJSON{Name: name, Start: "t0", Tasks: tasks}}
	}
	task := func(id string, reads, writes []string, next ...string) wfjson.TaskJSON {
		return wfjson.TaskJSON{ID: id, Reads: reads, Writes: writes, Next: next, Bias: 1}
	}
	entry := func(lsn int, run, task string, reads map[data.Key]wlog.ReadObs, writes map[data.Key]data.Value) Record {
		return Record{Kind: KindEntry, Entry: &wlog.Entry{LSN: lsn, Run: run, Task: wf.TaskID(task), Visit: 1,
			Forged: run == "attacker", Reads: wlog.ReadsOf(reads), Writes: wlog.WritesOf(writes)}}
	}
	forged := wlog.ReadObs{Value: 999, Writer: "attacker/evil#1", WriterPos: 1}
	choice := task("t0", []string{"x"}, []string{"a"}, "lo", "hi")
	choice.Choose = &wfjson.ChooseJSON{Key: "x", Threshold: 500, Low: "lo", High: "hi"}
	recs := []Record{
		spec("r1", choice, task("lo", nil, []string{"b"}), task("hi", nil, []string{"c"})),
		spec("r2", task("t0", []string{"x"}, []string{"d"}, "t1"), task("t1", nil, []string{"e"})),
		spec("r3", task("t0", []string{"z"}, []string{"f"}, "t1"), task("t1", nil, []string{"g"})),
		spec("r4", task("t0", []string{"x"}, []string{"h"})),
		entry(1, "attacker", "evil", nil, map[data.Key]data.Value{"x": 999}),
		entry(2, "r1", "t0", map[data.Key]wlog.ReadObs{"x": forged}, map[data.Key]data.Value{"a": 1000}),
		entry(3, "r2", "t0", map[data.Key]wlog.ReadObs{"x": forged}, map[data.Key]data.Value{"d": 1000}),
		entry(4, "r3", "t0", map[data.Key]wlog.ReadObs{"z": {WriterPos: wlog.MissingPos}}, map[data.Key]data.Value{"f": 1}),
		{Kind: KindRepair, Bad: []wlog.InstanceID{"attacker/evil#1"}},
	}
	recs[5].Entry.Chosen = "hi" // x read 999: r1 took the high branch
	for i := range recs {
		recs[i].Seq = i + 1
	}
	return recs
}

// runPos is one run's frontier and visit counts on a replica.
type runPos struct {
	cur    wf.TaskID
	done   bool
	visits map[wf.TaskID]int
}

func posOf(rep *replica, run string) runPos {
	rs := rep.m.Run(run)
	return runPos{rs.Current(), rs.Done(), rs.VisitCounts()}
}

// TestRepairResyncsOnlyRewrittenRuns: a repair moves exactly the runs its
// schedule names onto their corrected frontiers — the frontiers and visit
// counts a resync of every registered run through Result.Frontier and the
// run's full trace gives — and leaves every other run's state as it was.
func TestRepairResyncsOnlyRewrittenRuns(t *testing.T) {
	recs := repairStream()
	rep := newReplica()
	for i := range recs[:len(recs)-1] {
		if ok, err := rep.Apply(&recs[i]); !ok || err != nil {
			t.Fatalf("record %d: applied %v, %v", i+1, ok, err)
		}
	}
	if cur, _, _, _ := rep.Frontier("r1"); cur != "hi" {
		t.Fatalf("r1 is at %s before the repair, want hi", cur)
	}
	untouched := make(map[string]runPos)
	for _, run := range []string{"r3", "r4"} {
		untouched[run] = posOf(rep, run)
	}

	// The resync the repair must reproduce, computed the old way: every
	// registered run asked through Frontier on the same repair result.
	specs := rep.m.Specs()
	res, err := recovery.Repair(rep.m.Store(), rep.m.Log(), specs, []wlog.InstanceID{"attacker/evil#1"},
		recovery.Options{Parallel: 1, ScopeToDamage: true})
	if err != nil {
		t.Fatal(err)
	}
	// The damage-scoped repair replays only the component the forged x
	// reaches, so its schedule names r1 and r2 — not r3, whose committed
	// instance lies in a clean component, nor r4, which committed nothing.
	fronts := res.Frontiers(specs)
	var named []string
	for run := range fronts {
		named = append(named, run)
	}
	if slices.Sort(named); !reflect.DeepEqual(named, []string{"r1", "r2"}) {
		t.Fatalf("the schedule names runs %v, want [r1 r2]", named)
	}
	want := make(map[string]runPos)
	for run, spec := range specs {
		cur, done, ok := res.Frontier(run, spec)
		if f, grouped := fronts[run]; ok != grouped || ok && f != (recovery.RunFrontier{Cur: cur, Done: done}) {
			t.Fatalf("run %s: Frontier says (%s, %v, %v), Frontiers %+v (%v)", run, cur, done, ok, f, grouped)
		}
		if !ok {
			continue
		}
		visits := make(map[wf.TaskID]int)
		for _, e := range rep.m.Log().Trace(run, true) {
			visits[e.Task] = max(visits[e.Task], e.Visit)
		}
		want[run] = runPos{cur, done, visits}
	}

	if ok, err := rep.Apply(&recs[len(recs)-1]); !ok || err != nil {
		t.Fatalf("repair record: applied %v, %v", ok, err)
	}
	if st := rep.tally.Counts(); st.Errors != 0 || st.Redone != 2 {
		t.Fatalf("repair stats %+v, want 2 redone and no error", st)
	}
	for run, w := range want {
		if got := posOf(rep, run); !reflect.DeepEqual(got, w) {
			t.Errorf("run %s resynced to %+v, want %+v", run, got, w)
		}
	}
	if cur, visit, done, _ := rep.Frontier("r1"); cur != "lo" || visit != 1 || done {
		t.Errorf("r1 frontier %s#%d (done %v), want lo#1: the corrected x takes the low branch", cur, visit, done)
	}
	for run, was := range untouched {
		if got := posOf(rep, run); !reflect.DeepEqual(got, was) {
			t.Errorf("the repair moved %s: %+v, was %+v", run, got, was)
		}
	}
}

// TestAdoptEqualsLegacyRepair is the differential check of repairing once:
// repairStream goes through two replicas. One applies the legacy repair
// record and computes the repair itself; the other is handed, at the same
// position, the adopt record the stamper's compute produced there, through
// the binary codec, and only installs it. Both end with the same capture,
// traces, frontiers and repair counts.
func TestAdoptEqualsLegacyRepair(t *testing.T) {
	recs := repairStream()
	legacy, follower, stamper := newReplica(), newReplica(), newReplica()
	for i := range recs[:len(recs)-1] {
		for _, rep := range []*replica{legacy, follower, stamper} {
			if ok, err := rep.Apply(&recs[i]); !ok || err != nil {
				t.Fatalf("record %d: applied %v, %v", i+1, ok, err)
			}
		}
	}
	last := &recs[len(recs)-1]
	if ok, err := legacy.Apply(last); !ok || err != nil {
		t.Fatalf("repair record: applied %v, %v", ok, err)
	}
	eff, err := stamper.repair(last.Bad)
	if err != nil {
		t.Fatal(err)
	}
	adopt, err := decodeRecord(encodeRecord(nil, &Record{Seq: last.Seq, Kind: KindAdopt, Adopt: &eff}))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := follower.Apply(adopt); !ok || err != nil {
		t.Fatalf("adopt record: applied %v, %v", ok, err)
	}

	if got, want := durable.EncodeSnapshot(follower.m.Capture()), durable.EncodeSnapshot(legacy.m.Capture()); !bytes.Equal(got, want) {
		t.Errorf("captures differ:\n adopt  %+v\n legacy %+v", follower.m.Capture(), legacy.m.Capture())
	}
	for _, run := range legacy.m.IDs() {
		if got, want := follower.m.Log().Trace(run, true), legacy.m.Log().Trace(run, true); !reflect.DeepEqual(got, want) {
			t.Errorf("run %s: trace %v after the adopt, %v after the legacy repair", run, got, want)
		}
		if got, want := posOf(follower, run), posOf(legacy, run); !reflect.DeepEqual(got, want) {
			t.Errorf("run %s: frontier %+v after the adopt, %+v after the legacy repair", run, got, want)
		}
	}
	got, want := follower.tally.Counts(), legacy.tally.Counts()
	if got.Units != 1 || got.Units != want.Units || got.Undone != want.Undone || got.Redone != want.Redone ||
		got.NewExecuted != want.NewExecuted || got.Errors != 0 || want.Errors != 0 {
		t.Errorf("repair counts %+v after the adopt, %+v after the legacy repair", got, want)
	}
	if err := follower.tab.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestActiveRunsMatchFullScan: the active runs — those the machine records
// live — follow every change of a run's done flag — registration, an entry
// completing a run, and a repair resync that completes one — and equal a
// scan of every registered run's frontier after each record. r5 took the forged branch (t0 → hi → hi2) and stands at
// hi2; the corrected x takes t0 → lo, an end, within the two actions r5 had
// committed, so the repair completes it. r6 completes on its own. The
// stream's other runs stay active, as repairStream describes.
func TestActiveRunsMatchFullScan(t *testing.T) {
	forged := wlog.ReadObs{Value: 999, Writer: "attacker/evil#1", WriterPos: 1}
	choice := wfjson.TaskJSON{ID: "t0", Reads: []string{"x"}, Writes: []string{"p"}, Next: []string{"lo", "hi"}, Bias: 1,
		Choose: &wfjson.ChooseJSON{Key: "x", Threshold: 500, Low: "lo", High: "hi"}}
	more := []Record{
		{Kind: KindSpec, Run: "r5", Spec: &wfjson.SpecJSON{Name: "r5", Start: "t0", Tasks: []wfjson.TaskJSON{choice,
			{ID: "lo", Writes: []string{"q"}}, {ID: "hi", Writes: []string{"s"}, Next: []string{"hi2"}}, {ID: "hi2", Writes: []string{"u"}}}}},
		{Kind: KindEntry, Entry: &wlog.Entry{Run: "r5", Task: "t0", Visit: 1, Chosen: "hi",
			Reads: wlog.ReadsOf(map[data.Key]wlog.ReadObs{"x": forged}), Writes: wlog.WritesOf(map[data.Key]data.Value{"p": 1000})}},
		{Kind: KindEntry, Entry: &wlog.Entry{Run: "r5", Task: "hi", Visit: 1, Writes: wlog.WritesOf(map[data.Key]data.Value{"s": 1})}},
		{Kind: KindSpec, Run: "r6", Spec: &wfjson.SpecJSON{Name: "r6", Start: "t0", Tasks: []wfjson.TaskJSON{{ID: "t0", Writes: []string{"v"}}}}},
		{Kind: KindEntry, Entry: &wlog.Entry{Run: "r6", Task: "t0", Visit: 1, Writes: wlog.WritesOf(map[data.Key]data.Value{"v": 0})}},
	}
	base := repairStream()
	recs := append(append(base[:len(base)-1:len(base)-1], more...), base[len(base)-1])
	rep := newReplica()
	for i := range recs {
		recs[i].Seq = i + 1
		if e := recs[i].Entry; e != nil {
			e.LSN = 0 // the replica assigns them; the spliced stream moved some
		}
		if ok, err := rep.Apply(&recs[i]); !ok || err != nil {
			t.Fatalf("record %d: applied %v, %v", i+1, ok, err)
		}
		var scan []string
		for _, id := range rep.m.IDs() {
			if _, _, done, _ := rep.Frontier(id); !done {
				scan = append(scan, id)
			}
		}
		if got := rep.m.Live(); !reflect.DeepEqual(got, scan) {
			t.Fatalf("after record %d (%s): ActiveRuns = %v, a scan of the frontiers %v", i+1, recs[i].Kind, got, scan)
		}
		if i == len(recs)-2 {
			if got, want := rep.m.Live(), []string{"r1", "r2", "r3", "r4", "r5"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("ActiveRuns before the repair = %v, want %v", got, want)
			}
		}
	}
	if done, _ := rep.RunDone("r5"); !done {
		t.Fatal("the repair did not complete r5 on its corrected path")
	}
	if got, want := rep.m.Live(), []string{"r1", "r2", "r3", "r4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveRuns = %v, want %v", got, want)
	}
	if err := rep.tab.Check(); err != nil {
		t.Fatal(err)
	}
}
