package engine_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

func newFig1Engine(t *testing.T) (*engine.Engine, *engine.Run, *engine.Run) {
	t.Helper()
	wf1, wf2 := wf.Fig1Specs()
	st := data.NewStore()
	st.Init("e", 0)
	eng := engine.New(st, wlog.New())
	r1, err := eng.NewRun("r1", wf1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.NewRun("r2", wf2)
	if err != nil {
		t.Fatal(err)
	}
	return eng, r1, r2
}

func TestStepExecutesAndCommits(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	done, err := eng.Step(r1)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("run done after one step")
	}
	v, ok := eng.Store().Get("a")
	if !ok || v.Value != 1 {
		t.Errorf("a = %v, want 1", v)
	}
	if v.Writer != "r1/t1#1" || v.Pos != 1 {
		t.Errorf("version metadata = %+v", v)
	}
	e, ok := eng.Log().Get("r1/t1#1")
	if !ok {
		t.Fatal("t1 not committed to log")
	}
	if v, ok := e.Wrote("a"); !ok || v != 1 {
		t.Errorf("logged write = %v", e.Writes)
	}
}

func TestRunCompletesCleanPath(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	steps := 0
	for !r1.Done() {
		if _, err := eng.Step(r1); err != nil {
			t.Fatal(err)
		}
		if steps++; steps > 10 {
			t.Fatal("run did not complete")
		}
	}
	if steps != 4 {
		t.Errorf("clean path took %d steps, want 4 (t1 t2 t5 t6)", steps)
	}
	snap := eng.Store().Snapshot()
	if snap["f"] != 14 {
		t.Errorf("f = %d, want 14", snap["f"])
	}
	if _, ok := eng.Store().Get("c"); ok {
		t.Error("clean run executed wrong-path task t3")
	}
}

func TestAttackOverridesCompute(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	eng.AddAttack(engine.Attack{
		Run: "r1", Task: "t1",
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"a": 100}
		},
	})
	for !r1.Done() {
		if _, err := eng.Step(r1); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Store().Snapshot()
	if snap["a"] != 100 {
		t.Errorf("a = %d, want corrupted 100", snap["a"])
	}
	// The corrupt value drives the run down P1: t3 and t4 execute.
	if snap["c"] != 42 {
		t.Errorf("c = %d, want 42 (wrong path taken)", snap["c"])
	}
	e, _ := eng.Log().Get("r1/t2#1")
	if e.Chosen != "t3" {
		t.Errorf("t2 chose %s under attack, want t3", e.Chosen)
	}
}

func TestAttackChooseOverride(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	// Corrupt only the branch decision, not the data.
	eng.AddAttack(engine.Attack{
		Run: "r1", Task: "t2",
		Choose: func(map[data.Key]data.Value) wf.TaskID { return "t3" },
	})
	for !r1.Done() {
		if _, err := eng.Step(r1); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := eng.Log().Get("r1/t2#1")
	if e.Chosen != "t3" {
		t.Errorf("chose %s, want forced t3", e.Chosen)
	}
	// Data of t2 is still benign.
	if v, _ := eng.Store().Get("b"); v.Value != 2 {
		t.Errorf("b = %d, want benign 2", v.Value)
	}
}

func TestInvalidChoiceRejected(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	eng.AddAttack(engine.Attack{
		Run: "r1", Task: "t2",
		Choose: func(map[data.Key]data.Value) wf.TaskID { return "t9" },
	})
	var err error
	for !r1.Done() && err == nil {
		_, err = eng.Step(r1)
	}
	if err == nil || !strings.Contains(err.Error(), "invalid successor") {
		t.Fatalf("err = %v, want invalid successor", err)
	}
}

func TestReadsRecordObservedVersions(t *testing.T) {
	eng, r1, r2 := newFig1Engine(t)
	// t1 then t7 then t2: t2's read of a must name t1's version.
	if _, err := eng.Step(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(r2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(r1); err != nil {
		t.Fatal(err)
	}
	e, _ := eng.Log().Get("r1/t2#1")
	obs, _ := e.Read("a")
	if obs.Writer != "r1/t1#1" || obs.WriterPos != 1 || obs.Value != 1 {
		t.Errorf("t2's read observation = %+v", obs)
	}
}

func TestMissingKeyReadsAsZero(t *testing.T) {
	spec, err := wf.NewBuilder("m", "t").
		Task("t").Reads("nothere").Writes("out").
		Compute(func(r map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"out": r["nothere"] + 5}
		}).
		End().Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(data.NewStore(), wlog.New())
	r, err := eng.NewRun("r", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(r); err != nil {
		t.Fatal(err)
	}
	e, _ := eng.Log().Get("r/t#1")
	if obs, ok := e.Read("nothere"); !ok || obs.WriterPos != wlog.MissingPos {
		t.Errorf("missing key observation = %+v", e.Reads)
	}
	if v, _ := eng.Store().Get("out"); v.Value != 5 {
		t.Errorf("out = %d, want 5", v.Value)
	}
}

func TestInterleaveProducesL1(t *testing.T) {
	eng, r1, r2 := newFig1Engine(t)
	eng.AddAttack(engine.Attack{
		Run: "r1", Task: "t1",
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"a": 100}
		},
	})
	order := []int{0, 1, 0, 1, 0, 0, 1, 0, 1}
	if err := eng.Interleave(context.Background(), []*engine.Run{r1, r2}, order, 0); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range eng.Log().Entries() {
		got = append(got, string(e.Task))
	}
	want := "t1 t7 t2 t8 t3 t4 t9 t6 t10"
	if strings.Join(got, " ") != want {
		t.Errorf("log = %s, want %s", strings.Join(got, " "), want)
	}
}

func TestInterleaveBadIndex(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	if err := eng.Interleave(context.Background(), []*engine.Run{r1}, []int{2}, 0); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestRunAllCompletesEverything(t *testing.T) {
	eng, r1, r2 := newFig1Engine(t)
	if err := eng.RunAll(context.Background(), r1, r2); err != nil {
		t.Fatal(err)
	}
	if !r1.Done() || !r2.Done() {
		t.Error("RunAll left a run incomplete")
	}
	if eng.Log().Len() != 8 {
		t.Errorf("log has %d entries, want 8 (4+4 clean)", eng.Log().Len())
	}
}

func TestCyclicWorkflowVisits(t *testing.T) {
	// b loops through c until n ≥ 3; instances get increasing visits.
	spec, err := wf.NewBuilder("loop", "a").
		Task("a").Writes("n").
		Compute(func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"n": 0}
		}).Then("b").End().
		Task("b").Reads("n").Writes("n").
		Compute(func(r map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"n": r["n"] + 1}
		}).Then("c").End().
		Task("c").Reads("n").Writes("m").
		Compute(func(r map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"m": r["n"]}
		}).Then("b", "end").
		ChooseBy(wf.ThresholdChoose("n", 3, "b", "end")).End().
		Task("end").Reads("m").Writes("out").
		Compute(func(r map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"out": r["m"] * 10}
		}).End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(data.NewStore(), wlog.New())
	r, err := eng.NewRun("r", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	// a, b#1, c#1, b#2, c#2, b#3, c#3, end = 8 commits.
	if eng.Log().Len() != 8 {
		t.Fatalf("log has %d entries, want 8", eng.Log().Len())
	}
	if _, ok := eng.Log().Get("r/b#3"); !ok {
		t.Error("third visit of b not distinguished")
	}
	if v, _ := eng.Store().Get("out"); v.Value != 30 {
		t.Errorf("out = %d, want 30", v.Value)
	}
}

func TestNonTerminatingRunCapped(t *testing.T) {
	spec, err := wf.NewBuilder("inf", "a").
		Task("a").Writes("x").Then("b").End().
		Task("b").Reads("x").Writes("x").Then("c").End().
		Task("c").Reads("x").Writes("x").Then("b", "end").
		ChooseBy(func(map[data.Key]data.Value) wf.TaskID { return "b" }).End().
		Task("end").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(data.NewStore(), wlog.New())
	r, err := eng.NewRun("r", spec)
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Interleave(context.Background(), []*engine.Run{r}, nil, 50)
	if err == nil || !strings.Contains(err.Error(), "50 steps") {
		t.Fatalf("err = %v, want step-budget error", err)
	}
}

func TestInjectForged(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	if _, err := eng.Step(r1); err != nil { // t1 commits a=1
		t.Fatal(err)
	}
	inst, err := eng.InjectForged("", "evil", []data.Key{"a"}, map[data.Key]data.Value{"a": -7})
	if err != nil {
		t.Fatal(err)
	}
	if inst != "/evil#1" {
		t.Errorf("forged instance = %s", inst)
	}
	e, ok := eng.Log().Get(inst)
	if !ok || !e.Forged {
		t.Fatal("forged entry not committed/flagged")
	}
	if obs, _ := e.Read("a"); obs.Writer != "r1/t1#1" {
		t.Errorf("forged read observation = %+v", e.Reads)
	}
	if v, _ := eng.Store().Get("a"); v.Value != -7 {
		t.Errorf("a = %d, want forged -7", v.Value)
	}
}

func TestNewRunRejectsInvalid(t *testing.T) {
	eng := engine.New(data.NewStore(), wlog.New())
	bad := &wf.Spec{Name: "x", Start: "nope", Tasks: []wf.Task{
		{ID: "t"},
	}}
	if _, err := eng.NewRun("r", bad); err == nil {
		t.Error("invalid spec accepted")
	}
	good, _ := wf.Fig1Specs()
	if _, err := eng.NewRun("", good); err == nil {
		t.Error("empty run ID accepted")
	}
}

// TestTaskFailureVsAttackRecovery encodes the paper's §VII distinction:
// a malicious task that fails before committing leaves no effects in the
// system — the log and store are untouched — so attack recovery has nothing
// to do for it (failure handling, not attack recovery, deals with the
// aborted run).
func TestTaskFailureVsAttackRecovery(t *testing.T) {
	eng, r1, _ := newFig1Engine(t)
	eng.AddAttack(engine.Attack{Run: "r1", Task: "t2", Crash: true})

	if _, err := eng.Step(r1); err != nil { // t1 commits
		t.Fatal(err)
	}
	done, err := eng.Step(r1) // t2 crashes
	var tf *engine.TaskFailure
	if !errors.As(err, &tf) {
		t.Fatalf("err = %v, want TaskFailure", err)
	}
	if tf.Inst != "r1/t2#1" {
		t.Errorf("failed instance = %s", tf.Inst)
	}
	if !done || !r1.Done() || !r1.Failed() {
		t.Error("run not marked failed")
	}
	// Nothing committed for t2: the log holds only t1, the store only a.
	if eng.Log().Len() != 1 {
		t.Errorf("log has %d entries, want 1", eng.Log().Len())
	}
	if _, ok := eng.Store().Get("b"); ok {
		t.Error("crashed task wrote to the store")
	}
}

func TestFailureDoesNotSpreadDamage(t *testing.T) {
	// A crashing t1 means t2 never executes: no incorrect data exists,
	// exactly the "failed malicious tasks have no effects" case.
	eng, r1, r2 := newFig1Engine(t)
	eng.AddAttack(engine.Attack{Run: "r1", Task: "t1", Crash: true})
	_, err := eng.Step(r1)
	var tf *engine.TaskFailure
	if !errors.As(err, &tf) {
		t.Fatalf("err = %v", err)
	}
	// The other workflow continues unharmed.
	if err := eng.RunAll(context.Background(), r2); err != nil {
		t.Fatal(err)
	}
	if v, _ := eng.Store().Get("h"); v.Value != 3 {
		t.Errorf("h = %d, want 3 (a missing reads as 0, g=3)", v.Value)
	}
}

// The engine is where a task's reads and writes become an entry: whatever
// order the specification lists keys in, and however often it lists one, the
// entry holds each key once, in key order (a map used to dedupe silently).
func TestEntryKeysSortedOncePerKey(t *testing.T) {
	spec, err := wf.NewBuilder("dup", "t").
		Task("t").Reads("m", "a", "m", "z", "a").Writes("y", "b", "y").
		Compute(func(r map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"y": r["a"] + 1, "b": r["m"] + 2}
		}).
		End().Build()
	if err != nil {
		t.Fatal(err)
	}
	st := data.NewStore()
	st.Init("a", 10)
	st.Init("m", 20)
	eng := engine.New(st, wlog.New())
	r, err := eng.NewRun("r", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(r); err != nil {
		t.Fatal(err)
	}
	e, _ := eng.Log().Get("r/t#1")
	wantReads := []wlog.Read{
		{Key: "a", ReadObs: wlog.ReadObs{Value: 10, WriterPos: data.InitPos}},
		{Key: "m", ReadObs: wlog.ReadObs{Value: 20, WriterPos: data.InitPos}},
		{Key: "z", ReadObs: wlog.ReadObs{WriterPos: wlog.MissingPos}},
	}
	wantWrites := []wlog.Write{{Key: "b", Value: 22}, {Key: "y", Value: 11}}
	if !reflect.DeepEqual(e.Reads, wantReads) || !reflect.DeepEqual(e.Writes, wantWrites) {
		t.Errorf("entry holds reads %+v writes %+v", e.Reads, e.Writes)
	}
	if v, _ := st.Get("y"); v.Value != 11 || len(st.Chain("y")) != 1 {
		t.Errorf("y = %+v in chain %+v, want one version of 11", v, st.Chain("y"))
	}

	inst, err := eng.InjectForged("x", "evil", []data.Key{"y", "a", "y"}, map[data.Key]data.Value{"q": 1, "a": 2})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := eng.Log().Get(inst)
	wantReads = []wlog.Read{
		{Key: "a", ReadObs: wlog.ReadObs{Value: 10, WriterPos: data.InitPos}},
		{Key: "y", ReadObs: wlog.ReadObs{Value: 11, Writer: "r/t#1", WriterPos: 1}},
	}
	wantWrites = []wlog.Write{{Key: "a", Value: 2}, {Key: "q", Value: 1}}
	if !reflect.DeepEqual(f.Reads, wantReads) || !reflect.DeepEqual(f.Writes, wantWrites) {
		t.Errorf("forged entry holds reads %+v writes %+v", f.Reads, f.Writes)
	}
}
