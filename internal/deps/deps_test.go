package deps_test

import (
	"context"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/engine"
	"selfheal/internal/scenario"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// seqLog builds a log from a list of (task, reads, writes) on a single run,
// executing against a real store so read observations are faithful.
type step struct {
	task   string
	reads  []data.Key
	writes []data.Key
}

func buildLog(t *testing.T, steps []step) (*wlog.Log, *data.Store) {
	t.Helper()
	st := data.NewStore()
	seen := map[data.Key]bool{}
	for _, s := range steps {
		for _, k := range s.reads {
			if !seen[k] {
				st.Init(k, 1)
				seen[k] = true
			}
		}
		for _, k := range s.writes {
			seen[k] = true
		}
	}
	l := wlog.New()
	for _, s := range steps {
		e := &wlog.Entry{
			Run:   "r",
			Task:  wf.TaskID(s.task),
			Visit: 1,
		}
		for _, k := range s.reads {
			obs := wlog.ReadObs{WriterPos: wlog.MissingPos}
			if v, ok := st.Get(k); ok {
				obs = wlog.ReadObs{Value: v.Value, Writer: v.Writer, WriterPos: v.Pos}
			}
			e.Reads = append(e.Reads, wlog.Read{Key: k, ReadObs: obs})
		}
		lsn := l.Len() + 1
		for _, k := range s.writes {
			e.Writes = append(e.Writes, wlog.Write{Key: k, Value: data.Value(lsn)})
		}
		if _, err := l.Append(e); err != nil { // Append puts the keys in order
			t.Fatal(err)
		}
		for _, k := range s.writes {
			st.Write(k, data.Value(lsn), float64(lsn), string(e.ID()), false)
		}
	}
	return l, st
}

func hasEdge(edges []deps.Edge, from, to string) bool {
	for _, e := range edges {
		if string(e.From) == from && string(e.To) == to {
			return true
		}
	}
	return false
}

func TestFlowDependence(t *testing.T) {
	// tx: x = a+b ; tb: b = x-1 — the paper's §II.C example:
	// tx →_f tb (tb reads x written by tx) and tx →_a tb (tb overwrites b
	// which tx read).
	l, _ := buildLog(t, []step{
		{"tx", []data.Key{"a", "b"}, []data.Key{"x"}},
		{"tb", []data.Key{"x"}, []data.Key{"b"}},
	})
	g := deps.Build(l)
	if !hasEdge(g.Flow(), "r/tx#1", "r/tb#1") {
		t.Errorf("missing tx →_f tb; flow = %v", g.Flow())
	}
	if !hasEdge(g.Anti(), "r/tx#1", "r/tb#1") {
		t.Errorf("missing tx →_a tb; anti = %v", g.Anti())
	}
	if !g.HasFlow("r/tx#1", "r/tb#1") {
		t.Error("HasFlow disagrees with Flow()")
	}
	if g.HasFlow("r/tb#1", "r/tx#1") {
		t.Error("flow is directional")
	}
}

func TestFlowMaskedByInterveningWriter(t *testing.T) {
	// w1 writes k; w2 overwrites k; rd reads k → only w2 →_f rd.
	l, _ := buildLog(t, []step{
		{"w1", nil, []data.Key{"k"}},
		{"w2", nil, []data.Key{"k"}},
		{"rd", []data.Key{"k"}, []data.Key{"o"}},
	})
	g := deps.Build(l)
	if hasEdge(g.Flow(), "r/w1#1", "r/rd#1") {
		t.Error("masked flow dependence reported (Definition 1 masking)")
	}
	if !hasEdge(g.Flow(), "r/w2#1", "r/rd#1") {
		t.Error("missing w2 →_f rd")
	}
}

func TestOutputDependenceConsecutiveOnly(t *testing.T) {
	l, _ := buildLog(t, []step{
		{"w1", nil, []data.Key{"k"}},
		{"w2", nil, []data.Key{"k"}},
		{"w3", nil, []data.Key{"k"}},
	})
	g := deps.Build(l)
	if !hasEdge(g.Output(), "r/w1#1", "r/w2#1") || !hasEdge(g.Output(), "r/w2#1", "r/w3#1") {
		t.Errorf("missing consecutive output deps: %v", g.Output())
	}
	if hasEdge(g.Output(), "r/w1#1", "r/w3#1") {
		t.Error("non-consecutive output dep reported (masking)")
	}
}

func TestAntiDependenceNextWriterOnly(t *testing.T) {
	// rd reads k; w1 then w2 overwrite k → rd →_a w1 only.
	l, _ := buildLog(t, []step{
		{"rd", []data.Key{"k"}, []data.Key{"o"}},
		{"w1", nil, []data.Key{"k"}},
		{"w2", nil, []data.Key{"k"}},
	})
	g := deps.Build(l)
	if !hasEdge(g.Anti(), "r/rd#1", "r/w1#1") {
		t.Errorf("missing rd →_a w1: %v", g.Anti())
	}
	if hasEdge(g.Anti(), "r/rd#1", "r/w2#1") {
		t.Error("masked anti dependence reported")
	}
}

func TestReadersClosureTransitive(t *testing.T) {
	// w → r1 (reads w's key, writes m) → r2 (reads m); r3 independent.
	l, _ := buildLog(t, []step{
		{"w", nil, []data.Key{"k"}},
		{"r1", []data.Key{"k"}, []data.Key{"m"}},
		{"r2", []data.Key{"m"}, []data.Key{"n"}},
		{"r3", []data.Key{"z"}, []data.Key{"q"}},
	})
	g := deps.Build(l)
	cl := g.ReadersClosure(map[wlog.InstanceID]bool{"r/w#1": true})
	for _, want := range []string{"r/w#1", "r/r1#1", "r/r2#1"} {
		if !cl[wlog.InstanceID(want)] {
			t.Errorf("closure missing %s", want)
		}
	}
	if cl["r/r3#1"] {
		t.Error("independent task pulled into closure")
	}
	if len(g.ReadersClosure(nil)) != 0 {
		t.Error("closure of empty seed not empty")
	}
}

func TestInitialVersionsYieldNoFlow(t *testing.T) {
	l, _ := buildLog(t, []step{
		{"rd", []data.Key{"init"}, []data.Key{"o"}},
	})
	g := deps.Build(l)
	if len(g.Flow()) != 0 {
		t.Errorf("reads of initial versions produced flow edges: %v", g.Flow())
	}
}

func TestBuildControlFig1(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	cv := deps.BuildControl(s.Log(), "r1", s.Specs["r1"])
	t2 := wlog.FormatInstance("r1", "t2", 1)
	set, ok := cv.Deps[t2]
	if !ok {
		t.Fatal("no control deps recorded for t2")
	}
	for _, want := range []wlog.InstanceID{"r1/t3#1", "r1/t4#1"} {
		if !set[want] {
			t.Errorf("t2's control set missing %s: %v", want, set)
		}
	}
	if set["r1/t6#1"] {
		t.Error("unavoidable t6 in control set")
	}
}

func TestUnexecutedControlledFig1(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	got := deps.UnexecutedControlled(s.Log(), "r1", s.Specs["r1"], "t2")
	if len(got) != 1 || got[0] != "t5" {
		t.Errorf("unexecuted controlled = %v, want [t5]", got)
	}
	// On the clean run, t3 and t4 are the unexecuted ones.
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	got = deps.UnexecutedControlled(clean.Log(), "r1", clean.Specs["r1"], "t2")
	if len(got) != 2 || got[0] != "t3" || got[1] != "t4" {
		t.Errorf("clean unexecuted controlled = %v, want [t3 t4]", got)
	}
}

func TestPotentialFlowFromUnexecutedFig1(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	got := deps.PotentialFlowFromUnexecuted(s.Log(), s.Specs["r1"], "t5")
	if len(got) != 1 || got[0] != "r1/t6#1" {
		t.Errorf("potential readers of t5's writes = %v, want [r1/t6#1]", got)
	}
	if r := deps.PotentialFlowFromUnexecuted(s.Log(), s.Specs["r1"], "ghost"); r != nil {
		t.Errorf("unknown task produced readers: %v", r)
	}
}

func TestCrossRunFlowFig1(t *testing.T) {
	// t8 (run r2) reads a written by t1 (run r1): cross-workflow flow.
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	g := deps.Build(s.Log())
	if !g.HasFlow("r1/t1#1", "r2/t8#1") {
		t.Error("cross-run flow t1 →_f t8 missing")
	}
	cl := g.ReadersClosure(map[wlog.InstanceID]bool{"r1/t1#1": true})
	for _, want := range []wlog.InstanceID{"r1/t2#1", "r1/t4#1", "r2/t8#1", "r2/t10#1"} {
		if !cl[want] {
			t.Errorf("closure of t1 missing %s", want)
		}
	}
	for _, not := range []wlog.InstanceID{"r1/t3#1", "r1/t6#1", "r2/t7#1", "r2/t9#1"} {
		if cl[not] {
			t.Errorf("closure of t1 wrongly contains %s", not)
		}
	}
}

// TestForgedReadsParticipateInFlow: a forged task's output infects readers
// exactly like a corrupt legitimate task's.
func TestForgedReadsParticipateInFlow(t *testing.T) {
	st := data.NewStore()
	st.Init("e", 0)
	wf1, _ := wf.Fig1Specs()
	eng := engine.New(st, wlog.New())
	r1, err := eng.NewRun("r1", wf1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(r1); err != nil { // t1 writes a
		t.Fatal(err)
	}
	forged, err := eng.InjectForged("", "evil", nil, map[data.Key]data.Value{"a": -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunAll(context.Background(), r1); err != nil { // t2 reads the forged a
		t.Fatal(err)
	}
	g := deps.Build(eng.Log())
	if !g.HasFlow(forged, "r1/t2#1") {
		t.Error("forged task's flow edge missing")
	}
}
