package wf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"selfheal/internal/data"
)

// diamond builds start → choice(a|b) → join, a common test shape.
func diamond(t *testing.T) *Spec {
	t.Helper()
	s, err := NewBuilder("d", "start").
		Task("start").Writes("x").Then("choice").End().
		Task("choice").Reads("x").Writes("y").Then("a", "b").
		ChooseBy(ThresholdChoose("x", 10, "a", "b")).End().
		Task("a").Reads("y").Writes("z").Then("join").End().
		Task("b").Reads("y").Writes("z").Then("join").End().
		Task("join").Reads("z").Writes("w").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidateOK(t *testing.T) {
	if err := diamond(t).Validate(); err != nil {
		t.Fatal(err)
	}
	wf1, wf2 := Fig1Specs()
	if err := wf1.Validate(); err != nil {
		t.Errorf("fig1 wf1: %v", err)
	}
	if err := wf2.Validate(); err != nil {
		t.Errorf("fig1 wf2: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"missing start", func(s *Spec) { s.Start = "nope" }, "start task"},
		{"edge to undefined", func(s *Spec) {
			s.Task("join").Next = []TaskID{"ghost"}
		}, "undefined task"},
		{"duplicate edge", func(s *Spec) {
			s.Task("a").Next = []TaskID{"join", "join"}
		}, "duplicate edge"},
		{"choice without Choose", func(s *Spec) {
			s.Task("choice").Choose = nil
		}, "no Choose"},
		{"non-choice with Choose", func(s *Spec) {
			s.Task("a").Choose = func(map[data.Key]data.Value) TaskID { return "join" }
		}, "non-choice"},
		{"start with predecessors", func(s *Spec) {
			s.Task("join").Next = []TaskID{"start"}
		}, "has predecessors"},
		{"unreachable task", func(s *Spec) {
			s.Tasks = append(s.Tasks, Task{ID: "orphan"})
			SortTasks(s.Tasks)
		}, "unreachable"},
		{"empty key", func(s *Spec) {
			s.Task("a").Reads = []data.Key{""}
		}, "empty data key"},
		{"no name", func(s *Spec) { s.Name = "" }, "no name"},
		{"tasks out of order", func(s *Spec) {
			s.Tasks[0], s.Tasks[1] = s.Tasks[1], s.Tasks[0]
		}, "sorted by ID"},
		{"duplicate task", func(s *Spec) {
			s.Tasks = append(s.Tasks, s.Tasks[len(s.Tasks)-1])
		}, "duplicate task"},
		{"branch past the successors", func(s *Spec) {
			c := s.Task("choice")
			c.Choose, c.Body = nil, Body{Branch: true, High: 2}
		}, "branches to a successor"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := diamond(t)
			c.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestEnds(t *testing.T) {
	s := diamond(t)
	ends := s.Ends()
	if len(ends) != 1 || ends[0] != "join" {
		t.Errorf("ends = %v, want [join]", ends)
	}
}

func TestReachableFrom(t *testing.T) {
	s := diamond(t)
	r := s.ReachableFrom("choice")
	for _, id := range []TaskID{"choice", "a", "b", "join"} {
		if !r[id] {
			t.Errorf("%s not reachable from choice", id)
		}
	}
	if r["start"] {
		t.Error("start should not be reachable from choice")
	}
}

func TestUnavoidable(t *testing.T) {
	s := diamond(t)
	for _, c := range []struct {
		id   TaskID
		want bool
	}{
		{"start", true},
		{"choice", true},
		{"a", false},
		{"b", false},
		{"join", true},
	} {
		if got := s.Unavoidable(c.id); got != c.want {
			t.Errorf("Unavoidable(%s) = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestControlDepDiamond(t *testing.T) {
	s := diamond(t)
	wantDeps := map[[2]TaskID]bool{
		{"choice", "a"}:     true,
		{"choice", "b"}:     true,
		{"choice", "join"}:  false, // join is on every path from choice
		{"start", "a"}:      false, // start is not a choice node
		{"choice", "start"}: false,
		{"a", "join"}:       false,
	}
	for pair, want := range wantDeps {
		if got := s.ControlDep(pair[0], pair[1]); got != want {
			t.Errorf("ControlDep(%s, %s) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

func TestControlDepFig1(t *testing.T) {
	wf1, wf2 := Fig1Specs()
	// §II.D: t2 →_c t3, t2 →_c t4, t2 →_c t5; t6 is unavoidable.
	for _, to := range []TaskID{"t3", "t4", "t5"} {
		if !wf1.ControlDep("t2", to) {
			t.Errorf("want t2 →_c %s", to)
		}
	}
	if wf1.ControlDep("t2", "t6") {
		t.Error("t6 must not be control dependent on t2 (unavoidable)")
	}
	if wf1.ControlDep("t1", "t3") {
		t.Error("t1 has outdegree 1, cannot be a dominant node")
	}
	for _, id := range []TaskID{"t1", "t2", "t6"} {
		if !wf1.Unavoidable(id) {
			t.Errorf("%s should be unavoidable", id)
		}
	}
	for _, id := range []TaskID{"t3", "t4", "t5"} {
		if wf1.Unavoidable(id) {
			t.Errorf("%s should be avoidable", id)
		}
	}
	// The linear wf2 has no control dependences at all.
	for _, from := range wf2.Tasks {
		for _, to := range wf2.Tasks {
			if wf2.ControlDep(from.ID, to.ID) {
				t.Errorf("linear workflow has control dep %s → %s", from.ID, to.ID)
			}
		}
	}
}

func TestControlClosureTransitive(t *testing.T) {
	// Nested choices: c1 chooses (c2 | e); c2 chooses (x | y); all merge at z.
	s, err := NewBuilder("nested", "c1").
		Task("c1").Reads("k").Writes("v").Then("c2", "e").
		ChooseBy(ThresholdChoose("k", 0, "c2", "e")).End().
		Task("c2").Reads("v").Writes("v2").Then("x", "y").
		ChooseBy(ThresholdChoose("v", 0, "x", "y")).End().
		Task("x").Writes("o").Then("z").End().
		Task("y").Writes("o").Then("z").End().
		Task("e").Writes("o").Then("z").End().
		Task("z").Reads("o").Writes("done").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cl := s.ControlClosure()
	for _, to := range []TaskID{"c2", "e", "x", "y"} {
		if !cl["c1"][to] {
			t.Errorf("closure: want c1 →_c* %s", to)
		}
	}
	if cl["c1"]["z"] {
		t.Error("z is unavoidable, must not be in c1's closure")
	}
	if !cl["c2"]["x"] || !cl["c2"]["y"] {
		t.Error("c2's direct dependents missing from closure")
	}
	if cl["c2"]["e"] {
		t.Error("e is not reachable from c2")
	}
}

func TestPathsDiamond(t *testing.T) {
	s := diamond(t)
	paths := s.Paths(1)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		if p[0] != "start" || p[len(p)-1] != "join" {
			t.Errorf("malformed path %v", p)
		}
	}
}

func TestPathsFig1(t *testing.T) {
	wf1, _ := Fig1Specs()
	paths := wf1.Paths(1)
	// P1: t1 t2 t3 t4 t6 and P2: t1 t2 t5 t6.
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(paths), paths)
	}
}

func TestPathsCyclicBounded(t *testing.T) {
	// loop: a → b → c → (b | end): with maxVisits=2 paths revisit b, c.
	s, err := NewBuilder("loop", "a").
		Task("a").Writes("n").Then("b").End().
		Task("b").Reads("n").Writes("n").Then("c").End().
		Task("c").Reads("n").Writes("n").Then("b", "end").
		ChooseBy(ThresholdChoose("n", 3, "b", "end")).End().
		Task("end").Reads("n").Writes("out").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p1 := s.Paths(1)
	p2 := s.Paths(2)
	if len(p1) != 1 {
		t.Errorf("maxVisits=1: %d paths, want 1", len(p1))
	}
	if len(p2) != 2 {
		t.Errorf("maxVisits=2: %d paths, want 2 (one loop unrolling)", len(p2))
	}
}

func TestChoiceNodes(t *testing.T) {
	wf1, wf2 := Fig1Specs()
	if got := wf1.ChoiceNodes(); len(got) != 1 || got[0] != "t2" {
		t.Errorf("wf1 choice nodes = %v, want [t2]", got)
	}
	if got := wf2.ChoiceNodes(); len(got) != 0 {
		t.Errorf("wf2 choice nodes = %v, want none", got)
	}
}

func TestSumComputeDeterministic(t *testing.T) {
	f := SumCompute(5, "x", "y")
	in := map[data.Key]data.Value{"a": 1, "b": 2}
	out := f(in)
	if out["x"] != 8 || out["y"] != 9 {
		t.Errorf("SumCompute = %v", out)
	}
	out2 := f(map[data.Key]data.Value{"b": 2, "a": 1})
	if out2["x"] != out["x"] || out2["y"] != out["y"] {
		t.Error("SumCompute not deterministic across map orders")
	}
}

func TestThresholdChoose(t *testing.T) {
	f := ThresholdChoose("k", 10, "low", "high")
	if got := f(map[data.Key]data.Value{"k": 9}); got != "low" {
		t.Errorf("k=9 → %s, want low", got)
	}
	if got := f(map[data.Key]data.Value{"k": 10}); got != "high" {
		t.Errorf("k=10 → %s, want high", got)
	}
	if got := f(map[data.Key]data.Value{}); got != "low" {
		t.Errorf("missing key → %s, want low (reads as 0)", got)
	}
}

func TestGenerateValidAndVaried(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	branched := 0
	for i := 0; i < 50; i++ {
		s := Generate("g", DefaultGenConfig(), rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("gen %d: %v", i, err)
		}
		if len(s.ChoiceNodes()) > 0 {
			branched++
		}
		if len(s.Ends()) == 0 {
			t.Fatalf("gen %d: no end nodes", i)
		}
	}
	if branched == 0 {
		t.Error("no generated workflow had a choice node; generator too weak")
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := Generate("g", DefaultGenConfig(), rand.New(rand.NewSource(9)))
	b := Generate("g", DefaultGenConfig(), rand.New(rand.NewSource(9)))
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("same seed produced different task counts")
	}
	for _, ta := range a.Tasks {
		id, tb := ta.ID, b.Task(ta.ID)
		if tb == nil {
			t.Fatalf("task %s missing in second generation", id)
		}
		if len(ta.Next) != len(tb.Next) || len(ta.Reads) != len(tb.Reads) {
			t.Fatalf("task %s differs structurally", id)
		}
		for i := range ta.Next {
			if ta.Next[i] != tb.Next[i] {
				t.Fatalf("task %s edge %d differs", id, i)
			}
		}
	}
}

func TestGenerateWithCyclesTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := GenConfig{Tasks: 12, Keys: 8, MaxReads: 3, BranchProb: 0.3, Cycles: 3, CycleBound: 3}
	cyclic := 0
	for i := 0; i < 40; i++ {
		s := Generate("g", cfg, rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("gen %d: %v", i, err)
		}
		// Detect an actual back edge: a choice node with a successor
		// earlier in the topological numbering.
		for _, task := range s.Tasks {
			for _, n := range task.Next {
				if lessTaskNum(n, task.ID) {
					cyclic++
				}
			}
		}
	}
	if cyclic == 0 {
		t.Fatal("no generated workflow contained a back edge")
	}
}

// lessTaskNum compares generated task IDs t<i> numerically.
func lessTaskNum(a, b TaskID) bool {
	var x, y int
	if _, err := fmt.Sscanf(string(a), "t%d", &x); err != nil {
		return false
	}
	if _, err := fmt.Sscanf(string(b), "t%d", &y); err != nil {
		return false
	}
	return x < y
}

func TestCycleKeyNaming(t *testing.T) {
	if CycleKey("t3") != "cyc_t3" {
		t.Errorf("CycleKey = %s", CycleKey("t3"))
	}
}

// TestValidateAllocations pins Validate at zero allocations on a valid spec
// of up to 16 tasks: its marks and walk stack live on the stack, and it
// counts end nodes rather than collecting them.
func TestValidateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultGenConfig()
	cfg.Tasks = 16
	specs := []*Spec{diamond(t), Generate("g", cfg, rng)}
	if s, err := GenerateBlueprint("b", cfg, rng).Spec(); err != nil {
		t.Fatal(err)
	} else {
		specs = append(specs, s)
	}
	for _, s := range specs {
		if n := testing.AllocsPerRun(100, func() {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s (%d tasks): Validate allocates %.0f times, want 0", s.Name, len(s.Tasks), n)
		}
	}
}

// TestTaskLookupAllocations pins Spec.Task at zero allocations, found or not.
func TestTaskLookupAllocations(t *testing.T) {
	s := diamond(t)
	if n := testing.AllocsPerRun(100, func() {
		for i := range s.Tasks {
			if s.Task(s.Tasks[i].ID) != &s.Tasks[i] {
				t.Fatalf("Task(%s) is not the spec's own task", s.Tasks[i].ID)
			}
		}
		if s.Task("absent") != nil {
			t.Fatal("Task(absent) found a task")
		}
	}); n != 0 {
		t.Errorf("Task allocates %.0f times, want 0", n)
	}
}
