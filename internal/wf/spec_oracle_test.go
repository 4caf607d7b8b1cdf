package wf

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"selfheal/internal/data"
)

// The oracle: the map-based graph analyses the index walk replaced, kept
// verbatim as the reference the differential test compares against.

func (s *Spec) oracleTask(id TaskID) *Task {
	i, ok := slices.BinarySearchFunc(s.Tasks, id, func(t Task, id TaskID) int {
		return strings.Compare(string(t.ID), string(id))
	})
	if !ok {
		return nil
	}
	return &s.Tasks[i]
}

func (s *Spec) oracleValidate() error {
	if s.Name == "" {
		return fmt.Errorf("wf: workflow has no name")
	}
	if len(s.Tasks) == 0 {
		return fmt.Errorf("wf %s: no tasks", s.Name)
	}
	for i := 1; i < len(s.Tasks); i++ {
		if prev, id := s.Tasks[i-1].ID, s.Tasks[i].ID; prev == id {
			return fmt.Errorf("wf %s: duplicate task %q", s.Name, id)
		} else if prev > id {
			return fmt.Errorf("wf %s: task %q listed after %q (tasks are sorted by ID)", s.Name, id, prev)
		}
	}
	if s.oracleTask(s.Start) == nil {
		return fmt.Errorf("wf %s: start task %q not defined", s.Name, s.Start)
	}
	indeg := make(map[TaskID]int, len(s.Tasks))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		id := t.ID
		seen := make(map[TaskID]bool, len(t.Next))
		for _, n := range t.Next {
			if s.oracleTask(n) == nil {
				return fmt.Errorf("wf %s: task %q has edge to undefined task %q", s.Name, id, n)
			}
			if seen[n] {
				return fmt.Errorf("wf %s: task %q has duplicate edge to %q", s.Name, id, n)
			}
			seen[n] = true
			indeg[n]++
		}
		if len(t.Next) > 1 && !t.chooses() {
			return fmt.Errorf("wf %s: choice task %q has no Choose function", s.Name, id)
		}
		if len(t.Next) <= 1 && t.chooses() {
			return fmt.Errorf("wf %s: non-choice task %q has a Choose function", s.Name, id)
		}
		if b := t.Body; b.Branch && (int(b.Low) >= len(t.Next) || int(b.High) >= len(t.Next)) {
			return fmt.Errorf("wf %s: task %q branches to a successor it does not have", s.Name, id)
		}
		for _, k := range append(append([]data.Key{}, t.Reads...), t.Writes...) {
			if k == "" {
				return fmt.Errorf("wf %s: task %q has an empty data key", s.Name, id)
			}
		}
	}
	if indeg[s.Start] != 0 {
		return fmt.Errorf("wf %s: start task %q has predecessors", s.Name, s.Start)
	}
	reach := s.oracleReachableExcluding(s.Start, "")
	for _, t := range s.Tasks {
		if !reach[t.ID] {
			return fmt.Errorf("wf %s: task %q unreachable from start", s.Name, t.ID)
		}
	}
	if len(s.Ends()) == 0 {
		return fmt.Errorf("wf %s: no end (0-outdegree) task", s.Name)
	}
	return nil
}

func (s *Spec) oracleReachableExcluding(id, excluded TaskID) map[TaskID]bool {
	seen := make(map[TaskID]bool)
	if id == excluded {
		return seen
	}
	stack := []TaskID{id}
	seen[id] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range s.oracleTask(cur).Next {
			if n == excluded || seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, n)
		}
	}
	return seen
}

func (s *Spec) oracleCanReachEndExcluding(from, excluded TaskID) bool {
	reach := s.oracleReachableExcluding(from, excluded)
	for id := range reach {
		if len(s.oracleTask(id).Next) == 0 {
			return true
		}
	}
	return false
}

func (s *Spec) oracleUnavoidable(id TaskID) bool {
	if id == s.Start {
		return true
	}
	return !s.oracleCanReachEndExcluding(s.Start, id)
}

func (s *Spec) oracleControlDep(from, to TaskID) bool {
	f := s.oracleTask(from)
	if f == nil || len(f.Next) <= 1 {
		return false
	}
	if from == to {
		return false
	}
	if !s.oracleReachableExcluding(from, "")[to] {
		return false
	}
	return s.oracleCanReachEndExcluding(from, to)
}

func (s *Spec) oracleControlClosure() map[TaskID]map[TaskID]bool {
	direct := make(map[TaskID]map[TaskID]bool)
	for _, from := range s.ChoiceNodes() {
		set := make(map[TaskID]bool)
		for _, to := range s.Tasks {
			if s.oracleControlDep(from, to.ID) {
				set[to.ID] = true
			}
		}
		if len(set) > 0 {
			direct[from] = set
		}
	}
	changed := true
	for changed {
		changed = false
		for _, set := range direct {
			for mid := range set {
				for to := range direct[mid] {
					if !set[to] {
						set[to] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}

// cloneSpec copies s deeply enough that a mutation of the copy's task
// array or edge, read and write lists leaves s alone.
func cloneSpec(s *Spec) *Spec {
	c := &Spec{Name: s.Name, Start: s.Start, Tasks: slices.Clone(s.Tasks)}
	for i := range c.Tasks {
		t := &c.Tasks[i]
		t.Next, t.Reads, t.Writes = slices.Clone(t.Next), slices.Clone(t.Reads), slices.Clone(t.Writes)
	}
	return c
}

// specMutations break one structural invariant each (or, by chance, none:
// the comparison holds either way).
var specMutations = []struct {
	name   string
	mutate func(s *Spec, rng *rand.Rand)
}{
	{"duplicate edge", func(s *Spec, rng *rand.Rand) {
		t := &s.Tasks[rng.Intn(len(s.Tasks))]
		if len(t.Next) > 0 {
			t.Next = append(t.Next, t.Next[rng.Intn(len(t.Next))])
		}
	}},
	{"undefined target", func(s *Spec, rng *rand.Rand) {
		t := &s.Tasks[rng.Intn(len(s.Tasks))]
		if len(t.Next) > 0 {
			t.Next[rng.Intn(len(t.Next))] = "ghost"
		}
	}},
	{"unreachable task", func(s *Spec, rng *rand.Rand) {
		s.Tasks = append(s.Tasks, Task{ID: TaskID(fmt.Sprintf("orphan%d", rng.Intn(3))), Writes: []data.Key{"o"}})
		SortTasks(s.Tasks)
	}},
	{"empty key", func(s *Spec, rng *rand.Rand) {
		t := &s.Tasks[rng.Intn(len(s.Tasks))]
		if rng.Intn(2) == 0 && len(t.Reads) > 0 {
			t.Reads[rng.Intn(len(t.Reads))] = ""
		} else {
			t.Writes = append(t.Writes, "")
		}
	}},
	{"no end", func(s *Spec, rng *rand.Rand) {
		for i := range s.Tasks {
			if t := &s.Tasks[i]; len(t.Next) == 0 {
				// Loop back to a non-start task.
				to := s.Tasks[rng.Intn(len(s.Tasks))].ID
				if to == s.Start {
					to = t.ID
				}
				t.Next = []TaskID{to}
			}
		}
	}},
	{"start with predecessors", func(s *Spec, rng *rand.Rand) {
		t := &s.Tasks[rng.Intn(len(s.Tasks))]
		if len(t.Next) == 0 {
			t.Next = []TaskID{s.Start}
		} else {
			t.Next[rng.Intn(len(t.Next))] = s.Start
		}
	}},
	{"unsorted IDs", func(s *Spec, rng *rand.Rand) {
		i := 1 + rng.Intn(len(s.Tasks)-1)
		s.Tasks[i-1], s.Tasks[i] = s.Tasks[i], s.Tasks[i-1]
	}},
	{"duplicate ID", func(s *Spec, rng *rand.Rand) {
		i := 1 + rng.Intn(len(s.Tasks)-1)
		s.Tasks[i].ID = s.Tasks[i-1].ID
	}},
	{"branch out of range", func(s *Spec, rng *rand.Rand) {
		t := &s.Tasks[rng.Intn(len(s.Tasks))]
		t.Choose = nil
		t.Body.Branch, t.Body.High = true, uint8(len(t.Next)+rng.Intn(2))
	}},
	{"choice without choose", func(s *Spec, rng *rand.Rand) {
		for i := range s.Tasks {
			if t := &s.Tasks[i]; len(t.Next) > 1 {
				t.Choose, t.Body.Branch = nil, false
				return
			}
		}
	}},
	{"missing start", func(s *Spec, rng *rand.Rand) { s.Start = "nope" }},
	{"no name", func(s *Spec, rng *rand.Rand) { s.Name = "" }},
}

// TestGraphAnalysesMatchOracle runs the index walk and the map-based
// oracle over generated specs — cyclic ones from Generate, blueprints, and
// larger ones past the stack-buffer size — and over mutations of each: the
// same Validate error, and on valid specs the same reachability (with and
// without every exclusion), Unavoidable, →_c and →_c* closure.
func TestGraphAnalysesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var specs []*Spec
	for i := 0; i < 60; i++ {
		cfg := DefaultGenConfig()
		cfg.Cycles, cfg.CycleBound = 1+i%3, 2
		if i%4 == 3 {
			cfg.Tasks = 40
		}
		specs = append(specs, Generate(fmt.Sprintf("g%d", i), cfg, rng))
		bcfg := DefaultGenConfig()
		if i%4 == 3 {
			bcfg.Tasks = 30
		}
		bp, err := GenerateBlueprint(fmt.Sprintf("b%d", i), bcfg, rng).Spec()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, bp)
	}
	wf1, wf2 := Fig1Specs()
	specs = append(specs, diamond(t), wf1, wf2)

	valid := 0
	for _, base := range specs {
		compareWithOracle(t, base)
		valid++
		for _, m := range specMutations {
			s := cloneSpec(base)
			m.mutate(s, rng)
			got, want := s.Validate(), s.oracleValidate()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s/%s: Validate = %v, oracle %v", base.Name, m.name, got, want)
			}
			if got == nil {
				compareWithOracle(t, s)
				valid++
			}
		}
	}
	t.Logf("%d specs, %d valid ones compared in full", len(specs)*(1+len(specMutations)), valid)
}

// compareWithOracle asserts that every graph analysis of the valid spec s
// agrees with the oracle.
func compareWithOracle(t *testing.T, s *Spec) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if err := s.oracleValidate(); err != nil {
		t.Fatalf("%s: oracle: %v", s.Name, err)
	}
	ids := make([]TaskID, 0, len(s.Tasks)+1)
	for _, task := range s.Tasks {
		ids = append(ids, task.ID)
	}
	ids = append(ids, "") // the empty exclusion
	for _, from := range ids[:len(s.Tasks)] {
		if got, want := s.ReachableFrom(from), s.oracleReachableExcluding(from, ""); !maps.Equal(got, want) {
			t.Fatalf("%s: ReachableFrom(%s) = %v, oracle %v", s.Name, from, got, want)
		}
		if got, want := s.Unavoidable(from), s.oracleUnavoidable(from); got != want {
			t.Fatalf("%s: Unavoidable(%s) = %v, oracle %v", s.Name, from, got, want)
		}
		for _, x := range ids {
			if got, want := s.reachableExcluding(from, x), s.oracleReachableExcluding(from, x); !maps.Equal(got, want) {
				t.Fatalf("%s: reachableExcluding(%s, %q) = %v, oracle %v", s.Name, from, x, got, want)
			}
			if got, want := s.canReachEndExcluding(from, x), s.oracleCanReachEndExcluding(from, x); got != want {
				t.Fatalf("%s: canReachEndExcluding(%s, %q) = %v, oracle %v", s.Name, from, x, got, want)
			}
			if got, want := s.ControlDep(from, x), s.oracleControlDep(from, x); got != want {
				t.Fatalf("%s: ControlDep(%s, %q) = %v, oracle %v", s.Name, from, x, got, want)
			}
		}
	}
	got, want := s.ControlClosure(), s.oracleControlClosure()
	if !maps.EqualFunc(got, want, maps.Equal) {
		t.Fatalf("%s: ControlClosure = %v, oracle %v", s.Name, got, want)
	}
}
