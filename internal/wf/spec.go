// Package wf defines the workflow model of §II of the paper: a workflow is a
// directed graph of tasks with one 0-indegree start node and 0-outdegree end
// nodes. A node with more than one outgoing edge is a choice (dominant) node
// that selects exactly one successor at run time — branches are alternative
// execution paths, not parallelism. Cycles are allowed; repeated visits to
// the same node are distinct task instances t_i^1, t_i^2, …
//
// The package also provides the static graph analyses the recovery theory
// needs: reachability, unavoidable nodes, and the control-dependence
// relation →_c with its transitive closure (§II.D).
package wf

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"selfheal/internal/data"
)

// TaskID names a task (a node of the workflow graph).
type TaskID string

// ComputeFunc derives the values a task writes from the values it reads.
// The returned map must assign a value to every key in the task's write set;
// missing keys default to 0. Deterministic compute functions are required
// for strict-correct recovery (redo must be able to reproduce clean results).
type ComputeFunc func(reads map[data.Key]data.Value) map[data.Key]data.Value

// ChooseFunc selects the successor of a choice node from the values the task
// read. It must return one of the node's declared successors.
type ChooseFunc func(reads map[data.Key]data.Value) TaskID

// Task is one node of a workflow specification.
type Task struct {
	// ID is the task's name, unique within the workflow.
	ID TaskID
	// Next lists the immediate successors. Empty for end nodes. A task
	// with more than one successor is a choice node and must set Choose
	// or a branch in Body.
	Next []TaskID
	// Reads and Writes are the task's static read and write sets.
	Reads, Writes []data.Key
	// Compute produces the writes of a hand-built task; nil runs Body.
	Compute ComputeFunc
	// Choose picks the successor of a hand-built choice node; nil runs
	// Body's branch.
	Choose ChooseFunc
	// Body is the task's body as data: what wfjson and blueprints compile
	// to.
	Body Body
}

// Body is a task body as plain data — SumCompute and ThresholdChoose
// without the closures — so a compiled body holds no pointer and costs no
// allocation beyond the spec's one task array.
type Body struct {
	// Bias is the sum body's constant.
	Bias data.Value
	// Threshold, Key, Low and High are a choice node's threshold branch,
	// declared by Branch: take Next[Low] when the value of Reads[Key] is
	// below Threshold, Next[High] otherwise. A Key past the end of Reads
	// names a key the task does not read, which reads as 0.
	Threshold data.Value
	// Sum marks the sum body: every key of Writes gets the sum of the
	// values read, plus Bias, plus the key's index in Writes. Without Sum
	// or Compute a task writes zeros.
	Sum            bool
	Branch         bool
	Key, Low, High uint8
}

// Eval runs the task's body over reads, the values the task read (a key
// missing from reads reads as 0): it calls write once per entry of Writes,
// in order, with the value the body writes there, and returns the successor
// the task takes (Successor). The body is Compute when set, else the sum
// body when Body.Sum is set, else zeros. It is the one evaluator every
// runtime executes, redoes and verifies a task with.
func (t *Task) Eval(reads map[data.Key]data.Value, write func(data.Key, data.Value)) TaskID {
	switch {
	case t.Compute != nil:
		out := t.Compute(reads)
		for _, k := range t.Writes {
			write(k, out[k])
		}
	case t.Body.Sum:
		sum := t.Body.Bias
		for _, v := range reads {
			sum += v
		}
		for i, k := range t.Writes {
			write(k, sum+data.Value(i))
		}
	default:
		for _, k := range t.Writes {
			write(k, 0)
		}
	}
	return t.Successor(reads)
}

// Successor returns the task the run takes after t given the values t read:
// "" at an end node, the one successor of a plain node, and for a choice
// node what Choose picks when set, else what Body's branch picks.
func (t *Task) Successor(reads map[data.Key]data.Value) TaskID {
	switch {
	case len(t.Next) == 0:
		return ""
	case len(t.Next) == 1:
		return t.Next[0]
	case t.Choose != nil:
		return t.Choose(reads)
	}
	b := t.Body
	var v data.Value
	if int(b.Key) < len(t.Reads) {
		v = reads[t.Reads[b.Key]]
	}
	if v < b.Threshold {
		return t.Next[b.Low]
	}
	return t.Next[b.High]
}

// BranchOn declares the task's threshold branch: take low when the value of
// key is below threshold, high otherwise. Both must be successors of t.
func (t *Task) BranchOn(key data.Key, threshold data.Value, low, high TaskID) error {
	lo, hi := slices.Index(t.Next, low), slices.Index(t.Next, high)
	if lo < 0 || hi < 0 || max(lo, hi) > math.MaxUint8 {
		return fmt.Errorf("wf: task %q branches to %q/%q, not both among its successors %v", t.ID, low, high, t.Next)
	}
	k := slices.Index(t.Reads, key)
	if k < 0 {
		k = math.MaxUint8 // not read: reads as 0
	} else if k >= math.MaxUint8 {
		return fmt.Errorf("wf: task %q branches on its read number %d; at most %d are addressable", t.ID, k, math.MaxUint8)
	}
	t.Body.Branch, t.Body.Threshold = true, threshold
	t.Body.Key, t.Body.Low, t.Body.High = uint8(k), uint8(lo), uint8(hi)
	return nil
}

// chooses reports whether the task declares a branch selection.
func (t *Task) chooses() bool { return t.Choose != nil || t.Body.Branch }

// Spec is a complete workflow specification.
type Spec struct {
	// Name identifies the workflow.
	Name string
	// Start is the 0-indegree entry task.
	Start TaskID
	// Tasks holds the task definitions sorted by ID, one array per spec.
	Tasks []Task

	// footprint caches Footprint once the spec is sealed (Interner.Seal).
	footprint []data.Key
}

// Task returns the task named id, or nil if the spec has none.
func (s *Spec) Task(id TaskID) *Task {
	i, ok := slices.BinarySearchFunc(s.Tasks, id, func(t Task, id TaskID) int {
		return strings.Compare(string(t.ID), string(id))
	})
	if !ok {
		return nil
	}
	return &s.Tasks[i]
}

// SortTasks puts tasks in the order Spec.Tasks keeps: by ID.
func SortTasks(tasks []Task) {
	slices.SortFunc(tasks, func(a, b Task) int { return strings.Compare(string(a.ID), string(b.ID)) })
}

// Validate checks the structural invariants of the specification: tasks are
// sorted by unique ID, the start task exists and has no predecessors, every
// edge endpoint exists, choice nodes choose (Choose or a branch whose
// successor indexes are in range), non-choice nodes do not, every task is
// reachable from the start, and at least one end node is reachable.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("wf: workflow has no name")
	}
	if len(s.Tasks) == 0 {
		return fmt.Errorf("wf %s: no tasks", s.Name)
	}
	// Task looks tasks up by binary search, so the order comes first.
	for i := 1; i < len(s.Tasks); i++ {
		if prev, id := s.Tasks[i-1].ID, s.Tasks[i].ID; prev == id {
			return fmt.Errorf("wf %s: duplicate task %q", s.Name, id)
		} else if prev > id {
			return fmt.Errorf("wf %s: task %q listed after %q (tasks are sorted by ID)", s.Name, id, prev)
		}
	}
	if s.Task(s.Start) == nil {
		return fmt.Errorf("wf %s: start task %q not defined", s.Name, s.Start)
	}
	indeg := make(map[TaskID]int, len(s.Tasks))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		id := t.ID
		seen := make(map[TaskID]bool, len(t.Next))
		for _, n := range t.Next {
			if s.Task(n) == nil {
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
	reach := s.ReachableFrom(s.Start)
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

// Ends returns the 0-outdegree tasks, sorted by ID.
func (s *Spec) Ends() []TaskID {
	var out []TaskID
	for _, t := range s.Tasks {
		if len(t.Next) == 0 {
			out = append(out, t.ID)
		}
	}
	return out
}

// ReachableFrom returns the set of tasks reachable from id, including id.
func (s *Spec) ReachableFrom(id TaskID) map[TaskID]bool {
	return s.reachableExcluding(id, "")
}

// reachableExcluding computes reachability from id while treating the task
// `excluded` as removed from the graph. An empty exclusion removes nothing.
func (s *Spec) reachableExcluding(id, excluded TaskID) map[TaskID]bool {
	seen := make(map[TaskID]bool)
	if id == excluded {
		return seen
	}
	stack := []TaskID{id}
	seen[id] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range s.Task(cur).Next {
			if n == excluded || seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, n)
		}
	}
	return seen
}

// canReachEndExcluding reports whether some end node is reachable from `from`
// when task `excluded` is removed from the graph.
func (s *Spec) canReachEndExcluding(from, excluded TaskID) bool {
	reach := s.reachableExcluding(from, excluded)
	for id := range reach {
		if len(s.Task(id).Next) == 0 {
			return true
		}
	}
	return false
}

// Unavoidable reports whether every execution path from the start to an end
// node passes through id (§II.D: an unavoidable node exists in all execution
// paths). The start node is always unavoidable.
func (s *Spec) Unavoidable(id TaskID) bool {
	if id == s.Start {
		return true
	}
	return !s.canReachEndExcluding(s.Start, id)
}

// ControlDep reports whether to is control dependent on from (from →_c to,
// §II.D): from is a choice node on a path to to, and to is avoidable from
// from — i.e. from can still complete the workflow without ever executing
// to. Dominant nodes are exactly the choice nodes whose decision determines
// whether to executes.
func (s *Spec) ControlDep(from, to TaskID) bool {
	f := s.Task(from)
	if f == nil || len(f.Next) <= 1 {
		return false
	}
	if from == to {
		return false
	}
	if !s.ReachableFrom(from)[to] {
		return false
	}
	// to is avoidable from from: some end remains reachable with to removed.
	return s.canReachEndExcluding(from, to)
}

// ControlClosure returns the transitive closure →_c* as a map from each
// choice node to the set of tasks transitively control dependent on it.
// The relation →_c is transitive per §II.D, and since every element of a
// →_c chain is itself directly control dependent on the head in this graph
// model, the closure equals the union of direct dependences reachable
// through intermediate choice nodes.
func (s *Spec) ControlClosure() map[TaskID]map[TaskID]bool {
	direct := make(map[TaskID]map[TaskID]bool)
	for _, from := range s.ChoiceNodes() {
		set := make(map[TaskID]bool)
		for _, to := range s.Tasks {
			if s.ControlDep(from, to.ID) {
				set[to.ID] = true
			}
		}
		if len(set) > 0 {
			direct[from] = set
		}
	}
	// Transitive closure over the direct relation.
	changed := true
	for changed {
		changed = false
		for from, set := range direct {
			for mid := range set {
				for to := range direct[mid] {
					if !set[to] {
						set[to] = true
						changed = true
					}
				}
			}
			_ = from
		}
	}
	return direct
}

// ChoiceNodes returns the IDs of all choice (dominant) nodes, sorted.
func (s *Spec) ChoiceNodes() []TaskID {
	var out []TaskID
	for _, t := range s.Tasks {
		if len(t.Next) > 1 {
			out = append(out, t.ID)
		}
	}
	return out
}

// Paths enumerates execution paths from the start to any end node, visiting
// no node more than maxVisits times (cycles make the path set infinite;
// maxVisits bounds the enumeration). Paths are returned in DFS order
// following each node's Next order.
func (s *Spec) Paths(maxVisits int) [][]TaskID {
	if maxVisits < 1 {
		maxVisits = 1
	}
	var out [][]TaskID
	visits := make(map[TaskID]int)
	var cur []TaskID
	var dfs func(id TaskID)
	dfs = func(id TaskID) {
		if visits[id] >= maxVisits {
			return
		}
		visits[id]++
		cur = append(cur, id)
		if next := s.Task(id).Next; len(next) == 0 {
			path := make([]TaskID, len(cur))
			copy(path, cur)
			out = append(out, path)
		} else {
			for _, n := range next {
				dfs(n)
			}
		}
		cur = cur[:len(cur)-1]
		visits[id]--
	}
	dfs(s.Start)
	return out
}
