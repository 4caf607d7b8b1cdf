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
	"sort"

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
	// with more than one successor is a choice node and must set Choose.
	Next []TaskID
	// Reads and Writes are the task's static read and write sets.
	Reads, Writes []data.Key
	// Compute produces the task's writes; nil means "write zeros".
	Compute ComputeFunc
	// Choose picks the successor for choice nodes; nil otherwise.
	Choose ChooseFunc

	// sum is the interned body behind Compute when an Interner compiled
	// the task; nil otherwise.
	sum *sumBody
}

// Spec is a complete workflow specification.
type Spec struct {
	// Name identifies the workflow.
	Name string
	// Start is the 0-indegree entry task.
	Start TaskID
	// Tasks maps IDs to task definitions.
	Tasks map[TaskID]*Task

	// footprint caches Footprint once the spec is sealed (Interner.Seal).
	footprint []data.Key
}

// Validate checks the structural invariants of the specification: the start
// task exists and has no predecessors, every edge endpoint exists, choice
// nodes have Choose functions, non-choice nodes do not, every task is
// reachable from the start, and at least one end node is reachable.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("wf: workflow has no name")
	}
	if len(s.Tasks) == 0 {
		return fmt.Errorf("wf %s: no tasks", s.Name)
	}
	start, ok := s.Tasks[s.Start]
	if !ok {
		return fmt.Errorf("wf %s: start task %q not defined", s.Name, s.Start)
	}
	_ = start
	indeg := make(map[TaskID]int, len(s.Tasks))
	for id, t := range s.Tasks {
		if t == nil {
			return fmt.Errorf("wf %s: task %q is nil", s.Name, id)
		}
		if t.ID != id {
			return fmt.Errorf("wf %s: task map key %q != task ID %q", s.Name, id, t.ID)
		}
		seen := make(map[TaskID]bool, len(t.Next))
		for _, n := range t.Next {
			if _, ok := s.Tasks[n]; !ok {
				return fmt.Errorf("wf %s: task %q has edge to undefined task %q", s.Name, id, n)
			}
			if seen[n] {
				return fmt.Errorf("wf %s: task %q has duplicate edge to %q", s.Name, id, n)
			}
			seen[n] = true
			indeg[n]++
		}
		if len(t.Next) > 1 && t.Choose == nil {
			return fmt.Errorf("wf %s: choice task %q has no Choose function", s.Name, id)
		}
		if len(t.Next) <= 1 && t.Choose != nil {
			return fmt.Errorf("wf %s: non-choice task %q has a Choose function", s.Name, id)
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
	for id := range s.Tasks {
		if !reach[id] {
			return fmt.Errorf("wf %s: task %q unreachable from start", s.Name, id)
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
	for id, t := range s.Tasks {
		if len(t.Next) == 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
		for _, n := range s.Tasks[cur].Next {
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
		if len(s.Tasks[id].Next) == 0 {
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
	f, ok := s.Tasks[from]
	if !ok || len(f.Next) <= 1 {
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
	for from := range s.Tasks {
		if len(s.Tasks[from].Next) <= 1 {
			continue
		}
		set := make(map[TaskID]bool)
		for to := range s.Tasks {
			if s.ControlDep(from, to) {
				set[to] = true
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
	for id, t := range s.Tasks {
		if len(t.Next) > 1 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
		if len(s.Tasks[id].Next) == 0 {
			path := make([]TaskID, len(cur))
			copy(path, cur)
			out = append(out, path)
		} else {
			for _, n := range s.Tasks[id].Next {
				dfs(n)
			}
		}
		cur = cur[:len(cur)-1]
		visits[id]--
	}
	dfs(s.Start)
	return out
}
