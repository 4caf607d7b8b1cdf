package wf

import (
	"fmt"
	"sort"

	"selfheal/internal/data"
)

// Warning is a non-fatal specification finding from Lint.
type Warning struct {
	// Task is the task the finding concerns (empty for spec-level).
	Task TaskID
	// Msg describes the finding.
	Msg string
}

func (w Warning) String() string {
	if w.Task == "" {
		return w.Msg
	}
	return fmt.Sprintf("%s: %s", w.Task, w.Msg)
}

// Lint reports specification smells that Validate accepts but that weaken
// attack recovery or indicate design mistakes:
//
//   - a choice node that writes nothing: its branch decision cannot be
//     reconstructed from the store after compaction, and a corrupted
//     decision leaves no data trail (only the log's Chosen field);
//   - a task whose writes nobody reads and that is not an end node: dead
//     data that still inflates undo sets;
//   - a task reading a key no task writes (it reads only initial values);
//   - a cycle with no choice node inside it: the workflow can never leave
//     the loop.
func Lint(s *Spec) []Warning {
	var out []Warning
	if err := s.Validate(); err != nil {
		return []Warning{{Msg: fmt.Sprintf("invalid specification: %v", err)}}
	}

	writers := make(map[data.Key]bool)
	readers := make(map[data.Key]bool)
	for _, t := range s.Tasks {
		for _, k := range t.Writes {
			writers[k] = true
		}
		for _, k := range t.Reads {
			readers[k] = true
		}
	}

	for i := range s.Tasks {
		t := &s.Tasks[i]
		id := t.ID
		if len(t.Next) > 1 && len(t.Writes) == 0 {
			out = append(out, Warning{Task: id,
				Msg: "choice node writes nothing: its decision leaves no data trail for recovery"})
		}
		if len(t.Next) > 0 {
			unread := true
			for _, k := range t.Writes {
				if readers[k] {
					unread = false
					break
				}
			}
			if unread && len(t.Writes) > 0 {
				out = append(out, Warning{Task: id,
					Msg: "writes are never read by any task: dead data that still inflates undo sets"})
			}
		}
		for _, k := range t.Reads {
			if !writers[k] {
				out = append(out, Warning{Task: id,
					Msg: fmt.Sprintf("reads %q, which no task writes (initial value only)", k)})
			}
		}
	}

	// Cycles without an interior choice node never terminate. Detect
	// strongly connected components of size > 1 (or self loops) whose
	// nodes are all single-successor.
	for _, comp := range sccs(s) {
		if len(comp) < 2 {
			continue
		}
		hasChoice := false
		for _, id := range comp {
			if len(s.Task(id).Next) > 1 {
				hasChoice = true
				break
			}
		}
		if !hasChoice {
			sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
			out = append(out, Warning{
				Msg: fmt.Sprintf("cycle %v has no choice node: the workflow can never leave it", comp),
			})
		}
	}
	return out
}

// sccs returns the strongly connected components of the workflow graph
// (Tarjan's algorithm, iterative bookkeeping via recursion over small specs).
func sccs(s *Spec) [][]TaskID {
	index := make(map[TaskID]int)
	low := make(map[TaskID]int)
	onStack := make(map[TaskID]bool)
	var stack []TaskID
	var out [][]TaskID
	next := 0

	var strong func(v TaskID)
	strong = func(v TaskID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range s.Task(v).Next {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []TaskID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, t := range s.Tasks {
		if _, seen := index[t.ID]; !seen {
			strong(t.ID)
		}
	}
	return out
}
