// Package privacy implements the specification-protection idea the paper
// closes §VII with: in decentralized deployments where workflow
// specifications must not be exposed to every node (the Chinese-wall
// setting it cites), "the specification can be best protected by exposing
// only dependence relations to the recovery system".
//
// Project strips a workflow specification down to exactly what the damage
// analysis needs — the task graph and the static read/write sets — and
// replaces the task bodies and branch logic with opaque stubs. The recovery
// analyzer (Theorems 1 and 2, the partial orders of Theorem 3) runs
// unchanged on the projection; re-execution, which needs the real bodies,
// remains with the specification's owner.
package privacy

import (
	"fmt"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

// ErrOpaque is the panic value raised when recovery execution reaches a
// projected task body: analysis-only views cannot re-execute tasks.
type ErrOpaque struct {
	Spec string
	Task wf.TaskID
}

func (e *ErrOpaque) Error() string {
	return fmt.Sprintf("privacy: task %s of %s is an analysis-only projection; re-execution requires the specification owner", e.Task, e.Spec)
}

// Project returns the dependence-only view of a specification: the same
// graph, the same read/write sets, but opaque Compute and Choose stubs.
// The projection passes wf.Spec validation, so it flows through every
// analysis API; invoking a stub panics with *ErrOpaque.
func Project(s *wf.Spec) *wf.Spec {
	out := &wf.Spec{
		Name:  s.Name,
		Start: s.Start,
		Tasks: make([]wf.Task, len(s.Tasks)),
	}
	for i, t := range s.Tasks {
		id := t.ID
		out.Tasks[i] = wf.Task{
			ID:     id,
			Next:   append([]wf.TaskID(nil), t.Next...),
			Reads:  append([]data.Key(nil), t.Reads...),
			Writes: append([]data.Key(nil), t.Writes...),
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				panic(&ErrOpaque{Spec: s.Name, Task: id})
			},
		}
		if len(t.Next) > 1 {
			out.Tasks[i].Choose = func(map[data.Key]data.Value) wf.TaskID {
				panic(&ErrOpaque{Spec: s.Name, Task: id})
			}
		}
	}
	return out
}

// ProjectAll projects a run→spec map.
func ProjectAll(specs map[string]*wf.Spec) map[string]*wf.Spec {
	out := make(map[string]*wf.Spec, len(specs))
	for run, s := range specs {
		out[run] = Project(s)
	}
	return out
}
