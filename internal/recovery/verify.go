package recovery

import (
	"fmt"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// VerifyResult checks the intrinsic validity of a repaired history against
// Definition 2 of the paper, without needing a clean reference execution
// (which, for interleaved runs over shared data, is not unique):
//
//   - Completeness: no version in the repaired store was written by an
//     undone instance, and every version's writer is either an initial
//     version, a corrected-history action, or a logged instance that was
//     kept.
//   - No incorrect data: for every corrected-history action, re-deriving
//     the task's outputs from the values visible at the action's effective
//     position reproduces exactly the stored versions (benign Compute —
//     corrupt survivors fail this check).
//   - Consistency with the specification: each run's corrected sequence
//     follows the workflow graph from the start node, and every choice
//     node's successor equals what Choose selects on the corrected reads.
//
// It returns one error per violation; empty means the repair is valid.
func VerifyResult(res *Result, log *wlog.Log, specs map[string]*wf.Spec) []error {
	var errs []error
	st := res.Store

	undone := make(map[string]bool, len(res.Undone))
	for _, id := range res.Undone {
		undone[string(id)] = true
	}

	// Index corrected actions per run in epos order.
	perRun := make(map[string][]Action)
	writers := make(map[string]Action)
	for _, a := range res.Schedule {
		if a.Kind == ActUndo {
			continue
		}
		perRun[a.Run] = append(perRun[a.Run], a)
		writers[string(a.Inst)] = a
	}
	for run := range perRun {
		actions := perRun[run]
		sort.Slice(actions, func(i, j int) bool { return actions[i].Epos < actions[j].Epos })
		perRun[run] = actions
	}

	// Completeness: inspect every version in the store.
	for _, k := range st.Keys() {
		for _, v := range st.Chain(k) {
			if v.Writer == "" {
				continue // initial version
			}
			if undone[v.Writer] && !v.Recovery {
				errs = append(errs, fmt.Errorf(
					"completeness: %s still holds a version written by undone instance %s", k, v.Writer))
				continue
			}
			if _, ok := writers[v.Writer]; !ok {
				errs = append(errs, fmt.Errorf(
					"completeness: %s holds a version from %s, which is not part of the corrected history", k, v.Writer))
			}
		}
	}

	// Per-run sequence and value checks.
	for run, actions := range perRun {
		spec, ok := specs[run]
		if !ok {
			errs = append(errs, fmt.Errorf("verify: run %s has no spec", run))
			continue
		}
		cur := spec.Start
		for i, a := range actions {
			if a.Task != cur {
				errs = append(errs, fmt.Errorf(
					"spec: run %s action %d is %s, expected %s", run, i, a.Task, cur))
				break
			}
			task := spec.Task(a.Task)

			// Value check: stored versions must equal the benign
			// recomputation over the reads visible at the action's
			// position.
			want := make(map[data.Key]data.Value, len(task.Writes))
			next := task.Eval(readsBefore(st, task.Reads, a.Epos), func(k data.Key, v data.Value) { want[k] = v })
			// The instance's versions: a redo writes the task's declared
			// keys, a kept instance the keys its log entry lists.
			keys := task.Writes
			if e, ok := log.Get(a.Inst); ok {
				keys = append(writeKeys(e), task.Writes...)
			}
			got := st.VersionsBy(string(a.Inst), keys)
			for _, k := range task.Writes {
				gv, ok := got[k]
				if !ok {
					errs = append(errs, fmt.Errorf(
						"values: %s wrote no version of %s", a.Inst, k))
					continue
				}
				if gv.Value != want[k] {
					errs = append(errs, fmt.Errorf(
						"values: %s stored %s=%d, benign recomputation gives %d",
						a.Inst, k, gv.Value, want[k]))
				}
			}
			for k := range got {
				if !containsKey(task.Writes, k) {
					errs = append(errs, fmt.Errorf(
						"values: %s wrote undeclared key %s", a.Inst, k))
				}
			}

			// Successor check.
			if len(task.Next) == 0 && i != len(actions)-1 {
				errs = append(errs, fmt.Errorf(
					"spec: run %s continues past end node %s", run, a.Task))
			}
			cur = next
		}
		// An originally complete run must be complete after repair.
		if trace := log.Trace(run, false); len(trace) > 0 {
			lastTask := trace[len(trace)-1].Task
			if len(spec.Task(lastTask).Next) == 0 && len(actions) > 0 {
				finalTask := actions[len(actions)-1].Task
				if len(spec.Task(finalTask).Next) != 0 {
					errs = append(errs, fmt.Errorf(
						"spec: run %s was complete before repair but corrected history ends mid-workflow at %s", run, finalTask))
				}
			}
		}
	}
	return errs
}

func containsKey(keys []data.Key, k data.Key) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}
