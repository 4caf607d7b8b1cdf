// Package baseline implements the recovery strategies the paper compares
// against (§I, §VII): checkpoint/rollback recovery, which rewinds the whole
// system to a snapshot and discards every piece of work committed after it —
// malicious and legitimate alike — and the degenerate "redo everything since
// the attack" strategy (a perfect checkpoint taken exactly before the first
// malicious commit).
//
// Benchmarks compare the work these baselines discard and re-execute with
// the undo/redo sets of the dependency-based recovery of internal/recovery.
package baseline

import (
	"context"
	"fmt"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Result reports one rollback recovery.
type Result struct {
	// CheckpointLSN is the restore point (0 = initial state).
	CheckpointLSN int
	// Discarded counts the committed entries rolled away.
	Discarded int
	// ReExecuted counts the task executions performed to complete the
	// workload again after the rollback.
	ReExecuted int
	// Store is the post-recovery store.
	Store *data.Store
	// Log is the post-recovery log (prefix + re-execution).
	Log *wlog.Log
}

// LastCheckpointBefore returns the largest checkpoint LSN (a multiple of
// interval) strictly below the earliest malicious commit. It returns 0 (the
// initial state) when no checkpoint precedes the attack.
func LastCheckpointBefore(log *wlog.Log, bad []wlog.InstanceID, interval int) (int, error) {
	if interval < 1 {
		return 0, fmt.Errorf("baseline: checkpoint interval must be ≥ 1, got %d", interval)
	}
	minBad := log.Len() + 1
	for _, id := range bad {
		e, ok := log.Get(id)
		if !ok {
			return 0, fmt.Errorf("baseline: malicious instance %s not in log", id)
		}
		if e.LSN < minBad {
			minBad = e.LSN
		}
	}
	cp := ((minBad - 1) / interval) * interval
	return cp, nil
}

// RollbackRecover rewinds the system to checkpointLSN and re-executes every
// registered run from its checkpointed frontier to completion with benign
// task code. initial supplies the pre-history values (the same Init calls
// the original execution used).
func RollbackRecover(log *wlog.Log, specs map[string]*wf.Spec, initial map[data.Key]data.Value, checkpointLSN int, maxSteps int) (*Result, error) {
	if checkpointLSN < 0 || checkpointLSN > log.Len() {
		return nil, fmt.Errorf("baseline: checkpoint LSN %d out of range [0,%d]", checkpointLSN, log.Len())
	}
	st := data.NewStore()
	for k, v := range initial {
		st.Init(k, v)
	}
	newLog := wlog.New()
	eng := engine.New(st, newLog)

	// Rebuild the checkpoint prefix verbatim: entries keep their LSNs
	// (the new log assigns them densely in the same order) and their
	// recorded writes land at the same positions.
	entries := log.Entries()
	res := &Result{CheckpointLSN: checkpointLSN, Store: st, Log: newLog}
	for _, e := range entries {
		if e.LSN > checkpointLSN {
			res.Discarded++
			continue
		}
		cp := &wlog.Entry{
			Run:    e.Run,
			Task:   e.Task,
			Visit:  e.Visit,
			Forged: e.Forged,
			Reads:  e.Reads,
			Writes: e.Writes,
			Chosen: e.Chosen,
		}
		lsn, err := newLog.Append(cp)
		if err != nil {
			return nil, fmt.Errorf("baseline: rebuild prefix: %w", err)
		}
		if lsn != e.LSN {
			return nil, fmt.Errorf("baseline: prefix LSN drifted: %d != %d", lsn, e.LSN)
		}
		for _, w := range e.Writes {
			st.Write(w.Key, w.Value, float64(lsn), string(cp.ID()), false)
		}
	}

	// Restart every run from its checkpointed frontier and complete it.
	var runs []*engine.Run
	for _, runID := range log.Runs() {
		spec, ok := specs[runID]
		if !ok {
			continue // forged-only pseudo-runs have nothing to re-execute
		}
		r, err := eng.NewRun(runID, spec)
		if err != nil {
			return nil, err
		}
		cur, done := frontierAt(newLog, runID, spec)
		if err := eng.Resync(r, cur, done); err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	before := newLog.Len()
	if err := eng.Interleave(context.Background(), runs, nil, maxSteps); err != nil {
		return nil, fmt.Errorf("baseline: re-execution: %w", err)
	}
	res.ReExecuted = newLog.Len() - before
	return res, nil
}

// frontierAt computes where a run stood in the (rebuilt prefix) log: the
// task it would execute next, or done.
func frontierAt(log *wlog.Log, run string, spec *wf.Spec) (wf.TaskID, bool) {
	trace := log.Trace(run, false)
	if len(trace) == 0 {
		return spec.Start, false
	}
	last := trace[len(trace)-1]
	task := spec.Task(last.Task)
	switch {
	case len(task.Next) == 0:
		return "", true
	case len(task.Next) == 1:
		return task.Next[0], false
	default:
		return last.Chosen, false
	}
}

// RedoAllSinceAttack is the best case for rollback recovery: a perfect
// checkpoint taken immediately before the first malicious commit.
func RedoAllSinceAttack(log *wlog.Log, specs map[string]*wf.Spec, initial map[data.Key]data.Value, bad []wlog.InstanceID, maxSteps int) (*Result, error) {
	cp, err := LastCheckpointBefore(log, bad, 1)
	if err != nil {
		return nil, err
	}
	return RollbackRecover(log, specs, initial, cp, maxSteps)
}
