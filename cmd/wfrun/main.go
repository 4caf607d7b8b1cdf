// Command wfrun executes a JSON workflow specification, optionally corrupts
// one of its tasks, and runs the dependency-based attack recovery over the
// resulting history — a REPL-sized demonstration of the full pipeline.
//
//	wfrun -spec workflow.json
//	wfrun -spec workflow.json -attack t1 -value 999
//
// With -attack, the named task's writes are overwritten with -value, the
// recovery analyzer is invoked with the task reported malicious, and the
// tool prints the damage analysis, the recovery schedule, and the repaired
// final state.
//
// The specification format (see internal/wfjson):
//
//	{
//	  "name": "demo", "start": "t1",
//	  "init": {"e": 0},
//	  "tasks": [
//	    {"id": "t1", "writes": ["a"], "bias": 1, "next": ["t2"]},
//	    {"id": "t2", "reads": ["a"], "writes": ["b"], "bias": 1,
//	     "next": ["t3", "t5"],
//	     "choose": {"key": "a", "threshold": 50, "low": "t5", "high": "t3"}},
//	    ...
//	  ]
//	}
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
	"selfheal/internal/wlogio"
)

func main() {
	var (
		specPath = flag.String("spec", "", "path to the JSON workflow specification (required)")
		attack   = flag.String("attack", "", "task to corrupt (visit 1)")
		value    = flag.Int64("value", 9999, "value the corrupted task writes")
		dump     = flag.String("dump", "", "write a JSON snapshot of the post-execution log and store to this file")
	)
	flag.Parse()
	if *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *specPath, *attack, data.Value(*value), *dump); err != nil {
		fmt.Fprintln(os.Stderr, "wfrun:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, specPath, attack string, corrupt data.Value, dump string) error {
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	defer f.Close()
	spec, init, err := wfjson.Decode(f)
	if err != nil {
		return err
	}

	for _, w := range wf.Lint(spec) {
		fmt.Fprintln(out, "lint:", w)
	}

	st := data.NewStore()
	for k, v := range init {
		st.Init(k, v)
	}
	eng := engine.New(st, wlog.New())
	if attack != "" {
		task, ok := spec.Tasks[wf.TaskID(attack)]
		if !ok {
			return fmt.Errorf("attack target %q not in workflow", attack)
		}
		writes := append([]data.Key(nil), task.Writes...)
		eng.AddAttack(engine.Attack{
			Run: "main", Task: task.ID,
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				out := make(map[data.Key]data.Value, len(writes))
				for _, k := range writes {
					out[k] = corrupt
				}
				return out
			},
		})
	}

	r, err := eng.NewRun("main", spec)
	if err != nil {
		return err
	}
	if err := eng.RunAll(context.Background(), r); err != nil {
		return err
	}

	fmt.Fprintf(out, "workflow %s executed: %d tasks committed\n", spec.Name, eng.Log().Len())
	fmt.Fprintln(out, "system log:")
	for _, e := range eng.Log().Entries() {
		fmt.Fprintf(out, "  %3d  %-14s reads:", e.LSN, e.ID())
		for _, r := range e.Reads {
			fmt.Fprintf(out, " %s=%d", r.Key, r.Value)
		}
		fmt.Fprint(out, "; writes:")
		for _, w := range e.Writes {
			fmt.Fprintf(out, " %s=%d", w.Key, w.Value)
		}
		if e.Chosen != "" {
			fmt.Fprintf(out, "  chose %s", e.Chosen)
		}
		fmt.Fprintln(out)
	}
	printState(out, "final state", eng.Store())

	if dump != "" {
		df, err := os.Create(dump)
		if err != nil {
			return err
		}
		if err := wlogio.Encode(df, eng.Log(), eng.Store()); err != nil {
			df.Close()
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot written to %s\n", dump)
	}

	if attack == "" {
		return nil
	}

	bad := []wlog.InstanceID{wlog.FormatInstance("main", wf.TaskID(attack), 1)}
	specs := map[string]*wf.Spec{"main": spec}
	res, err := recovery.Repair(eng.Store(), eng.Log(), specs, bad, recovery.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrecovery from IDS report %v:\n", bad)
	fmt.Fprintf(out, "  worst-case undo bound: %d instances\n", len(res.Analysis.WorstCaseUndo()))
	fmt.Fprintf(out, "  flow-damaged (Thm 1 cond 3): %v\n", res.Analysis.FlowDamaged)
	for g, c := range res.Analysis.CandidateUndo {
		fmt.Fprintf(out, "  candidate undo under %s (cond 2): %v\n", g, c)
	}
	for _, c := range res.Analysis.Cond4 {
		fmt.Fprintf(out, "  cond-4 candidate: %s stale if %s executes after redo(%s)\n",
			c.Reader, c.Unexecuted, c.Guard)
	}
	fmt.Fprintf(out, "  undone: %v\n", res.Undone)
	fmt.Fprintf(out, "  redone: %v\n", res.Redone)
	fmt.Fprintf(out, "  newly executed: %v\n", res.NewExecuted)
	fmt.Fprintf(out, "  dropped (not redone): %v\n", res.DroppedNotRedone)
	fmt.Fprintf(out, "  fixpoint iterations: %d\n", res.Iterations)
	fmt.Fprintln(out, "  recovery schedule:")
	for _, a := range res.Schedule {
		if a.Kind == recovery.ActKeep {
			continue
		}
		fmt.Fprintf(out, "    %-8s %-14s at position %.4g\n", a.Kind, a.Inst, a.Epos)
	}
	if errs := recovery.VerifyResult(res, eng.Log(), specs); len(errs) != 0 {
		for _, e := range errs {
			fmt.Fprintln(out, "  VERIFY FAIL:", e)
		}
		return fmt.Errorf("corrected history invalid")
	}
	printState(out, "repaired state", res.Store)
	return nil
}

func printState(out io.Writer, label string, st *data.Store) {
	snap := st.Snapshot()
	keys := make([]data.Key, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fmt.Fprintf(out, "%s:", label)
	for _, k := range keys {
		fmt.Fprintf(out, " %s=%d", k, snap[k])
	}
	fmt.Fprintln(out)
}
