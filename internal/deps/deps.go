// Package deps computes the dependence relations of §II.C–D from the system
// log: flow (→_f), anti-flow (→_a) and output (→_o) data dependencies with
// intervening-writer masking, their closures, and the instance-level view of
// static control dependence (→_c, →_c*).
//
// Because the log records the exact version every read observed, flow
// dependencies are exact rather than approximated from static read/write
// sets: t_i →_f t_j holds precisely when t_j read a version t_i wrote that
// no intervening task overwrote — the masked form of Definition 1.
//
// The relations are maintained by IncrementalGraph (incremental.go), an
// O(Δ)-per-commit structure; Build is the batch form (fold the whole log,
// snapshot once) and Graph is the immutable snapshot view both produce.
package deps

import (
	"math"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Edge is one dependence edge between two task instances.
type Edge struct {
	From, To wlog.InstanceID
	Key      data.Key
}

// Graph is an immutable snapshot of the data-dependence relations of a log
// prefix: edges and closures never include entries committed after the
// snapshot's epoch. Obtained from Build (whole log, batch) or
// IncrementalGraph.Snapshot (consistent prefix of a growing log).
type Graph struct {
	g     *folded // the generation the snapshot pinned
	epoch int
	n     int // entries folded at the snapshot: successor ordinals < n are in view
}

// Build extracts all data-dependence relations from the log by folding every
// entry into a fresh incremental graph and snapshotting it.
func Build(log *wlog.Log) *Graph {
	g := newIncremental(Frontier{})
	for _, e := range log.Entries() {
		g.Append(e)
	}
	return g.Snapshot()
}

// Epoch returns the LSN of the last entry the snapshot covers.
func (g *Graph) Epoch() int { return g.epoch }

// Flow returns the →_f edges in deterministic order (successor commit order,
// then key). The graph stores adjacency only; edge lists are derived on
// demand by re-folding the snapshot's prefix — O(prefix), for rendering and
// tests, not for analysis.
func (g *Graph) Flow() []Edge { return g.g.edgesAt(relFlow, g.n) }

// Anti returns the →_a edges (derived like Flow).
func (g *Graph) Anti() []Edge { return g.g.edgesAt(relAnti, g.n) }

// Output returns the →_o edges (derived like Flow).
func (g *Graph) Output() []Edge { return g.g.edgesAt(relOutput, g.n) }

// HasFlow reports from →_f to, by scanning from's successors.
func (g *Graph) HasFlow(from, to wlog.InstanceID) bool {
	found := false
	g.FlowSuccessors(from, func(s wlog.InstanceID) { found = found || s == to })
	return found
}

// FlowSuccessors invokes fn for each direct →_f successor of from, in commit
// order, once per edge (per-key multiplicity preserved).
func (g *Graph) FlowSuccessors(from wlog.InstanceID, fn func(to wlog.InstanceID)) {
	g.g.succAt(relFlow, from, g.n, fn)
}

// AntiSuccessors invokes fn for each direct →_a successor of from.
func (g *Graph) AntiSuccessors(from wlog.InstanceID, fn func(to wlog.InstanceID)) {
	g.g.succAt(relAnti, from, g.n, fn)
}

// OutputSuccessors invokes fn for each direct →_o successor of from.
func (g *Graph) OutputSuccessors(from wlog.InstanceID, fn func(to wlog.InstanceID)) {
	g.g.succAt(relOutput, from, g.n, fn)
}

// ReadersClosure returns every instance that transitively read data written
// by an instance in seed: the →_f* closure, i.e. condition 3 of Theorem 1.
// Seed members are included in the result. Large graphs are traversed by a
// sharded worker-pool BFS (closure.go).
func (g *Graph) ReadersClosure(seed map[wlog.InstanceID]bool) map[wlog.InstanceID]bool {
	if len(seed) == 0 {
		return map[wlog.InstanceID]bool{}
	}
	return g.g.closureAt(seed, g.n)
}

// ControlView maps static control dependence onto the instances of one run:
// guard →_c* dependent, restricted to instances where the guard committed
// before the dependent (only a decision already taken can have steered a
// later task onto the path).
type ControlView struct {
	// Deps maps each choice-node instance to the set of instances in the
	// same run transitively control dependent on it.
	Deps map[wlog.InstanceID]map[wlog.InstanceID]bool
}

// BuildControl computes the instance-level control-dependence view for a
// run executing spec.
func BuildControl(log *wlog.Log, run string, spec *wf.Spec) *ControlView {
	return BuildControlAt(log, run, spec, math.MaxInt)
}

// BuildControlAt is BuildControl restricted to entries with LSN ≤ maxLSN —
// the log prefix a dependence snapshot covers.
func BuildControlAt(log *wlog.Log, run string, spec *wf.Spec, maxLSN int) *ControlView {
	closure := spec.ControlClosure()
	trace := log.Trace(run, false)
	cv := &ControlView{Deps: make(map[wlog.InstanceID]map[wlog.InstanceID]bool)}
	for _, g := range trace {
		if g.LSN > maxLSN {
			break
		}
		dep, ok := closure[g.Task]
		if !ok {
			continue
		}
		set := make(map[wlog.InstanceID]bool)
		for _, e := range trace {
			if e.LSN > maxLSN {
				break
			}
			if e.LSN > g.LSN && dep[e.Task] {
				set[e.ID()] = true
			}
		}
		if len(set) > 0 {
			cv.Deps[g.ID()] = set
		}
	}
	return cv
}

// UnexecutedControlled returns, for a choice-node task guard in spec, the
// tasks transitively control dependent on the guard that never appear in the
// run's trace — the t_k ∉ L of condition 4 of Theorem 1.
func UnexecutedControlled(log *wlog.Log, run string, spec *wf.Spec, guard wf.TaskID) []wf.TaskID {
	return UnexecutedControlledAt(log, run, spec, guard, math.MaxInt)
}

// UnexecutedControlledAt is UnexecutedControlled restricted to entries with
// LSN ≤ maxLSN.
func UnexecutedControlledAt(log *wlog.Log, run string, spec *wf.Spec, guard wf.TaskID, maxLSN int) []wf.TaskID {
	closure := spec.ControlClosure()[guard]
	if len(closure) == 0 {
		return nil
	}
	executed := make(map[wf.TaskID]bool)
	for _, e := range log.Trace(run, false) {
		if e.LSN > maxLSN {
			break
		}
		executed[e.Task] = true
	}
	var out []wf.TaskID
	for task := range closure {
		if !executed[task] {
			out = append(out, task)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PotentialFlowFromUnexecuted returns the logged instances that read a key
// in the static write set of the unexecuted task tk — the t_j of condition 4
// of Theorem 1 (t_k →_f* t_j is necessarily approximated by static write
// sets because t_k never ran). Only direct potential readers are returned;
// the repair engine closes transitively once actual values exist.
func PotentialFlowFromUnexecuted(log *wlog.Log, spec *wf.Spec, tk wf.TaskID) []wlog.InstanceID {
	return PotentialFlowFromUnexecutedAt(log, spec, tk, math.MaxInt)
}

// PotentialFlowFromUnexecutedAt is PotentialFlowFromUnexecuted restricted to
// entries with LSN ≤ maxLSN.
func PotentialFlowFromUnexecutedAt(log *wlog.Log, spec *wf.Spec, tk wf.TaskID, maxLSN int) []wlog.InstanceID {
	task := spec.Task(tk)
	if task == nil {
		return nil
	}
	writes := make(map[data.Key]bool, len(task.Writes))
	for _, k := range task.Writes {
		writes[k] = true
	}
	var out []wlog.InstanceID
	for _, e := range log.Entries() {
		if e.LSN > maxLSN {
			break
		}
		for _, r := range e.Reads {
			if writes[r.Key] {
				out = append(out, e.ID())
				break
			}
		}
	}
	return out
}
