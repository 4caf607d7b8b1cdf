package wf

import (
	"fmt"
	"math/rand"

	"selfheal/internal/data"
)

// GenConfig controls random workflow generation.
type GenConfig struct {
	// Tasks is the number of tasks (≥ 2).
	Tasks int
	// Keys is the size of the shared data-object pool (≥ 1).
	Keys int
	// MaxReads bounds each task's read-set size.
	MaxReads int
	// BranchProb is the probability that a non-terminal task becomes a
	// choice node with two successors.
	BranchProb float64
	// Cycles adds up to this many guarded back edges: the back-edge
	// source becomes a loop gate that counts its own visits in a
	// dedicated counter key and exits after CycleBound iterations, so
	// every generated workflow still terminates.
	Cycles int
	// CycleBound is the per-gate iteration limit; 0 means 2.
	CycleBound int
	// MaxWrites bounds each task's write-set size (GenerateBlueprint only;
	// 0 means 2). Generate keeps its historical 1-or-2 write sets so
	// seeded scenarios stay bit-identical across releases.
	MaxWrites int
	// Prefix namespaces the pool keys: PoolKey(i) is Prefix + "k<i>". Runs
	// generated with disjoint prefixes have disjoint key footprints, which
	// makes their combined attack-free final state order-independent — the
	// property the fuzzer's serial-execution oracle needs.
	Prefix string
}

// PoolKey returns the name of pool key i under the configured prefix.
func (c GenConfig) PoolKey(i int) data.Key {
	return data.Key(fmt.Sprintf("%sk%d", c.Prefix, i))
}

// DefaultGenConfig returns a configuration producing medium-sized branched
// workflows.
func DefaultGenConfig() GenConfig {
	return GenConfig{Tasks: 12, Keys: 8, MaxReads: 3, BranchProb: 0.35}
}

// Generate builds a random acyclic workflow from cfg using rng. Tasks are
// t0..tN-1 in topological order with forward-only edges, so every generated
// workflow terminates. Every task beyond t0 has at least one predecessor and
// t0 is the unique start. Compute functions are value-sensitive sums
// (SumCompute) with a per-task bias so corrupted inputs propagate visibly;
// choice nodes branch on their first read key (or deterministically take the
// first branch when they read nothing).
//
// KeyName(i) names the pool keys; callers must Init every pool key before
// executing generated workflows, since read sets are arbitrary.
func Generate(name string, cfg GenConfig, rng *rand.Rand) *Spec {
	if cfg.Tasks < 2 {
		cfg.Tasks = 2
	}
	if cfg.Keys < 1 {
		cfg.Keys = 1
	}
	ids := make([]TaskID, cfg.Tasks)
	for i := range ids {
		ids[i] = TaskID(fmt.Sprintf("t%d", i))
	}
	// tasks[i] is ids[i] until the final sort.
	tasks := make([]Task, cfg.Tasks)
	for i, id := range ids {
		t := &tasks[i]
		t.ID = id
		// Read set: random subset of the pool.
		nr := rng.Intn(cfg.MaxReads + 1)
		seen := make(map[data.Key]bool, nr)
		for len(t.Reads) < nr {
			k := cfg.PoolKey(rng.Intn(cfg.Keys))
			if !seen[k] {
				seen[k] = true
				t.Reads = append(t.Reads, k)
			}
		}
		// Write set: one or two pool keys.
		w1 := cfg.PoolKey(rng.Intn(cfg.Keys))
		t.Writes = []data.Key{w1}
		if rng.Float64() < 0.3 {
			if w2 := cfg.PoolKey(rng.Intn(cfg.Keys)); w2 != w1 {
				t.Writes = append(t.Writes, w2)
			}
		}
		t.Compute = SumCompute(data.Value(7*i+1), t.Writes...)
	}
	// Forward edges: each task i>0 gets one incoming edge from a random
	// earlier task; then optional branching out-edges.
	for i := 1; i < cfg.Tasks; i++ {
		addEdge(&tasks[rng.Intn(i)], ids[i])
	}
	for i := 0; i < cfg.Tasks-1; i++ {
		t := &tasks[i]
		if len(t.Next) == 1 && rng.Float64() < cfg.BranchProb {
			// Add a second forward successor to form a choice.
			j := i + 1 + rng.Intn(cfg.Tasks-i-1)
			addEdge(t, ids[j])
		}
	}
	// Attach Choose functions to all multi-successor nodes.
	for i := range tasks {
		if t := &tasks[i]; len(t.Next) > 1 {
			t.Choose = genChoose(t)
		}
	}
	// Guarded back edges: turn a single-successor interior node into a
	// loop gate that re-enters an earlier node until its visit counter
	// reaches the bound.
	bound := cfg.CycleBound
	if bound <= 0 {
		bound = 2
	}
	// The gate must have exactly one successor (so the added back edge
	// makes it a choice) and must not be the start node (a back edge to
	// the start would violate 0-indegree). Gates are drawn preferentially
	// from early positions: early nodes lie on almost every execution
	// path, so the loop actually runs.
	applied := 0
	for attempt := 0; attempt < 10*cfg.Cycles && applied < cfg.Cycles; attempt++ {
		span := cfg.Tasks/3 + 2
		if span > cfg.Tasks-1 {
			span = cfg.Tasks - 1
		}
		gi := 1 + rng.Intn(span)
		gate := &tasks[gi]
		if len(gate.Next) != 1 {
			continue
		}
		ti := 1 + rng.Intn(gi)
		target := ids[ti]
		if target == gate.ID || containsTask(gate.Next, target) {
			continue
		}
		addLoopGate(gate, target, bound)
		applied++
	}
	SortTasks(tasks)
	spec := &Spec{Name: name, Start: ids[0], Tasks: tasks}
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("wf: generated workflow invalid: %v", err))
	}
	return spec
}

// CycleKey names the dedicated visit counter of a loop gate. Counters are
// never initialized: a missing key reads as zero.
func CycleKey(gate TaskID) data.Key {
	return data.Key("cyc_" + string(gate))
}

// addLoopGate rewires task gate: it counts its own visits in CycleKey(gate)
// and loops back to target until the counter reaches bound.
func addLoopGate(gate *Task, target TaskID, bound int) {
	key := CycleKey(gate.ID)
	forward := gate.Next[0]
	gate.Next = []TaskID{target, forward}
	gate.Reads = append(gate.Reads, key)
	gate.Writes = append(gate.Writes, key)
	inner := gate.Compute
	gate.Compute = func(reads map[data.Key]data.Value) map[data.Key]data.Value {
		out := inner(reads)
		out[key] = reads[key] + 1
		return out
	}
	limit := data.Value(bound)
	gate.Choose = func(reads map[data.Key]data.Value) TaskID {
		if reads[key]+1 < limit {
			return target
		}
		return forward
	}
}

func containsTask(ids []TaskID, id TaskID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// GenKey returns the name of pool key i used by Generate.
func GenKey(i int) data.Key {
	return data.Key(fmt.Sprintf("k%d", i))
}

func addEdge(from *Task, to TaskID) {
	for _, n := range from.Next {
		if n == to {
			return
		}
	}
	from.Next = append(from.Next, to)
}

// genChoose branches on the parity band of the task's first read key, which
// makes path selection sensitive to corrupted data. Tasks reading nothing
// always take their first branch.
func genChoose(t *Task) ChooseFunc {
	succ := make([]TaskID, len(t.Next))
	copy(succ, t.Next)
	var key data.Key
	if len(t.Reads) > 0 {
		key = t.Reads[0]
	}
	return func(reads map[data.Key]data.Value) TaskID {
		if key == "" {
			return succ[0]
		}
		v := reads[key]
		if v < 0 {
			v = -v
		}
		return succ[int(v/5)%len(succ)]
	}
}
