package wf

import (
	"fmt"
	"math/rand"

	"selfheal/internal/data"
)

// A Blueprint is a fully serializable workflow description: every task body
// is a sum-plus-bias compute and every choice is a threshold branch (both
// data in the compiled Task.Body), so the whole workflow round-trips
// through the wfjson wire format without loss. GenerateBlueprint produces
// randomized blueprints for the stateful API fuzzer (internal/fuzz), which
// must submit the exact document it can later replay — a bare *Spec with
// closure task bodies has no serializable form.
type Blueprint struct {
	// Name identifies the workflow.
	Name string `json:"name"`
	// Start is the 0-indegree entry task.
	Start TaskID `json:"start"`
	// Tasks lists the task declarations in a stable order.
	Tasks []BlueprintTask `json:"tasks"`
	// Init declares initial store values for pool keys the workflow reads
	// before any task writes them (first writer wins at submission).
	Init map[data.Key]data.Value `json:"init,omitempty"`
}

// BlueprintTask is one serializable task declaration.
type BlueprintTask struct {
	ID     TaskID     `json:"id"`
	Next   []TaskID   `json:"next,omitempty"`
	Reads  []data.Key `json:"reads,omitempty"`
	Writes []data.Key `json:"writes,omitempty"`
	// Bias is the constant added to the sum of reads (Body.Sum).
	Bias data.Value `json:"bias,omitempty"`
	// Choose declares the threshold branch of a two-successor choice node;
	// nil for non-choice tasks.
	Choose *BlueprintChoose `json:"choose,omitempty"`
}

// BlueprintChoose is a serializable threshold branch (Task.BranchOn): pick
// Low when the value of Key is below Threshold, High otherwise.
type BlueprintChoose struct {
	Key       data.Key   `json:"key"`
	Threshold data.Value `json:"threshold"`
	Low       TaskID     `json:"low"`
	High      TaskID     `json:"high"`
}

// Spec compiles the blueprint into an executable, validated specification.
// The compilation yields exactly the task data the wfjson decoder yields
// (Task.Body), so a blueprint submitted over the wire and a
// blueprint compiled locally execute identically.
func (b *Blueprint) Spec() (*Spec, error) {
	spec := &Spec{Name: b.Name, Start: b.Start, Tasks: make([]Task, len(b.Tasks))}
	for i, bt := range b.Tasks {
		t := &spec.Tasks[i]
		*t = Task{
			ID:     bt.ID,
			Next:   append([]TaskID(nil), bt.Next...),
			Reads:  append([]data.Key(nil), bt.Reads...),
			Writes: append([]data.Key(nil), bt.Writes...),
			Body:   Body{Sum: true, Bias: bt.Bias},
		}
		if c := bt.Choose; c != nil {
			if err := t.BranchOn(c.Key, c.Threshold, c.Low, c.High); err != nil {
				return nil, fmt.Errorf("wf: blueprint %s: %w", b.Name, err)
			}
		}
	}
	SortTasks(spec.Tasks)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// GenerateBlueprint builds a random serializable workflow from cfg using
// rng. The graph shape follows Generate — tasks t0..tN-1 in topological
// order with forward-only edges, every task beyond t0 reachable from the
// unique start — but task bodies are restricted to the wfjson-representable
// forms: sum-plus-bias computes and two-way threshold branches keyed on one
// of the task's reads (so corrupted inputs flip branch decisions). Cycles
// are never generated: the wire format has no loop gates, and acyclicity
// gives every task instance visit number 1, which lets the fuzzer name
// instances deterministically before they execute.
//
// Pool keys are cfg.PoolKey(i); cfg.Prefix namespaces them so concurrent
// runs can be given disjoint footprints. Init seeds every key some task
// reads, making the attack-free final state a deterministic function of the
// blueprint alone.
func GenerateBlueprint(name string, cfg GenConfig, rng *rand.Rand) *Blueprint {
	if cfg.Tasks < 2 {
		cfg.Tasks = 2
	}
	if cfg.Keys < 1 {
		cfg.Keys = 1
	}
	maxWrites := cfg.MaxWrites
	if maxWrites < 1 {
		maxWrites = 2
	}
	ids := make([]TaskID, cfg.Tasks)
	for i := range ids {
		ids[i] = TaskID(fmt.Sprintf("t%d", i))
	}
	tasks := make([]BlueprintTask, cfg.Tasks)
	for i := range tasks {
		bt := BlueprintTask{ID: ids[i], Bias: data.Value(7*i + 1)}
		// Read and write sets draw distinct keys, so both are capped by the
		// pool size or the draw loops below could never fill them.
		nr := min(rng.Intn(cfg.MaxReads+1), cfg.Keys)
		seen := make(map[data.Key]bool, nr)
		for len(bt.Reads) < nr {
			k := cfg.PoolKey(rng.Intn(cfg.Keys))
			if !seen[k] {
				seen[k] = true
				bt.Reads = append(bt.Reads, k)
			}
		}
		nw := min(1+rng.Intn(maxWrites), cfg.Keys)
		seenW := make(map[data.Key]bool, nw)
		for len(bt.Writes) < nw && len(seenW) < cfg.Keys {
			k := cfg.PoolKey(rng.Intn(cfg.Keys))
			if !seenW[k] {
				seenW[k] = true
				bt.Writes = append(bt.Writes, k)
			}
		}
		tasks[i] = bt
	}
	// Forward edges: each task i>0 gets one incoming edge from a random
	// earlier task, so everything is reachable from t0. Out-degree is
	// capped at 2 (the wire format's choices are two-way); a donor with
	// spare capacity always exists since i-1 edges never exhaust the 2i
	// slots of tasks 0..i-1.
	for i := 1; i < cfg.Tasks; i++ {
		for {
			from := &tasks[rng.Intn(i)]
			if len(from.Next) < 2 && addBlueprintEdge(from, ids[i]) {
				break
			}
		}
	}
	// Branching: some single-successor tasks gain a second forward
	// successor.
	for i := 0; i < cfg.Tasks-1; i++ {
		bt := &tasks[i]
		if len(bt.Next) != 1 || rng.Float64() >= cfg.BranchProb {
			continue
		}
		j := i + 1 + rng.Intn(cfg.Tasks-i-1)
		addBlueprintEdge(bt, ids[j])
	}
	// Every two-successor task becomes a threshold choice. The branch key
	// is one of the task's reads when it has any — a corrupted read then
	// reroutes the workflow, which is the control-dependence recovery path
	// the fuzzer wants to stress.
	for i := range tasks {
		bt := &tasks[i]
		if len(bt.Next) != 2 {
			continue
		}
		key := cfg.PoolKey(rng.Intn(cfg.Keys))
		if len(bt.Reads) > 0 {
			key = bt.Reads[rng.Intn(len(bt.Reads))]
		} else {
			bt.Reads = append(bt.Reads, key)
		}
		bt.Choose = &BlueprintChoose{
			Key:       key,
			Threshold: data.Value(rng.Intn(40)),
			Low:       bt.Next[0],
			High:      bt.Next[1],
		}
	}
	bp := &Blueprint{Name: name, Start: ids[0], Tasks: tasks,
		Init: make(map[data.Key]data.Value)}
	// Seed every read pool key so the attack-free state is fully determined
	// by the blueprint (unseeded keys read as 0 either way; explicit inits
	// also exercise the submission path's first-writer-wins seeding).
	for _, bt := range tasks {
		for _, k := range bt.Reads {
			if _, ok := bp.Init[k]; !ok {
				bp.Init[k] = data.Value(rng.Intn(25))
			}
		}
	}
	if _, err := bp.Spec(); err != nil {
		panic(fmt.Sprintf("wf: generated blueprint invalid: %v", err))
	}
	return bp
}

// addBlueprintEdge appends an edge unless it already exists; it reports
// whether the edge was added.
func addBlueprintEdge(from *BlueprintTask, to TaskID) bool {
	for _, n := range from.Next {
		if n == to {
			return false
		}
	}
	from.Next = append(from.Next, to)
	return true
}
