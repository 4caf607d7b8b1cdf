// Package engine executes workflow instances against the versioned store,
// committing every task execution to the system log. It is the normal-
// processing substrate of the paper's architecture (Fig 2): the scheduler
// picks minimal(S, ≺) among runnable tasks, tasks read the latest committed
// versions, and every commit records the exact versions read so the recovery
// analyzer can compute precise dependencies later.
//
// The engine is also the attack-injection point: an Attack replaces a task
// instance's compute (and, for choice nodes, branch selection) with
// malicious versions, and InjectForged commits a task that is not part of
// any workflow specification at all.
//
// Every commit (Step and InjectForged) flows through wlog.Log.Append, whose
// OnAppend hook is the engine's commit-time observation point: the runtime
// subscribes deps.IncrementalGraph there so dependence tracking is
// maintained in O(Δ) alongside normal processing instead of being rebuilt
// from the log at every recovery analysis.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/obs"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Sentinel errors of the execution layers. Handlers map them to HTTP status
// codes with errors.Is (internal/httpapi), so every layer that rejects a
// submission wraps the matching sentinel instead of inventing an ad-hoc
// string.
var (
	// ErrBadSpec marks an invalid workflow specification or run identity.
	ErrBadSpec = errors.New("invalid workflow spec")
	// ErrRunExists marks a submission reusing an already-registered run ID.
	ErrRunExists = errors.New("run already exists")
	// ErrUnknownRun marks a lookup of a run ID nothing has registered.
	ErrUnknownRun = errors.New("unknown run")
)

// Run is one in-flight workflow instance.
type Run struct {
	// ID identifies the run in the system log.
	ID string
	// Spec is the workflow being executed.
	Spec *wf.Spec

	cur wf.TaskID
	// visits holds one counter per task the run has executed, in first-visit
	// order: a run touches a handful of tasks, so a scan beats a map and
	// costs a fraction of its memory for the run's whole retained life.
	visits []taskVisits
	done   bool
	failed bool
}

// taskVisits counts one task's executions within a run.
type taskVisits struct {
	task wf.TaskID
	n    int
}

// visit returns the counter for task, adding it at zero if the run has not
// executed the task yet.
func (r *Run) visit(task wf.TaskID) *int {
	for i := range r.visits {
		if r.visits[i].task == task {
			return &r.visits[i].n
		}
	}
	r.visits = append(r.visits, taskVisits{task: task})
	return &r.visits[len(r.visits)-1].n
}

// Done reports whether the run reached an end node.
func (r *Run) Done() bool { return r.done }

// Current returns the task the run will execute next.
func (r *Run) Current() wf.TaskID { return r.cur }

// VisitCounts returns a copy of the run's per-task visit counters — the
// state a durable snapshot persists so a restored run keeps minting instance
// IDs that never collide with entries committed before the snapshot, even
// though those entries are no longer in the (truncated) log.
func (r *Run) VisitCounts() map[wf.TaskID]int {
	out := make(map[wf.TaskID]int, len(r.visits))
	for _, v := range r.visits {
		out[v.task] = v.n
	}
	return out
}

// Attack describes a corruption of one task instance: when the engine
// executes the matching instance, it uses the malicious Compute (and Choose,
// for choice nodes) instead of the specification's.
type Attack struct {
	Run   string
	Task  wf.TaskID
	Visit int
	// Compute overrides the task's compute function; nil keeps the
	// benign computation (an attack may corrupt only the branch choice).
	Compute wf.ComputeFunc
	// Choose overrides branch selection for choice nodes; nil keeps the
	// specification's selection.
	Choose wf.ChooseFunc
	// Crash makes the instance fail before committing: nothing is
	// written, nothing is logged, and the run aborts. The paper's §VII
	// distinction between failure handling and attack recovery rests on
	// this: a malicious task that fails has no effects, so attack
	// recovery has nothing to do for it.
	Crash bool
}

// TaskFailure is returned by Step when the executing instance crashed
// before committing.
type TaskFailure struct {
	Inst wlog.InstanceID
}

func (e *TaskFailure) Error() string {
	return fmt.Sprintf("engine: task %s failed before committing", e.Inst)
}

// Failed reports whether the run aborted due to a task failure.
func (r *Run) Failed() bool { return r.failed }

// Engine executes runs against a store and a log. The engine itself is safe
// for concurrent use by multiple goroutines as long as each Run is driven by
// at most one goroutine at a time (runs carry unsynchronized per-run state);
// the sharded executor (internal/shard) relies on exactly that contract.
type Engine struct {
	mu      sync.RWMutex // guards store (swap) and attacks
	store   *data.Store
	log     *wlog.Log
	attacks map[wlog.InstanceID]*Attack
	// o is the optional instrumentation (Observe); zero means off.
	o engObs
}

// engObs is the engine's instrumentation: commit and forged-injection
// counters plus a per-Step latency histogram.
type engObs struct {
	commits     *obs.Counter
	forged      *obs.Counter
	stepSeconds *obs.Histogram
}

// Observe wires the engine's instrumentation into reg (metric catalog in
// docs/OBSERVABILITY.md). A nil registry leaves instrumentation off, the
// default; when off, Step pays only nil checks.
func (e *Engine) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.o = engObs{
		commits:     reg.Counter(obs.MEngineCommits),
		forged:      reg.Counter(obs.MEngineForged),
		stepSeconds: reg.Histogram(obs.MEngineStepSeconds, obs.LatencyBuckets),
	}
}

// New returns an engine committing to the given store and log.
func New(store *data.Store, log *wlog.Log) *Engine {
	return &Engine{
		store:   store,
		log:     log,
		attacks: make(map[wlog.InstanceID]*Attack),
	}
}

// Store returns the engine's store.
func (e *Engine) Store() *data.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store
}

// SwapStore replaces the engine's store. The recovery scheduler installs the
// repaired store this way after executing a recovery unit; no commit may be
// in flight during the swap (the sharded executor serializes the swap
// through its commit pipeline).
func (e *Engine) SwapStore(s *data.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = s
}

// Log returns the engine's log.
func (e *Engine) Log() *wlog.Log { return e.log }

// AddAttack registers an attack. Visit numbers are 1-based; Visit 0 means
// visit 1.
func (e *Engine) AddAttack(a Attack) {
	if a.Visit == 0 {
		a.Visit = 1
	}
	cp := a
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attacks[wlog.FormatInstance(a.Run, a.Task, a.Visit)] = &cp
}

// attack returns the registered attack for inst, if any.
func (e *Engine) attack(inst wlog.InstanceID) *Attack {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.attacks[inst]
}

// NewRun starts a run of spec under the given ID. Rejections wrap
// ErrBadSpec so submission layers can classify them with errors.Is.
func (e *Engine) NewRun(id string, spec *wf.Spec) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("engine: run %s: %w: %w", id, ErrBadSpec, err)
	}
	if id == "" {
		return nil, fmt.Errorf("engine: %w: empty run ID", ErrBadSpec)
	}
	return &Run{ID: id, Spec: spec, cur: spec.Start}, nil
}

// RestoreRun rebuilds a run from externally persisted state: frontier task,
// visit counters, and completion flags, exactly as captured by VisitCounts/
// Current/Done/Failed. Unlike Resync it does not consult the log — the
// durable restore path uses it for runs whose early entries were truncated
// at a snapshot boundary, where a trace-derived visit count would be wrong.
func (e *Engine) RestoreRun(id string, spec *wf.Spec, cur wf.TaskID, visits map[wf.TaskID]int, done, failed bool) (*Run, error) {
	r, err := e.NewRun(id, spec)
	if err != nil {
		return nil, err
	}
	if !done && !failed {
		if _, ok := spec.Tasks[cur]; !ok {
			return nil, fmt.Errorf("engine: restore of %s at unknown task %q", id, cur)
		}
	}
	for t, n := range visits {
		*r.visit(t) = n
	}
	r.cur = cur
	r.done = done || failed
	r.failed = failed
	return r, nil
}

// Resync repositions an in-flight run at a new frontier after recovery
// rewrote its execution path. Visit counters are rebuilt from the log so
// future instance IDs never collide with committed entries — a task whose
// first instance was undone as wrong-path work re-executes later under the
// next visit number.
func (e *Engine) Resync(r *Run, cur wf.TaskID, done bool) error {
	if !done {
		if _, ok := r.Spec.Tasks[cur]; !ok {
			return fmt.Errorf("engine: resync of %s to unknown task %q", r.ID, cur)
		}
	}
	r.visits = nil
	for _, entry := range e.log.Trace(r.ID, true) {
		if n := r.visit(entry.Task); entry.Visit > *n {
			*n = entry.Visit
		}
	}
	r.cur = cur
	r.done = done
	return nil
}

// Prepared is one computed-but-uncommitted task execution: the read view,
// the computed writes and the chosen successor of the run's next task. A
// Prepared is produced by Prepare and consumed exactly once by Commit or
// CommitBatch; between the two, the run must not be stepped again. The
// split is the sharded executor's building block: shards prepare steps in
// parallel and funnel the commits through a group-commit pipeline.
type Prepared struct {
	run   *Run
	entry *wlog.Entry
	next  wf.TaskID
	done  bool
}

// Run returns the run the prepared step advances.
func (p *Prepared) Run() *Run { return p.run }

// Entry returns the log entry the commit will append.
func (p *Prepared) Entry() *wlog.Entry { return p.entry }

// Prepare computes the run's next task execution without committing it: it
// reads the latest store versions (recording the exact versions observed),
// runs the (possibly attacked) compute, and selects the successor. It
// returns nil when the run is already complete. A crashing attack marks the
// run failed and returns the TaskFailure, exactly like Step.
func (e *Engine) Prepare(r *Run) (*Prepared, error) {
	if r.done {
		return nil, nil
	}
	task := r.Spec.Tasks[r.cur]
	visit := r.visit(r.cur)
	*visit++
	entry := &wlog.Entry{Run: r.ID, Task: r.cur, Visit: *visit}
	// The one formatting of this instance's ID: the log index, the
	// dependence graph and the store's versions all share this string.
	inst := entry.CacheID()
	attack := e.attack(inst)
	if attack != nil && attack.Crash {
		r.done = true
		r.failed = true
		return nil, &TaskFailure{Inst: inst}
	}
	// The commit position is the next LSN; reads observe everything
	// committed before it. Reserve the LSN by appending at the end, so
	// compute the read view first against "latest".
	var reads map[data.Key]data.Value
	entry.Reads, reads = observe(e.Store(), task.Reads)

	compute := task.Compute
	if attack != nil && attack.Compute != nil {
		compute = attack.Compute
	}
	var out map[data.Key]data.Value // nil: every write is zero
	if compute != nil {
		out = compute(reads)
	}
	if len(task.Writes) > 0 {
		entry.Writes = make([]wlog.Write, 0, len(task.Writes))
	}
	for _, k := range task.Writes {
		if _, dup := entry.Wrote(k); !dup {
			entry.Writes = append(entry.Writes, wlog.Write{Key: k, Value: out[k]})
		}
	}
	// Each key once, so all that is left to establish is the key order.
	if err := entry.Normalize(); err != nil {
		return nil, err
	}
	p := &Prepared{run: r, entry: entry}

	// Branch selection for choice nodes.
	switch {
	case len(task.Next) == 0:
		p.done = true
	case len(task.Next) == 1:
		p.next = task.Next[0]
	default:
		choose := task.Choose
		if attack != nil && attack.Choose != nil {
			choose = attack.Choose
		}
		p.next = choose(reads)
		if !validNext(task, p.next) {
			return nil, fmt.Errorf("engine: %s chose invalid successor %q", inst, p.next)
		}
		entry.Chosen = p.next
	}
	return p, nil
}

// observe reads the latest version of each key — a key with no version at
// all reads as zero at wlog.MissingPos — and returns one observation per
// distinct key, in the order given, plus the plain value view a compute or
// choose function takes. It is the engine's one producer of Entry.Reads.
func observe(store *data.Store, keys []data.Key) ([]wlog.Read, map[data.Key]data.Value) {
	vals := make(map[data.Key]data.Value, len(keys))
	if len(keys) == 0 {
		return nil, vals
	}
	obs := make([]wlog.Read, 0, len(keys))
	for _, k := range keys {
		if _, seen := vals[k]; seen {
			continue
		}
		r := wlog.Read{Key: k, ReadObs: wlog.ReadObs{WriterPos: wlog.MissingPos}}
		if v, ok := store.Get(k); ok {
			r.ReadObs = wlog.ReadObs{Value: v.Value, Writer: v.Writer, WriterPos: v.Pos}
		}
		vals[k] = r.Value
		obs = append(obs, r)
	}
	return obs, vals
}

// apply installs a committed prepared step: store writes at the assigned
// LSN, then the run's frontier advance.
func (e *Engine) apply(p *Prepared, lsn int) {
	e.o.commits.Inc()
	store := e.Store()
	inst := p.entry.ID()
	for _, w := range p.entry.Writes {
		store.Write(w.Key, w.Value, float64(lsn), string(inst), false)
	}
	if p.done {
		p.run.done = true
	} else {
		p.run.cur = p.next
	}
}

// Commit appends a prepared step to the log and applies its effects.
func (e *Engine) Commit(p *Prepared) error {
	lsn, err := e.log.Append(p.entry)
	if err != nil {
		return fmt.Errorf("engine: commit %s: %w", p.entry.ID(), err)
	}
	e.apply(p, lsn)
	return nil
}

// CommitBatch group-commits prepared steps from distinct runs: one
// wlog.AppendBatch (a single log-lock acquisition, consecutive LSNs, hooks
// in LSN order), then the store writes and frontier advances in the same
// order. The batch is atomic: on a duplicate instance nothing commits.
func (e *Engine) CommitBatch(ps []*Prepared) error {
	if len(ps) == 0 {
		return nil
	}
	// A batch holds one step per shard: the usual one stays on the stack
	// (AppendBatch keeps the entries, not the slice).
	var buf [16]*wlog.Entry
	entries := buf[:0]
	for _, p := range ps {
		entries = append(entries, p.entry)
	}
	first, err := e.log.AppendBatch(entries)
	if err != nil {
		return fmt.Errorf("engine: commit batch of %d: %w", len(ps), err)
	}
	for i, p := range ps {
		e.apply(p, first+i)
	}
	return nil
}

// Step executes the run's next task and commits it. It returns true when the
// run has completed (including when it was already complete).
func (e *Engine) Step(r *Run) (bool, error) {
	if r.done {
		return true, nil
	}
	if e.o.stepSeconds != nil {
		defer e.observeStep(time.Now())
	}
	p, err := e.Prepare(r)
	if err != nil {
		return r.done, err
	}
	if err := e.Commit(p); err != nil {
		return false, err
	}
	return r.done, nil
}

// observeStep records one Step's wall-clock latency.
func (e *Engine) observeStep(start time.Time) {
	e.o.stepSeconds.Observe(time.Since(start).Seconds())
}

func validNext(task *wf.Task, next wf.TaskID) bool {
	for _, n := range task.Next {
		if n == next {
			return true
		}
	}
	return false
}

// ResumeRuns reconstructs the in-flight runs of a (reloaded) log: for every
// run recorded in the engine's log that has a spec, a Run positioned at its
// committed frontier is returned — complete runs come back Done. Together
// with wlogio this lets a workflow system continue exactly where it stopped
// after a restart. Forged entries are ignored when deriving frontiers.
func (e *Engine) ResumeRuns(specs map[string]*wf.Spec) ([]*Run, error) {
	var out []*Run
	for _, runID := range e.log.Runs() {
		spec, ok := specs[runID]
		if !ok {
			// Spec-less runs (forged-only pseudo-runs) have nothing to
			// resume; a real run without a spec is the caller's bug.
			for _, entry := range e.log.Trace(runID, true) {
				if !entry.Forged {
					return nil, fmt.Errorf("engine: run %s in log has no spec", runID)
				}
			}
			continue
		}
		r, err := e.NewRun(runID, spec)
		if err != nil {
			return nil, err
		}
		trace := e.log.Trace(runID, false)
		if len(trace) == 0 {
			out = append(out, r)
			continue
		}
		last := trace[len(trace)-1]
		task := spec.Tasks[last.Task]
		var cur wf.TaskID
		done := false
		switch {
		case len(task.Next) == 0:
			done = true
		case len(task.Next) == 1:
			cur = task.Next[0]
		default:
			cur = last.Chosen
			if cur == "" {
				return nil, fmt.Errorf("engine: run %s frontier %s has no recorded choice", runID, last.ID())
			}
		}
		if err := e.Resync(r, cur, done); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Interleave executes the runs following an explicit schedule: order[i]
// names the index of the run to step next. Completed runs are skipped. After
// the schedule is exhausted, remaining runs are completed round-robin. A
// step budget guards against non-terminating cyclic workflows, and a
// cancelled ctx stops the batch between steps.
func (e *Engine) Interleave(ctx context.Context, runs []*Run, order []int, maxSteps int) error {
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	steps := 0
	step := func(r *Run) error {
		if r.Done() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if steps++; steps > maxSteps {
			return fmt.Errorf("engine: exceeded %d steps; cyclic workflow not terminating?", maxSteps)
		}
		_, err := e.Step(r)
		return err
	}
	for _, idx := range order {
		if idx < 0 || idx >= len(runs) {
			return fmt.Errorf("engine: interleave index %d out of range", idx)
		}
		if err := step(runs[idx]); err != nil {
			return err
		}
	}
	for {
		active := false
		for _, r := range runs {
			if r.Done() {
				continue
			}
			active = true
			if err := step(r); err != nil {
				return err
			}
		}
		if !active {
			return nil
		}
	}
}

// RunAll completes all runs with round-robin interleaving.
func (e *Engine) RunAll(ctx context.Context, runs ...*Run) error {
	return e.Interleave(ctx, runs, nil, 0)
}

// InjectForged commits a forged task: an execution injected by the attacker
// that belongs to no workflow specification. It reads the given keys
// (recording observations like a normal task) and writes the given values.
// Forged tasks are identified in the log and are undone — never redone —
// during recovery.
func (e *Engine) InjectForged(run string, task wf.TaskID, readKeys []data.Key, writes map[data.Key]data.Value) (wlog.InstanceID, error) {
	store := e.Store()
	entry := &wlog.Entry{Run: run, Task: task, Visit: 1, Forged: true, Writes: wlog.WritesOf(writes)}
	entry.Reads, _ = observe(store, readKeys) // in the caller's order; Append sorts
	inst := entry.CacheID()
	lsn, err := e.log.Append(entry)
	if err != nil {
		return "", fmt.Errorf("engine: inject forged %s: %w", inst, err)
	}
	e.o.forged.Inc()
	for _, w := range entry.Writes {
		store.Write(w.Key, w.Value, float64(lsn), string(inst), false)
	}
	return inst, nil
}
