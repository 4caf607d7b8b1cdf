package recovery

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// ErrHorizon reports that recovery needs history that compaction has
// discarded: an undo needs a data-object version data.Store.CompactBefore
// dropped, or an alert or a repair reaches log entries beneath a durable
// snapshot's horizon. The damage cannot be repaired from local state.
var ErrHorizon = errors.New("recovery: history beyond the compaction horizon")

// Action is one step of the committed recovery schedule.
type Action struct {
	Kind  ActionKind
	Inst  wlog.InstanceID
	Run   string
	Task  wf.TaskID
	Visit int
	// Epos is the action's effective position in the corrected history
	// (0 for undos, which are staged before the replay).
	Epos float64
	// Next is the successor the task selected (empty for end nodes and
	// undo actions); the corrected frontier of an in-flight run is the
	// Next of its last scheduled action.
	Next wf.TaskID
}

// Options tunes Repair.
type Options struct {
	// MaxWalkSteps caps the re-execution steps per run; 0 means
	// 10×trace length + 100. Exceeding the cap returns an error (a
	// cyclic workflow whose corrected execution does not terminate).
	MaxWalkSteps int
	// MaxIterations caps undo-set fixpoint iterations; 0 means log
	// length + 2 (the theoretical bound: the undo set grows every
	// non-final iteration).
	MaxIterations int
	// EposDelta is the position increment for instances inserted into
	// the corrected history; 0 means 1e-7.
	EposDelta float64
	// CompactionHorizon is the position below which the store owner has
	// compacted version history away (data.Store.CompactBefore). Undos
	// that need a missing version at or below the horizon are refused
	// with ErrHorizon; 0 means the store was never compacted, and
	// missing old versions are attributed to earlier repairs (whose
	// drops the replay re-derives deterministically).
	CompactionHorizon float64
	// Parallel is the number of worker goroutines replaying independent
	// repair components concurrently; 0 or 1 selects the serial executor.
	// Components are the connected components of the runs' key-footprint
	// graph: the Theorem-3 constraint DAG never places an edge between
	// instances that share no data object, so each component's replay is
	// an independent subgraph of the partial order and the actions of
	// different components commute (§IV; docs/RECOVERY.md). Within a
	// component the replay still advances in ascending effective-position
	// order, so every rule 1–5 edge is honored.
	Parallel int
	// ScopeToDamage restricts the replay to components connected to the
	// damage (undo set): clean components are neither stripped of their
	// recovery versions nor re-walked, their store chains pass through
	// unchanged, and they produce no schedule actions. Result.DamagedKeys
	// reports exactly which chains may differ from the input store.
	// Required when Epoch pins the repair below the log head.
	ScopeToDamage bool
	// Epoch pins the repair to the log prefix ending at this LSN (0 means
	// the full log). The dependence snapshot must be taken at this epoch,
	// and the caller must guarantee that no entry after Epoch belongs to
	// a damaged component — the shard layer guarantees it by quiescing
	// the damaged shards before snapshotting, while clean shards keep
	// committing past the epoch. Requires ScopeToDamage, which confines
	// the replay to chains the post-epoch suffix cannot touch.
	Epoch int
}

func (o Options) withDefaults(logLen int) Options {
	if o.MaxWalkSteps <= 0 {
		o.MaxWalkSteps = 10*logLen + 100
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = logLen + 2
	}
	if o.EposDelta <= 0 {
		o.EposDelta = 1e-7
	}
	return o
}

// Result reports a completed repair.
type Result struct {
	// Store is the repaired store (the input store is not modified).
	Store *data.Store
	// Analysis is the first-round static assessment (what the recovery
	// analyzer knew before any re-execution).
	Analysis *Analysis
	// Undone is the final undo set (Theorem 1 at the fixpoint).
	Undone []wlog.InstanceID
	// Redone lists instances re-executed at their original positions.
	Redone []wlog.InstanceID
	// NewExecuted lists instances executed for the first time during
	// recovery (tasks on the corrected path that never ran, e.g. t5).
	NewExecuted []wlog.InstanceID
	// DroppedNotRedone lists undone instances that are not part of the
	// corrected execution (wrong-path work, e.g. t3 and t4, and forged
	// tasks).
	DroppedNotRedone []wlog.InstanceID
	// KeptVerified counts undamaged instances whose recorded reads were
	// re-verified against the corrected history.
	KeptVerified int
	// Iterations is the number of fixpoint iterations performed.
	Iterations int
	// Schedule is the committed recovery schedule of the final iteration.
	Schedule []Action
	// Phases is the wall-clock latency breakdown of the repair; the
	// observability layer (internal/obs) exports it as the per-repair
	// analyze/undo/redo histograms of docs/OBSERVABILITY.md.
	Phases PhaseTimings
	// Components is the number of independent replay components the final
	// iteration executed (1 for the serial executor).
	Components int
	// Workers is the number of replay workers the final iteration used.
	Workers int
	// DamagedKeys lists, sorted, the keys of the damaged components when
	// Options.ScopeToDamage was set: the only chains that may differ
	// between the input store and Store. Nil for unscoped repairs.
	DamagedKeys []data.Key
}

// PhaseTimings splits a repair's latency into its phases: the static damage
// analysis, the undo staging (summed over fixpoint iterations), and the
// corrected-history replay (redo), also summed over iterations.
type PhaseTimings struct {
	Analyze, Undo, Redo time.Duration
}

// Repair recovers the system from the malicious instances in bad. It returns
// a repaired copy of store; the input store, the log and the specs are read
// but never modified. specs maps run IDs to their workflow specifications;
// every non-forged logged run must have a spec. The dependence graph is
// rebuilt from the whole log; on-line callers holding an incrementally
// maintained graph use RepairGraph to skip the rebuild.
func Repair(store *data.Store, log *wlog.Log, specs map[string]*wf.Spec, bad []wlog.InstanceID, opts Options) (*Result, error) {
	return RepairGraph(deps.Build(log), store, log, specs, bad, opts)
}

// RepairGraph is Repair over a prebuilt dependence graph — typically a
// Snapshot of the runtime's IncrementalGraph. The replay walks the full log,
// so the snapshot must cover every committed entry (its epoch must equal the
// log's last LSN); a stale snapshot is rejected rather than silently
// repairing against missing dependence edges.
func RepairGraph(g *deps.Graph, store *data.Store, log *wlog.Log, specs map[string]*wf.Spec, bad []wlog.InstanceID, opts Options) (*Result, error) {
	opts = opts.withDefaults(log.Len())
	pin := log.Len()
	if opts.Epoch > 0 {
		if !opts.ScopeToDamage {
			return nil, errors.New("recovery: Options.Epoch requires ScopeToDamage")
		}
		if opts.Epoch > log.Len() {
			return nil, fmt.Errorf("recovery: pinned epoch %d is beyond the log's %d entries", opts.Epoch, log.Len())
		}
		pin = opts.Epoch
	}
	if g.Epoch() != pin {
		return nil, fmt.Errorf("recovery: dependence snapshot at epoch %d is stale for a log of %d entries", g.Epoch(), pin)
	}
	for _, id := range bad {
		e, ok := log.Get(id)
		if !ok {
			return nil, fmt.Errorf("recovery: reported instance %s not in log", id)
		}
		if e.LSN > pin {
			return nil, fmt.Errorf("recovery: reported instance %s at LSN %d is beyond the pinned epoch %d", id, e.LSN, pin)
		}
	}
	for _, run := range log.Runs() {
		if _, ok := specs[run]; !ok {
			// Runs made only of forged entries need no spec; entries past
			// the pinned epoch are outside this repair entirely.
			for _, e := range log.Trace(run, true) {
				if !e.Forged && e.LSN <= pin {
					return nil, fmt.Errorf("recovery: run %s has no workflow spec", run)
				}
			}
		}
	}

	analyzeStart := time.Now()
	analysis := AnalyzeGraph(g, log, specs, bad)
	var phases PhaseTimings
	phases.Analyze = time.Since(analyzeStart)

	undo := make(map[wlog.InstanceID]bool)
	for _, id := range analysis.DefiniteUndo {
		undo[id] = true
	}
	// Forged entries are always damage even if the IDS report named only
	// some of them? No: the IDS decides what is malicious. Forged entries
	// not reported stay until reported. (Undetected forgeries are the
	// administrator's responsibility, §IV.D.)

	var (
		last *iterationResult
		err  error
	)
	iterations := 0
	for {
		iterations++
		if iterations > opts.MaxIterations {
			return nil, fmt.Errorf("recovery: undo set did not converge after %d iterations", opts.MaxIterations)
		}
		last, err = replayOnce(store, log, specs, g, undo, opts)
		if err != nil {
			return nil, err
		}
		phases.Undo += last.undoDur
		phases.Redo += last.redoDur
		grew := false
		for id := range last.newUndo {
			if !undo[id] {
				undo[id] = true
				grew = true
			}
		}
		if !grew {
			break
		}
	}

	res := &Result{
		Store:        last.store,
		Analysis:     analysis,
		Undone:       sortedIDs(undo),
		Redone:       last.redone,
		NewExecuted:  last.newExecuted,
		KeptVerified: last.keptVerified,
		Iterations:   iterations,
		Schedule:     last.schedule,
		Phases:       phases,
		Components:   last.components,
		Workers:      last.workers,
		DamagedKeys:  last.damagedKeys,
	}
	redone := make(map[wlog.InstanceID]bool, len(last.redone))
	for _, id := range last.redone {
		redone[id] = true
	}
	for id := range undo {
		if !redone[id] {
			res.DroppedNotRedone = append(res.DroppedNotRedone, id)
		}
	}
	sortIDs(res.DroppedNotRedone)
	return res, nil
}

// Frontier returns the corrected execution frontier of a run: the task it
// should execute next and whether the corrected history already completed
// the workflow. ok is false when the repair never touched the run (its
// engine state is still valid). Used to resynchronize in-flight runs after
// a recovery unit executes.
func (res *Result) Frontier(run string, spec *wf.Spec) (cur wf.TaskID, done, ok bool) {
	var last *Action
	for i := range res.Schedule {
		a := &res.Schedule[i]
		if a.Run != run || a.Kind == ActUndo {
			continue
		}
		if last == nil || a.Epos > last.Epos {
			last = a
		}
	}
	if last == nil {
		return "", false, false
	}
	if len(spec.Tasks[last.Task].Next) == 0 {
		return "", true, true
	}
	return last.Next, false, true
}

// iterationResult carries the outcome of one replay pass.
type iterationResult struct {
	store        *data.Store
	newUndo      map[wlog.InstanceID]bool
	redone       []wlog.InstanceID
	newExecuted  []wlog.InstanceID
	keptVerified int
	schedule     []Action
	// undoDur and redoDur time this pass's undo staging and replay.
	undoDur, redoDur time.Duration
	// components/workers/damagedKeys describe the pass's execution shape
	// (see the matching Result fields).
	components, workers int
	damagedKeys         []data.Key
}

// replayOnce stages all undos and replays the corrected history once. The
// serial executor merges the walkers of every run in globally ascending
// effective-position order; the component executor (Options.Parallel > 1 or
// ScopeToDamage) factors the runs into key-disjoint components first and
// replays them concurrently. Both report instances discovered to need
// undoing (wrong-path work, dirty kept reads) closed under →_f*.
func replayOnce(pristine *data.Store, log *wlog.Log, specs map[string]*wf.Spec, g *deps.Graph, undo map[wlog.InstanceID]bool, opts Options) (*iterationResult, error) {
	st := pristine.Clone()
	it := &iterationResult{store: st, newUndo: make(map[wlog.InstanceID]bool), components: 1, workers: 1}

	// Stage undos, most recent first (Theorem 3 rule 5 order; with
	// version-chain deletion the result is order independent, but the
	// schedule records the rule-compliant order).
	undoStart := time.Now()
	staged := make([]*wlog.Entry, 0, len(undo))
	for id := range undo {
		if e, ok := log.Get(id); ok {
			staged = append(staged, e)
		}
	}
	sort.Slice(staged, func(i, j int) bool { return staged[i].LSN > staged[j].LSN })
	writers := make([]string, 0, len(staged))
	for _, e := range staged {
		// Instances at or below the compaction horizon are frozen history:
		// their surviving effect is the checkpoint boundary version, which
		// deletion preserves by design — an "undo" would leave the old value
		// in place and the redo would collide with it. Refuse outright.
		//
		// This is the only horizon hazard: compaction keeps each key's
		// latest pre-horizon version as the boundary, so undoing a
		// post-horizon instance always exposes a valid earlier state (a
		// newer surviving version, the boundary, or honest absence when an
		// earlier repair removed a forged chain entirely).
		if opts.CompactionHorizon > 0 && float64(e.LSN) <= opts.CompactionHorizon {
			return nil, fmt.Errorf("%w: undo(%s) targets frozen history at or below the compaction horizon %g",
				ErrHorizon, e.ID(), opts.CompactionHorizon)
		}
		writers = append(writers, string(e.ID()))
		it.schedule = append(it.schedule, Action{
			Kind: ActUndo, Inst: e.ID(), Run: e.Run, Task: e.Task, Visit: e.Visit,
		})
	}

	if opts.Parallel > 1 || opts.ScopeToDamage {
		return replayComponents(st, log, specs, g, undo, opts, it, staged, writers, undoStart)
	}

	// Strip versions written by earlier repairs: the replay reconstructs
	// every still-valid recovery version deterministically from the
	// original committed history, so cumulative repairs (one per alert in
	// the runtime) never collide on version positions. Then perform the
	// staged undos in one batch (deletions commute).
	st.DeleteRecoveryVersions()
	st.DeleteWritesBatch(writers)
	it.undoDur = time.Since(undoStart)
	redoStart := time.Now()

	// One walker per specified run.
	var walkers []*walker
	for _, run := range log.Runs() {
		spec, ok := specs[run]
		if !ok {
			continue
		}
		walkers = append(walkers, newWalker(run, spec, log, opts))
	}
	if err := replayWalkers(st, log, undo, it, walkers); err != nil {
		return nil, err
	}

	// Unconsumed trace entries are wrong-path work: undo them and close
	// under →_f* (their outputs were consumed by later reads).
	var wrong []wlog.InstanceID
	for _, w := range walkers {
		for _, e := range w.remaining {
			wrong = append(wrong, e.ID())
		}
	}
	closeNewUndo(g, it, wrong)
	it.redoDur = time.Since(redoStart)
	sortIDs(it.redone)
	sortIDs(it.newExecuted)
	return it, nil
}

// replayWalkers advances a set of walkers merged in globally ascending
// effective-position order, accumulating into it.
func replayWalkers(st *data.Store, log *wlog.Log, undo map[wlog.InstanceID]bool, it *iterationResult, walkers []*walker) error {
	for {
		var best *walker
		bestPos := 0.0
		for _, w := range walkers {
			pos, ok := w.peek()
			if !ok {
				continue
			}
			if best == nil || pos < bestPos {
				best, bestPos = w, pos
			}
		}
		if best == nil {
			return nil
		}
		if err := best.step(st, log, undo, it); err != nil {
			return err
		}
	}
}

// closeNewUndo replaces it.newUndo with the →_f* readers closure of the
// wrong-path instances plus the dirty instances discovered during replay.
func closeNewUndo(g *deps.Graph, it *iterationResult, wrong []wlog.InstanceID) {
	if len(wrong) == 0 && len(it.newUndo) == 0 {
		return
	}
	seed := make(map[wlog.InstanceID]bool, len(wrong)+len(it.newUndo))
	for _, id := range wrong {
		seed[id] = true
	}
	for id := range it.newUndo {
		seed[id] = true
	}
	it.newUndo = g.ReadersClosure(seed)
}

// instKey identifies a task instance within one run.
type instKey struct {
	task  wf.TaskID
	visit int
}

// walker replays the corrected execution of one run.
type walker struct {
	run  string
	spec *wf.Spec
	opts Options

	remaining map[instKey]*wlog.Entry // unconsumed original instances
	cur       wf.TaskID
	visits    map[wf.TaskID]int
	prevEpos  float64
	newCount  int // inserted instances so far (fresh-position allocator)
	finished  bool
	complete  bool // original run had reached an end node
	trLen     int  // original trace length
	executed  int  // actions performed (kept + redo + inserted)
	steps     int
}

func newWalker(run string, spec *wf.Spec, log *wlog.Log, opts Options) *walker {
	trace := log.Trace(run, false)
	if opts.Epoch > 0 {
		// Pinned repair: entries committed after the epoch belong to
		// shards that kept running; the caller guarantees they are in
		// clean components, outside this replay.
		pinned := make([]*wlog.Entry, 0, len(trace))
		for _, e := range trace {
			if e.LSN <= opts.Epoch {
				pinned = append(pinned, e)
			}
		}
		trace = pinned
	}
	w := &walker{
		run:       run,
		spec:      spec,
		opts:      opts,
		remaining: make(map[instKey]*wlog.Entry, len(trace)),
		cur:       spec.Start,
		visits:    make(map[wf.TaskID]int),
	}
	for _, e := range trace {
		w.remaining[instKey{e.Task, e.Visit}] = e
	}
	w.trLen = len(trace)
	if len(trace) == 0 {
		// Nothing committed: nothing to repair, nothing to continue.
		w.finished = true
		return w
	}
	lastTask := trace[len(trace)-1].Task
	w.complete = len(spec.Tasks[lastTask].Next) == 0
	return w
}

// peek returns the effective position of the walker's next action.
func (w *walker) peek() (float64, bool) {
	if w.finished {
		return 0, false
	}
	key := instKey{w.cur, w.visits[w.cur] + 1}
	if e, ok := w.remaining[key]; ok && float64(e.LSN) > w.prevEpos {
		return float64(e.LSN), true
	}
	// Inserted instance (new path, or an original instance revisited out
	// of commit order through a cycle).
	if _, ok := w.remaining[key]; !ok && !w.complete && w.executed >= w.trLen {
		// Frontier of an incomplete run: recovery replays at most as
		// many actions as the run had originally committed; beyond
		// that the work is normal execution, resumed by the engine
		// from the corrected frontier. Remaining unconsumed entries
		// (work the corrected path no longer justifies within the
		// replay budget) are undone; if the run reaches them again it
		// re-executes them as fresh instances.
		return 0, false
	}
	return w.nextFreshPos(), true
}

func (w *walker) nextFreshPos() float64 {
	return w.prevEpos + float64(w.newCount+1)*w.opts.EposDelta
}

// step executes the walker's next action against st.
func (w *walker) step(st *data.Store, log *wlog.Log, undo map[wlog.InstanceID]bool, it *iterationResult) error {
	if w.steps++; w.steps > w.opts.MaxWalkSteps {
		return fmt.Errorf("recovery: run %s exceeded %d replay steps; corrected execution not terminating", w.run, w.opts.MaxWalkSteps)
	}
	// Re-check the frontier condition (peek returned an inserted action).
	key := instKey{w.cur, w.visits[w.cur] + 1}
	entry, matched := w.remaining[key]
	repositioned := matched && float64(entry.LSN) <= w.prevEpos

	task := w.spec.Tasks[w.cur]
	w.visits[w.cur] = key.visit
	inst := wlog.FormatInstance(w.run, w.cur, key.visit)

	var epos float64
	switch {
	case matched && !repositioned:
		epos = float64(entry.LSN)
	default:
		epos = w.nextFreshPos()
		w.newCount++
	}

	var next wf.TaskID
	switch {
	case matched && !repositioned && !undo[inst]:
		// KEPT: verify the recorded reads against the corrected history.
		// Instances at or below the compaction horizon are exempt: the
		// versions they observed are discarded (only the latest survives as
		// the checkpoint boundary), so re-verification would misread frozen,
		// committed-forever history as damage. Compaction certifies the
		// prefix; the walk trusts the recorded trace there.
		frozen := w.opts.CompactionHorizon > 0 && float64(entry.LSN) <= w.opts.CompactionHorizon
		if !frozen && !w.verifyKept(st, entry) {
			it.newUndo[inst] = true
		}
		it.keptVerified++
		switch {
		case len(task.Next) == 1:
			next = task.Next[0]
		case len(task.Next) > 1 && frozen:
			// Frozen branch decisions are history; the pre-decision reads
			// may be compacted, so follow the recorded choice.
			next = entry.Chosen
			if !containsID(task.Next, next) {
				return fmt.Errorf("recovery: %s recorded invalid successor %q", inst, next)
			}
		case len(task.Next) > 1:
			// Re-derive the branch decision from the corrected reads:
			// a decision that no longer matches the recorded one means
			// the instance is damage (it will be redone next
			// iteration), and the walk must follow the corrected path.
			reads := make(map[data.Key]data.Value, len(task.Reads))
			for _, k := range task.Reads {
				if v, ok := st.GetBefore(k, epos); ok {
					reads[k] = v.Value
				} else {
					reads[k] = 0
				}
			}
			next = task.Choose(reads)
			if !containsID(task.Next, next) {
				return fmt.Errorf("recovery: %s re-derived invalid successor %q", inst, next)
			}
			if next != entry.Chosen {
				it.newUndo[inst] = true
			}
		}
		it.schedule = append(it.schedule, Action{
			Kind: ActKeep, Inst: inst, Run: w.run, Task: w.cur, Visit: key.visit, Epos: epos, Next: next,
		})
	default:
		// REDO at the original position, or an inserted execution
		// (new-path instance, or a repositioned original).
		reads := make(map[data.Key]data.Value, len(task.Reads))
		for _, k := range task.Reads {
			if v, ok := st.GetBefore(k, epos); ok {
				reads[k] = v.Value
			} else {
				reads[k] = 0
			}
		}
		written := make(map[data.Key]data.Value, len(task.Writes))
		if task.Compute != nil {
			out := task.Compute(reads)
			for _, k := range task.Writes {
				written[k] = out[k]
			}
		} else {
			for _, k := range task.Writes {
				written[k] = 0
			}
		}
		for k, v := range written {
			st.Write(k, v, epos, string(inst), true)
		}
		switch {
		case len(task.Next) == 1:
			next = task.Next[0]
		case len(task.Next) > 1:
			next = task.Choose(reads)
			if !containsID(task.Next, next) {
				return fmt.Errorf("recovery: %s redo chose invalid successor %q", inst, next)
			}
		}
		kind := ActRedo
		if !matched {
			kind = ActExecNew
			it.newExecuted = append(it.newExecuted, inst)
		} else {
			it.redone = append(it.redone, inst)
			if repositioned {
				// The original commit is out of order with respect to
				// the corrected history; it must be undone so the next
				// iteration replays it cleanly at the fresh position.
				it.newUndo[inst] = true
			}
		}
		it.schedule = append(it.schedule, Action{
			Kind: kind, Inst: inst, Run: w.run, Task: w.cur, Visit: key.visit, Epos: epos, Next: next,
		})
	}

	if matched {
		delete(w.remaining, key)
	}
	w.executed++
	w.prevEpos = epos
	if len(task.Next) == 0 {
		w.finished = true
	} else {
		w.cur = next
	}
	return nil
}

// verifyKept checks that every read the entry recorded still observes the
// same version in the corrected history, and that the entry's own writes are
// still present (a prior repair may have replaced them with recovery
// versions, which a fresh pass strips and must rebuild by re-executing the
// task).
func (w *walker) verifyKept(st *data.Store, e *wlog.Entry) bool {
	for _, wr := range e.Writes {
		v, ok := st.VersionAt(wr.Key, float64(e.LSN))
		if !ok || v.Writer != string(e.ID()) {
			return false
		}
	}
	for _, obs := range e.Reads {
		v, ok := st.GetBefore(obs.Key, float64(e.LSN))
		if !ok {
			if obs.WriterPos != wlog.MissingPos {
				return false
			}
			continue
		}
		if obs.WriterPos == wlog.MissingPos {
			return false
		}
		if v.Pos != obs.WriterPos || v.Writer != obs.Writer || v.Value != obs.Value {
			return false
		}
	}
	return true
}

func containsID(ids []wf.TaskID, id wf.TaskID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
