package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"selfheal/internal/data"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// runState is one run's execution frontier as derived from the stream.
type runState struct {
	cur    wf.TaskID
	visits visitCounts
	done   bool
	// doneAt is the seq of the record that completed the run: the run reads
	// as done only once the published cursor covers it (RunDone).
	doneAt int
}

// visitCounts holds one counter per task a run has executed, sorted by task:
// a run touches a handful of tasks, so a search beats a map and costs a
// fraction of its memory for the run's whole retained life.
type visitCounts []taskVisits

// taskVisits counts one task's executions within a run.
type taskVisits struct {
	task wf.TaskID
	n    int
}

func (v visitCounts) search(task wf.TaskID) (int, bool) {
	return slices.BinarySearchFunc(v, task, func(tv taskVisits, t wf.TaskID) int { return strings.Compare(string(tv.task), string(t)) })
}

// get returns how often the run executed task.
func (v visitCounts) get(task wf.TaskID) int {
	if i, ok := v.search(task); ok {
		return v[i].n
	}
	return 0
}

// set records that the run executed task n times.
func (v *visitCounts) set(task wf.TaskID, n int) {
	i, ok := v.search(task)
	if !ok {
		*v = slices.Insert(*v, i, taskVisits{task: task})
	}
	(*v)[i].n = n
}

// repairStats accumulates the replica's deterministic repair accounting.
type repairStats struct {
	units, undone, redone, newExec, errors, auditViolations int
	lastErr                                                 error
	lastAudit                                               error
}

// replica is the deterministic state machine every node holds: the full
// system log, the versioned store, the run specifications and every run's
// execution frontier, all derived by applying the record stream in order.
// The stream itself is not kept here: the node's frame log holds it, as the
// bytes the journal and the wire carry.
// Two replicas at the same applied position are byte-identical — including
// after repairs, which execute at a fixed stream position with Parallel=1.
type replica struct {
	mu      sync.Mutex
	cond    *sync.Cond
	applied int
	// published is the replication cursor: the highest seq peers may see.
	// On followers it always equals applied. On the stamper, group stamping
	// applies a batch locally first (entry i+1's OCC validation reads entry
	// i's writes) and publishes only after the batch's single journal fsync
	// — so nothing non-durable on the stamper ever replicates.
	published int

	log   *wlog.Log
	store *data.Store
	specs map[string]*wf.Spec
	runs  map[string]*runState

	ropts recovery.Options
	stats repairStats
}

func newReplica() *replica {
	r := &replica{
		log:   wlog.New(),
		store: data.NewStore(),
		specs: make(map[string]*wf.Spec),
		runs:  make(map[string]*runState),
		// Parallel=1 pins the repair schedule: every replica computes the
		// identical result at the identical stream position.
		ropts: recovery.Options{Parallel: 1},
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Applied returns the replication cursor.
func (r *replica) Applied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// WaitApplied blocks until the replica has applied at least seq or the
// context dies.
func (r *replica) WaitApplied(ctx context.Context, seq int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.applied < seq {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: waiting for record %d (applied %d): %w", seq, r.applied, err)
		}
		// Arm a waker so cond.Wait cannot outlive the context.
		stop := context.AfterFunc(ctx, r.cond.Broadcast)
		r.cond.Wait()
		stop()
	}
	return nil
}

// Published returns the replication cursor (what peers may fetch).
func (r *replica) Published() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.published
}

// PublishTo advances the replication cursor after the stamper's batch
// journal fsync, making the batch visible to pushers and pull fetches.
func (r *replica) PublishTo(seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.applied {
		seq = r.applied
	}
	if seq > r.published {
		r.published = seq
	}
}

// Apply applies one replicated (already durable at its origin) record and
// publishes it. Records must arrive in stream order; a gap or replayed
// record is reported by the boolean without touching state.
func (r *replica) Apply(rec *Record) (applied bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ok, err := r.applyLocked(rec)
	if ok && r.published < r.applied {
		r.published = r.applied
	}
	return ok, err
}

// applyStamped applies a freshly stamped record without publishing it —
// the stamper's group-commit path, which publishes the whole batch after
// its single journal fsync.
func (r *replica) applyStamped(rec *Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ok, err := r.applyLocked(rec)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("cluster: stamper replica refused record %d", rec.Seq)
	}
	return nil
}

func (r *replica) applyLocked(rec *Record) (applied bool, err error) {
	if rec.Seq <= r.applied {
		return false, nil // duplicate delivery: already applied
	}
	if rec.Seq != r.applied+1 {
		return false, nil // gap: caller must fetch the missing records
	}
	switch rec.Kind {
	case KindSpec:
		err = r.applySpec(rec)
	case KindEntry:
		err = r.applyEntry(rec)
	case KindRepair:
		r.applyRepair(rec)
	default:
		err = fmt.Errorf("cluster: record %d has unknown kind %q", rec.Seq, rec.Kind)
	}
	if err != nil {
		// A failed application is a stream-integrity error: refusing the
		// record (and everything after it) is safer than diverging.
		return false, err
	}
	r.applied = rec.Seq
	r.cond.Broadcast()
	return true, nil
}

func (r *replica) applySpec(rec *Record) error {
	spec, init, err := wfjson.Build(rec.Spec)
	if err != nil {
		return fmt.Errorf("cluster: record %d spec: %w", rec.Seq, err)
	}
	if _, dup := r.specs[rec.Run]; dup {
		return fmt.Errorf("cluster: record %d: run %s already registered", rec.Seq, rec.Run)
	}
	// First writer wins, decided at this stream position — deterministic
	// on every replica regardless of map iteration order because Init only
	// touches keys with no versions at all.
	for k, v := range init {
		if _, ok := r.store.Get(k); !ok {
			r.store.Init(k, v)
		}
	}
	r.specs[rec.Run] = spec
	r.runs[rec.Run] = &runState{cur: spec.Start}
	return nil
}

func (r *replica) applyEntry(rec *Record) error {
	if rec.Entry == nil {
		return fmt.Errorf("cluster: record %d: entry record without entry", rec.Seq)
	}
	e := rec.Entry
	// A record off the binary stream carries the LSN the stamper's log
	// assigned (JSON-delivered and freshly stamped ones carry none): entry
	// records occupy the same stream positions everywhere, so this log must
	// be about to assign the same one.
	if next := r.log.Len() + 1; e.LSN != 0 && e.LSN != next {
		return fmt.Errorf("cluster: record %d: entry stamped with LSN %d, this log is at %d", rec.Seq, e.LSN, next)
	}
	var rs *runState
	var task *wf.Task
	if !e.Forged {
		if rs = r.runs[e.Run]; rs == nil {
			return fmt.Errorf("cluster: record %d: entry for unregistered run %s", rec.Seq, e.Run)
		}
		spec := r.specs[e.Run]
		if task = spec.Tasks[e.Task]; task == nil {
			return fmt.Errorf("cluster: record %d: run %s has no task %s", rec.Seq, e.Run, e.Task)
		}
		internEntry(e, spec, task)
	}
	lsn, err := r.log.Append(e)
	if err != nil {
		return fmt.Errorf("cluster: record %d: %w", rec.Seq, err)
	}
	id := e.ID()
	for _, w := range e.Writes {
		r.store.Write(w.Key, w.Value, float64(lsn), string(id), false)
	}
	if e.Forged {
		return nil
	}
	rs.visits.set(e.Task, e.Visit)
	switch {
	case len(task.Next) == 0:
		rs.done, rs.doneAt = true, rec.Seq
	case len(task.Next) == 1:
		rs.cur = task.Next[0]
	default:
		rs.cur = e.Chosen
	}
	return nil
}

// internEntry points a committed entry's strings at its compiled spec's —
// the run ID (when the workflow is named after the run), the task, every
// read and write key and the chosen successor — so the log keeps no
// per-entry copy of strings every run already holds once. Entries arrive
// with fresh strings from JSON bodies and decoded frames alike.
func internEntry(e *wlog.Entry, spec *wf.Spec, task *wf.Task) {
	if e.Run == spec.Name {
		e.Run = spec.Name
	}
	e.Task = task.ID
	for i := range e.Reads {
		if j := slices.Index(task.Reads, e.Reads[i].Key); j >= 0 {
			e.Reads[i].Key = task.Reads[j]
		}
	}
	for i := range e.Writes {
		if j := slices.Index(task.Writes, e.Writes[i].Key); j >= 0 {
			e.Writes[i].Key = task.Writes[j]
		}
	}
	if j := slices.Index(task.Next, e.Chosen); j >= 0 {
		e.Chosen = task.Next[j]
	}
}

// applyRepair runs the deterministic repair at this stream position. A
// repair that fails to compute is recorded (the recovery-error oracle
// surfaces it) but does not poison the stream: every replica fails it
// identically, so they stay convergent.
func (r *replica) applyRepair(rec *Record) {
	bad := make([]wlog.InstanceID, len(rec.Bad))
	for i, s := range rec.Bad {
		bad[i] = wlog.InstanceID(s)
	}
	res, err := recovery.Repair(r.store, r.log, r.specsCopy(), bad, r.ropts)
	r.stats.units++
	if err != nil {
		r.stats.errors++
		r.stats.lastErr = fmt.Errorf("cluster: repair at record %d: %w", rec.Seq, err)
		return
	}
	r.store = res.Store
	r.stats.undone += len(res.Undone)
	r.stats.redone += len(res.Redone)
	r.stats.newExec += len(res.NewExecuted)
	if audit := recovery.AuditSchedule(res); len(audit) > 0 {
		r.stats.auditViolations += len(audit)
		r.stats.lastAudit = fmt.Errorf("cluster: repair schedule violates Theorem-3 orders: %w", audit[0])
	}
	// Move every rewritten run onto its corrected frontier, rebuilding
	// visit counts from the full trace (forged included) exactly like the
	// single-node engine's resync. The runs the schedule names are found in
	// one pass over it; every other run keeps its state untouched.
	for run, f := range res.Frontiers(r.specs) {
		rs := r.runs[run]
		if f.Done && !rs.done {
			rs.doneAt = rec.Seq
		}
		rs.cur, rs.done = f.Cur, f.Done
		rs.visits = rs.visits[:0]
		for _, e := range r.log.Trace(run, true) {
			if e.Visit > rs.visits.get(e.Task) {
				rs.visits.set(e.Task, e.Visit)
			}
		}
	}
}

func (r *replica) specsCopy() map[string]*wf.Spec {
	out := make(map[string]*wf.Spec, len(r.specs))
	for k, v := range r.specs {
		out[k] = v
	}
	return out
}

// Frontier returns a run's current execution position: the task to execute
// next, the visit number that execution would commit, and whether the run
// exists / is done.
func (r *replica) Frontier(run string) (cur wf.TaskID, visit int, done, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.runs[run]
	if rs == nil {
		return "", 0, false, false
	}
	return rs.cur, rs.visits.get(rs.cur) + 1, rs.done, true
}

// RunVisits returns a copy of a run's committed visit counts (ok false when
// the run is unknown) — the base the executor extends while speculating a
// submission window.
func (r *replica) RunVisits(run string) (visits visitCounts, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.runs[run]
	if rs == nil {
		return nil, false
	}
	return slices.Clone(rs.visits), true
}

// Spec returns a run's specification.
func (r *replica) Spec(run string) *wf.Spec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.specs[run]
}

// HasRun reports whether the run is registered.
func (r *replica) HasRun(run string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs[run] != nil
}

// ActiveRuns returns the IDs of runs that are not done, sorted.
func (r *replica) ActiveRuns() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id, rs := range r.runs {
		if !rs.done {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// RunIDs returns every registered run ID, sorted.
func (r *replica) RunIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.runs))
	for id := range r.runs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunDone reports whether a run exists and has durably completed: on the
// stamper, which applies a group before its fsync, a run whose completing
// record is not yet published still reads as active. A follower publishes
// on apply, so there done is done.
func (r *replica) RunDone(run string) (done, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.runs[run]
	if rs == nil {
		return false, false
	}
	return rs.done && rs.doneAt <= r.published, true
}

// Stats returns a copy of the repair accounting.
func (r *replica) Stats() repairStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Snapshot returns the committed value of every key.
func (r *replica) Snapshot() map[data.Key]data.Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Snapshot()
}

// CheckIndex re-validates the store's writer index.
func (r *replica) CheckIndex() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.CheckIndex()
}

// Trace returns a run's committed instance IDs in LSN order.
func (r *replica) Trace(run string, withForged bool) []wlog.InstanceID {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := r.log.Trace(run, withForged)
	out := make([]wlog.InstanceID, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.ID())
	}
	return out
}

// Steps counts a run's committed normal (non-forged) executions.
func (r *replica) Steps(run string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log.Trace(run, false))
}

// HasInstance reports whether an instance is committed in the log.
func (r *replica) HasInstance(id wlog.InstanceID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.log.Get(id)
	return ok
}

// DamageKeys computes the damage-key closure of the accused instances on
// this replica (the distributed-assessment partition step).
func (r *replica) DamageKeys(bad []wlog.InstanceID) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	closure := recovery.DamageKeyClosure(r.log, r.specsCopy(), bad)
	out := make([]string, 0, len(closure))
	for k := range closure {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// LogEntries returns the log's truncation base and committed entries.
func (r *replica) LogEntries() (int, []*wlog.Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log.Base(), r.log.Entries()
}

// currentObs returns the current committed observation for one key.
func (r *replica) currentObs(k data.Key) wlog.ReadObs {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.store.Get(k)
	if !ok {
		return wlog.ReadObs{Value: 0, WriterPos: wlog.MissingPos}
	}
	return wlog.ReadObs{Value: v.Value, Writer: v.Writer, WriterPos: v.Pos}
}
