package shard

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/obs"
	"selfheal/internal/wf"
)

// ErrQueueFull marks a submission rejected by a bounded queue: the deferred
// run queue (key-footprint conflict backlog) or the alert queue. The HTTP
// layer maps it to 429.
var ErrQueueFull = errors.New("queue full")

// RunStatus classifies a submitted run's lifecycle.
type RunStatus int

const (
	// RunActive: the run is assigned to a shard and stepping (or waiting
	// for its turn on that shard).
	RunActive RunStatus = iota
	// RunDeferred: the run's key footprint overlaps runs on more than one
	// shard; it waits in the bounded deferred queue for a sound placement.
	RunDeferred
	// RunDone: the run reached an end node.
	RunDone
	// RunFailed: a task of the run crashed before committing.
	RunFailed
)

// String returns the lowercase wire name used by the HTTP API.
func (s RunStatus) String() string {
	switch s {
	case RunActive:
		return "active"
	case RunDeferred:
		return "deferred"
	case RunDone:
		return "done"
	case RunFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// runState is the executor's bookkeeping for one submitted run.
type runState struct {
	run   *engine.Run
	keys  []data.Key // sorted unique key footprint of the spec; nil once retired
	shard int        // owning shard; -1 while deferred
	state RunStatus
	err   error // terminal error for RunFailed
}

// tombstone is what the executor keeps of a run retired beneath a durable
// snapshot horizon (Service.forget): enough for RunInfo and Runs and to
// refuse the ID's reuse. Kept per run forever, so kept small.
type tombstone struct {
	err   string
	state RunStatus // RunDone or RunFailed
}

// executor partitions runs across shard workers. The dispatcher invariant
// is key disjointness: at any moment, each data key is touched by runs of
// at most one shard. Combined with the engine's read-latest semantics and
// the single commit pipeline, this makes every concurrent execution
// trace-equivalent to the serial execution in LSN order — a task's recorded
// reads always name the latest versions committed before its LSN, exactly
// as if the steps had been executed one at a time (shard_test.go replays
// the log to verify this).
type executor struct {
	eng   *engine.Engine
	com   *committer
	gates []*gate // one quiesce gate per shard

	mu sync.Mutex
	// runs holds every live run: placed, deferred, or retired since the
	// last checkpoint; tombs the runs a checkpoint retired for good.
	runs     map[string]*runState
	tombs    map[string]tombstone
	keyOwner map[data.Key]int  // shard currently owning the key
	keyRefs  map[data.Key]int  // active runs on the owner touching it
	recKeys  map[data.Key]bool // keys under recovery; placements touching them defer
	load     []int             // active runs per shard
	deferred []*runState       // bounded conflict backlog, FIFO
	deferMax int
	// Durable mode only: the WAL's durable LSN and error, and each run retired
	// done → log length at retirement, until the WAL covers it.
	durable   func() (int, error)
	undurable map[*runState]int

	workers []*worker
	stopCh  chan struct{}
	wg      sync.WaitGroup

	steps     []atomic.Int64 // normal steps committed, per shard
	completed atomic.Int64
	failed    atomic.Int64
	obs       execObs // optional instrumentation; zero means off
}

// execObs mirrors the executor's counters into the obs registry. The obs
// handle types are nil-safe, so the zero value is a no-op.
type execObs struct {
	steps     []*obs.Counter
	active    []*obs.Gauge
	deferred  *obs.Gauge
	completed *obs.Counter
	failed    *obs.Counter
}

func (o execObs) step(shard int) {
	if shard < len(o.steps) {
		o.steps[shard].Inc()
	}
}

func (o execObs) load(shard, n int) {
	if shard < len(o.active) {
		o.active[shard].Set(int64(n))
	}
}

func newExecutor(eng *engine.Engine, com *committer, shards, inbox, deferMax int) *executor {
	if shards < 1 {
		shards = 1
	}
	if inbox < 1 {
		inbox = 16
	}
	if deferMax < 0 {
		deferMax = 0
	}
	x := &executor{
		eng:      eng,
		com:      com,
		runs:     make(map[string]*runState),
		tombs:    make(map[string]tombstone),
		keyOwner: make(map[data.Key]int),
		keyRefs:  make(map[data.Key]int),
		recKeys:  make(map[data.Key]bool),
		load:     make([]int, shards),
		deferMax: deferMax,
		stopCh:   make(chan struct{}),
		steps:    make([]atomic.Int64, shards),
	}
	for i := 0; i < shards; i++ {
		x.gates = append(x.gates, newGate())
		x.workers = append(x.workers, &worker{id: i, x: x, inbox: make(chan *runState, inbox)})
	}
	return x
}

func (x *executor) start() {
	for _, w := range x.workers {
		x.wg.Add(1)
		go w.loop()
	}
}

// stop halts the workers. The commit pipeline must still be running so
// in-flight commits can acknowledge.
func (x *executor) stop() {
	close(x.stopCh)
	for _, g := range x.gates {
		g.close()
	}
	x.wg.Wait()
}

// pauseAll quiesces every shard (Theorem-4 strict gating and full-quiesce
// repair); resumeAll lifts the pause. Both are idempotent per gate.
func (x *executor) pauseAll() {
	for _, g := range x.gates {
		g.pause()
	}
}

func (x *executor) resumeAll() {
	for _, g := range x.gates {
		g.resume()
	}
}

// beginRecovery marks keys as under recovery — new placements touching any
// of them defer until endRecovery — and pauses only the shards currently
// owning one, waiting for their in-flight steps to drain. Shards whose
// footprints are disjoint from the damage keep serving traffic through the
// whole RECOVERY window (§IV concurrent recovery). Returns the paused shard
// IDs for endRecovery.
func (x *executor) beginRecovery(keys map[data.Key]bool) []int {
	x.mu.Lock()
	pause := make(map[int]bool)
	for k := range keys {
		x.recKeys[k] = true
		if x.keyRefs[k] > 0 {
			pause[x.keyOwner[k]] = true
		}
	}
	x.mu.Unlock()
	ids := make([]int, 0, len(pause))
	for id := range pause {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		x.gates[id].pause()
	}
	return ids
}

// endRecovery clears the recovery key set, resumes the paused shards and
// redispatches any deferred runs that became placeable.
func (x *executor) endRecovery(paused []int) {
	x.mu.Lock()
	x.recKeys = make(map[data.Key]bool)
	dispatch := x.redispatchLocked()
	x.mu.Unlock()
	for _, id := range paused {
		x.gates[id].resume()
	}
	x.deliver(dispatch)
}

// footprint returns the sorted unique key set a spec can touch.
func footprint(spec *wf.Spec) []data.Key {
	set := make(map[data.Key]bool)
	for _, t := range spec.Tasks {
		for _, k := range t.Reads {
			set[k] = true
		}
		for _, k := range t.Writes {
			set[k] = true
		}
	}
	keys := make([]data.Key, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// submit registers a run and dispatches it to a shard — or defers it when
// its footprint conflicts across shards. Returns ErrRunExists, ErrBadSpec
// (via engine.NewRun) or ErrQueueFull.
func (x *executor) submit(id string, spec *wf.Spec) error {
	r, err := x.eng.NewRun(id, spec)
	if err != nil {
		return err
	}
	rs := &runState{run: r, keys: footprint(spec), shard: -1}

	x.mu.Lock()
	_, live := x.runs[id]
	if _, gone := x.tombs[id]; live || gone {
		x.mu.Unlock()
		return fmt.Errorf("shard: run %s: %w", id, engine.ErrRunExists)
	}
	shard, ok := x.placeLocked(rs)
	if !ok {
		if len(x.deferred) >= x.deferMax {
			x.mu.Unlock()
			return fmt.Errorf("shard: run %s conflicts across shards and the deferred queue is full: %w", id, ErrQueueFull)
		}
		rs.state = RunDeferred
		x.deferred = append(x.deferred, rs)
		x.runs[id] = rs
		x.obs.deferred.Set(int64(len(x.deferred)))
		x.mu.Unlock()
		return nil
	}
	x.claimLocked(rs, shard)
	x.runs[id] = rs
	x.mu.Unlock()

	// The inbox is sized for bursts; a full inbox only delays delivery,
	// never drops. A paused shard does not drain its inbox, so delivery
	// must never block the submitter.
	x.deliver([]*runState{rs})
	return nil
}

// canAdmit reports whether a run with the given footprint would be accepted
// right now: placeable on some shard, or deferrable within deferMax. The
// durable submit path checks this before writing the spec record, while
// holding the submit mutex — no other submission can run, and retiring runs
// only shrink conflicts and drain the deferred queue, so a true answer
// cannot turn false before the actual submit.
func (x *executor) canAdmit(keys []data.Key) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.placeLocked(&runState{keys: keys}); ok {
		return true
	}
	return len(x.deferred) < x.deferMax
}

// adoptRestored registers a run rebuilt from a durable snapshot and replay.
// Retired runs (done/failed) are registered for RunInfo lookups only; live
// runs are placed like fresh submissions, except that restore never
// rejects — a run that cannot be placed goes to the deferred queue even
// past deferMax, because it was already admitted in a previous life.
// Returns the run to deliver once the workers start (nil when retired or
// deferred).
func (x *executor) adoptRestored(r *engine.Run, spec *wf.Spec, status RunStatus, errMsg string) *runState {
	rs := &runState{run: r, shard: -1, state: status}
	if errMsg != "" {
		rs.err = errors.New(errMsg)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.runs[r.ID] = rs
	if status == RunDone || status == RunFailed {
		rs.shard = 0
		return nil
	}
	rs.keys = footprint(spec)
	if shard, ok := x.placeLocked(rs); ok {
		x.claimLocked(rs, shard)
		return rs
	}
	rs.state = RunDeferred
	x.deferred = append(x.deferred, rs)
	x.obs.deferred.Set(int64(len(x.deferred)))
	return nil
}

// tombstoned reports whether id names a run a checkpoint retired for good.
func (x *executor) tombstoned(id string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, gone := x.tombs[id]
	return gone
}

// capture records every run's durable state for a snapshot: the live runs'
// frontiers, and a tombstone for every run retired by now — the earlier
// tombstones and the runs retired since. Callers hold all shards quiesced:
// the run objects' frontiers and visit counters are read without their
// owning workers' cooperation.
func (x *executor) capture() (map[string]durable.RunState, map[string]durable.Tombstone) {
	x.mu.Lock()
	defer x.mu.Unlock()
	runs := make(map[string]durable.RunState)
	tombs := make(map[string]durable.Tombstone, len(x.tombs))
	for id, tb := range x.tombs {
		tombs[id] = durable.Tombstone{Status: tb.state.String(), Err: tb.err}
	}
	for id, rs := range x.runs {
		var errMsg string
		if rs.err != nil {
			errMsg = rs.err.Error()
		}
		if rs.state == RunDone || rs.state == RunFailed {
			tombs[id] = durable.Tombstone{Status: rs.state.String(), Err: errMsg}
			continue
		}
		runs[id] = durable.RunState{
			Cur:    rs.run.Current(),
			Visits: rs.run.VisitCounts(),
			Status: rs.state.String(),
			Err:    errMsg,
		}
	}
	return runs, tombs
}

// bury reduces every run in tombs to its tombstone: the run record, its
// engine run and the spec it points to are released. The live-run map is
// rebuilt rather than pruned — a Go map keeps its peak size after deletes.
func (x *executor) bury(tombs map[string]durable.Tombstone) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for id, tb := range tombs {
		if rs, ok := x.runs[id]; ok {
			delete(x.undurable, rs) // a snapshot covers only the durable prefix
		}
		state := RunDone
		if tb.Status == durable.RunFailed {
			state = RunFailed
		}
		x.tombs[id] = tombstone{err: tb.Err, state: state}
	}
	live := make(map[string]*runState)
	for id, rs := range x.runs {
		if _, gone := tombs[id]; !gone {
			live[id] = rs
		}
	}
	x.runs = live
}

// deliver hands placed runs to their shards' inboxes without ever blocking
// the caller: a full (or paused) inbox overflows to a goroutine.
func (x *executor) deliver(dispatch []*runState) {
	for _, d := range dispatch {
		select {
		case x.workers[d.shard].inbox <- d:
		default:
			go func(d *runState) { x.workers[d.shard].inbox <- d }(d)
		}
	}
}

// placeLocked picks a shard for rs per the ownership rule: zero owning
// shards → least loaded; one owning shard → that shard (keeps overlapping
// runs serialized); more than one → no sound placement (defer).
func (x *executor) placeLocked(rs *runState) (int, bool) {
	// Runs touching keys under recovery wait out the repair: their chains
	// are being rewritten, and reading them mid-repair would commit stale
	// observations past the repair's pinned epoch.
	for _, k := range rs.keys {
		if x.recKeys[k] {
			return 0, false
		}
	}
	owner := -1
	for _, k := range rs.keys {
		if x.keyRefs[k] == 0 {
			continue
		}
		o := x.keyOwner[k]
		if owner == -1 {
			owner = o
		} else if owner != o {
			return 0, false
		}
	}
	if owner >= 0 {
		return owner, true
	}
	least := 0
	for i := 1; i < len(x.load); i++ {
		if x.load[i] < x.load[least] {
			least = i
		}
	}
	return least, true
}

func (x *executor) claimLocked(rs *runState, shard int) {
	rs.shard = shard
	rs.state = RunActive
	for _, k := range rs.keys {
		x.keyOwner[k] = shard
		x.keyRefs[k]++
	}
	x.load[shard]++
	x.obs.load(shard, x.load[shard])
}

// finish retires a run, releases its key claims and redispatches any
// deferred runs that became placeable.
func (x *executor) finish(rs *runState, state RunStatus, err error) {
	x.mu.Lock()
	rs.state = state
	rs.err = err
	if state == RunDone && x.durable != nil {
		// Keys are released now: a later step's records follow this run's
		// in the WAL, so no crash keeps them and loses this run's.
		lsn, _ := x.durable()
		maps.DeleteFunc(x.undurable, func(_ *runState, at int) bool { return at <= lsn })
		x.undurable[rs] = x.eng.Log().Len()
	}
	for _, k := range rs.keys {
		if x.keyRefs[k]--; x.keyRefs[k] == 0 {
			delete(x.keyRefs, k)
			delete(x.keyOwner, k)
		}
	}
	// Placement was the footprint's only reader, and the run record itself
	// stays for the whole history.
	rs.keys = nil
	x.load[rs.shard]--
	x.obs.load(rs.shard, x.load[rs.shard])

	dispatch := x.redispatchLocked()
	x.mu.Unlock()

	if state == RunDone {
		x.completed.Add(1)
		x.obs.completed.Inc()
	} else {
		x.failed.Add(1)
		x.obs.failed.Inc()
	}
	// finish runs on a worker goroutine inside its gate; deliver never
	// blocks, so a send into a paused sibling's full inbox cannot deadlock
	// against that sibling's pause.
	x.deliver(dispatch)
}

// statusLocked is rs's published status: done only once the WAL covers its
// retirement, failed with the WAL's error if it never will. Callers hold x.mu.
func (x *executor) statusLocked(rs *runState) (RunStatus, error) {
	at, ok := x.undurable[rs]
	if !ok {
		return rs.state, rs.err
	}
	switch lsn, err := x.durable(); {
	case at <= lsn:
		delete(x.undurable, rs)
		return RunDone, nil
	case err != nil:
		return RunFailed, err
	}
	return RunActive, nil
}

// redispatchLocked re-places every deferred run that became placeable.
// Callers hold x.mu and deliver the returned runs after unlocking.
func (x *executor) redispatchLocked() []*runState {
	var dispatch []*runState
	kept := x.deferred[:0]
	for _, d := range x.deferred {
		if shard, ok := x.placeLocked(d); ok {
			x.claimLocked(d, shard)
			dispatch = append(dispatch, d)
		} else {
			kept = append(kept, d)
		}
	}
	x.deferred = kept
	x.obs.deferred.Set(int64(len(x.deferred)))
	return dispatch
}

// idle reports whether no run is active or deferred.
func (x *executor) idle() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.deferred) > 0 {
		return false
	}
	for _, n := range x.load {
		if n > 0 {
			return false
		}
	}
	return true
}

// waitIdle polls until every submitted run has retired or ctx expires.
func (x *executor) waitIdle(ctx context.Context) error {
	for {
		if x.idle() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// activeRuns returns the runs currently assigned to shards (not deferred,
// not retired). Recovery resync mutates a run's frontier, so callers must
// hold the owning shard of every run they touch quiesced; runs on unpaused
// shards may only be skipped, never dereferenced into engine state.
func (x *executor) activeRuns() []*runState {
	x.mu.Lock()
	defer x.mu.Unlock()
	var out []*runState
	for _, rs := range x.runs {
		if rs.state == RunActive {
			out = append(out, rs)
		}
	}
	return out
}

// worker is one shard: a goroutine stepping its assigned runs round-robin,
// preparing locally and committing through the shared pipeline.
type worker struct {
	id     int
	x      *executor
	inbox  chan *runState
	active []*runState
	next   int
}

func (w *worker) loop() {
	defer w.x.wg.Done()
	for {
		w.drainInbox()
		// The shard's gate brackets every access to its runs' mutable
		// state (pick reads frontiers, step advances them): pausing a
		// shard's gate therefore guarantees recovery an exclusive,
		// quiescent view of that shard's runs for the store install and
		// the frontier resyncs — while other shards keep stepping.
		gt := w.x.gates[w.id]
		if !gt.enter() {
			return
		}
		rs := w.pick()
		if rs == nil {
			gt.exit()
			// Nothing runnable: block for new work or stop.
			select {
			case <-w.x.stopCh:
				return
			case got := <-w.inbox:
				w.active = append(w.active, got)
			}
			continue
		}
		w.step(rs)
		gt.exit()
	}
}

func (w *worker) drainInbox() {
	for {
		select {
		case rs := <-w.inbox:
			w.active = append(w.active, rs)
		default:
			return
		}
	}
}

// pick returns the next incomplete run round-robin, retiring finished ones.
func (w *worker) pick() *runState {
	for i := 0; i < len(w.active); {
		rs := w.active[i]
		if rs.run.Done() {
			// Completed (either by its own last step or by a recovery
			// resync that moved the frontier past the end).
			w.retire(i, rs, RunDone, nil)
			continue
		}
		i++
	}
	if len(w.active) == 0 {
		return nil
	}
	w.next %= len(w.active)
	rs := w.active[w.next]
	w.next++
	return rs
}

func (w *worker) retire(i int, rs *runState, state RunStatus, err error) {
	w.active = append(w.active[:i], w.active[i+1:]...)
	w.x.finish(rs, state, err)
}

// step prepares and commits one task of rs. Called inside the gate.
func (w *worker) step(rs *runState) {
	p, err := w.x.eng.Prepare(rs.run)
	var cerr error
	if err == nil && p != nil {
		cerr = w.x.com.commit(p)
	}

	idx := w.indexOf(rs)
	switch {
	case err != nil:
		// Prepare failures (task crash) are terminal for the run.
		w.retire(idx, rs, RunFailed, err)
	case cerr != nil:
		w.retire(idx, rs, RunFailed, cerr)
	default:
		if p != nil {
			w.x.steps[w.id].Add(1)
			w.x.obs.step(w.id)
		}
		if rs.run.Done() {
			w.retire(idx, rs, RunDone, nil)
		}
	}
}

func (w *worker) indexOf(rs *runState) int {
	for i, a := range w.active {
		if a == rs {
			return i
		}
	}
	return -1
}

// gate is one shard's quiesce barrier between normal stepping and
// recovery-unit execution: the worker enters before preparing and exits
// after its commit is applied in memory; pause blocks new entries and waits
// until every in-flight prepare→commit window has drained. Recovery pauses
// only the gates of shards whose key footprints intersect the damage
// (executor.beginRecovery) — clean shards, and damage analysis, run fully
// concurrent. Strict mode pauses every gate for the SCAN+RECOVERY period.
type gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	paused bool
	closed bool
	active int
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter blocks while the gate is paused; false means the gate closed
// (executor stopping).
func (g *gate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.paused && !g.closed {
		g.cond.Wait()
	}
	if g.closed {
		return false
	}
	g.active++
	return true
}

func (g *gate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.active--; g.active == 0 {
		g.cond.Broadcast()
	}
}

// pause stops new entries and waits for the active count to drain. The
// commit pipeline must keep running while pause waits (in-flight steps are
// blocked on commit acknowledgements).
func (g *gate) pause() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.paused = true
	for g.active > 0 && !g.closed {
		g.cond.Wait()
	}
}

func (g *gate) resume() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.paused = false
	g.cond.Broadcast()
}

// close releases every waiter permanently.
func (g *gate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	g.cond.Broadcast()
}
