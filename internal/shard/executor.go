package shard

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/machine"
	"selfheal/internal/obs"
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
	// RunDeferred: the run waits — in the bounded deferred queue for a
	// sound placement, its key footprint overlapping runs on more than one
	// shard, or on its shard for a repair to release a key it touches.
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

// runState is the executor's placement of one live run; the run's frontier
// and, once it retires, its status live in the machine.
type runState struct {
	run   *engine.Run
	keys  []data.Key // the spec's footprint (shared, read-only)
	shard int        // owning shard; -1 while deferred
	state RunStatus  // RunActive or RunDeferred
}

// executor partitions runs across shard workers. The dispatcher invariant
// is key disjointness: at any moment, each data key is touched by runs of
// at most one shard. Combined with the engine's read-latest semantics and
// the one commit pipeline, this makes every concurrent execution
// trace-equivalent to the serial execution in LSN order — a task's recorded
// reads always name the latest versions committed before its LSN, exactly
// as if the steps had been executed one at a time (shard_test.go replays
// the log to verify this).
//
// gate is the §IV quiesce: a worker steps a run only inside gate.Enter of
// the run's footprint, and reads none of the run's fields outside it, so a
// pause of the damaged keys gives recovery a still view of exactly the runs
// touching them — for the store install and the frontier resyncs — while
// every other run, on any shard, keeps stepping.
type executor struct {
	m    *machine.Machine
	eng  *engine.Engine
	com  *pipeline
	gate *machine.KeyGate

	mu sync.Mutex
	// runs holds every live run, placed or deferred; a run leaves it when
	// it retires, and the machine records its final status (finish). Lock
	// order: mu, then the machine's.
	runs     map[string]*runState
	keyOwner map[data.Key]int // shard currently owning the key
	keyRefs  map[data.Key]int // active runs on the owner touching it
	load     []int            // active runs per shard
	deferred []*runState      // bounded conflict backlog, FIFO
	// Durable mode only: the WAL's durable LSN and error, and each run retired
	// done → log length at retirement, until the WAL covers it.
	durable   func() (int, error)
	undurable map[string]int

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

// deferMax bounds the deferred-run queue: a submission whose footprint
// conflicts across shards past it is refused with ErrQueueFull. inboxCap
// buffers each shard's run-delivery channel; a full one only delays
// delivery (deliver).
const (
	deferMax = 16
	inboxCap = 32
)

func newExecutor(m *machine.Machine, com *pipeline, shards int) *executor {
	x := &executor{
		m:        m,
		eng:      m.Engine(),
		com:      com,
		gate:     machine.NewKeyGate(),
		runs:     make(map[string]*runState),
		keyOwner: make(map[data.Key]int),
		keyRefs:  make(map[data.Key]int),
		load:     make([]int, shards),
		stopCh:   make(chan struct{}),
		steps:    make([]atomic.Int64, shards),
	}
	for i := 0; i < shards; i++ {
		x.workers = append(x.workers, &worker{id: i, x: x, inbox: make(chan *runState, inboxCap)})
	}
	return x
}

func (x *executor) start() {
	for _, w := range x.workers {
		x.wg.Add(1)
		go w.loop()
	}
}

// stop halts the workers.
func (x *executor) stop() {
	close(x.stopCh)
	x.wg.Wait()
}

// owners counts the shards owning one of keys: the shards a pause of keys
// holds still in part.
func (x *executor) owners(keys []data.Key) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	seen := make(map[int]bool)
	for _, k := range keys {
		if x.keyRefs[k] > 0 {
			seen[x.keyOwner[k]] = true
		}
	}
	return len(seen)
}

// submit dispatches a registered run to a shard — or defers it when its
// footprint conflicts across shards. A full deferred queue rejects it with
// ErrQueueFull, unless the run is restored: rebuilt from a durable snapshot
// and replay, it was admitted in a previous life, so it defers past
// deferMax.
func (x *executor) submit(r *engine.Run, restored bool) error {
	rs := &runState{run: r, keys: r.Spec.Footprint(), shard: -1}
	x.mu.Lock()
	shard, ok := x.placeLocked(rs)
	if !ok && !restored && len(x.deferred) >= deferMax {
		x.mu.Unlock()
		return fmt.Errorf("shard: run %s conflicts across shards and the deferred queue is full: %w", r.ID, ErrQueueFull)
	}
	x.runs[r.ID] = rs
	if !ok {
		rs.state = RunDeferred
		x.deferred = append(x.deferred, rs)
		x.obs.deferred.Set(int64(len(x.deferred)))
		x.mu.Unlock()
		return nil
	}
	x.claimLocked(rs, shard)
	x.mu.Unlock()

	// The inbox is sized for bursts; a full inbox only delays delivery,
	// never drops, and never blocks the submitter.
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
	return len(x.deferred) < deferMax
}

// deliver hands placed runs to their shards' inboxes without ever blocking
// the caller: a full inbox overflows to a goroutine.
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
// shards → least loaded, ties by the run ID's hash; one owning shard → that
// shard (keeps overlapping runs serialized); more than one → no sound
// placement (defer).
func (x *executor) placeLocked(rs *runState) (int, bool) {
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
	// Ties between equally loaded shards go to the first one from a shard
	// picked by the run ID's hash, so runs arriving one at a time spread
	// over idle shards instead of all landing on shard 0. (canAdmit asks
	// with no run: only whether a shard exists matters there.)
	start := 0
	if rs.run != nil {
		h := uint32(2166136261) // FNV-1a
		for i := 0; i < len(rs.run.ID); i++ {
			h = (h ^ uint32(rs.run.ID[i])) * 16777619
		}
		start = int(h % uint32(len(x.load)))
	}
	least := start
	for i := 1; i < len(x.load); i++ {
		if s := (start + i) % len(x.load); x.load[s] < x.load[least] {
			least = s
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
	delete(x.runs, rs.run.ID)
	if state == RunDone {
		x.m.Retire(rs.run.ID, machine.Done, "")
	} else {
		x.m.Retire(rs.run.ID, machine.Failed, errString(err))
	}
	if state == RunDone && x.durable != nil {
		// Keys are released now: a later step's records follow this run's
		// in the WAL, so no crash keeps them and loses this run's.
		lsn, _ := x.durable()
		maps.DeleteFunc(x.undurable, func(_ string, at int) bool { return at <= lsn })
		x.undurable[rs.run.ID] = x.eng.Log().Len()
	}
	for _, k := range rs.keys {
		if x.keyRefs[k]--; x.keyRefs[k] == 0 {
			delete(x.keyRefs, k)
			delete(x.keyOwner, k)
		}
	}
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
	// finish runs on a worker inside the gate; deliver never blocks, so two
	// workers sending into each other's full inboxes cannot deadlock.
	x.deliver(dispatch)
}

// errString is err's message, or "" for none.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// doneLocked is the published status of run id, retired done: done only
// once the WAL covers its retirement, failed with the WAL's error if it never
// will. Callers hold x.mu.
func (x *executor) doneLocked(id string) (RunStatus, error) {
	at, ok := x.undurable[id]
	if !ok {
		return RunDone, nil
	}
	switch lsn, err := x.durable(); {
	case at <= lsn:
		delete(x.undurable, id)
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

// worker is one shard: a goroutine stepping its assigned runs round-robin,
// preparing locally and committing each step itself through the shared
// pipeline.
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
		select {
		case <-w.x.stopCh:
			return
		default:
		}
		w.drainInbox()
		if w.stepOne() {
			continue
		}
		// Nothing runnable. The channel is taken before a second look, so a
		// release after the first look is not missed; then block for new
		// work, a release or stop.
		wake := w.x.gate.Wait()
		if w.stepOne() {
			continue
		}
		select {
		case <-w.x.stopCh:
			return
		case got := <-w.inbox:
			w.active = append(w.active, got)
		case <-wake:
		}
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

// stepOne steps the next run, round-robin, whose footprint the gate admits
// — or retires it, when a repair moved it past its end — and reports whether
// there was one. Runs whose footprint is paused are skipped unread.
func (w *worker) stepOne() bool {
	for range w.active {
		w.next %= len(w.active)
		rs := w.active[w.next]
		keys := rs.keys
		if !w.x.gate.Enter(keys) {
			w.next++
			continue
		}
		if rs.run.Done() {
			w.retire(w.next, rs, RunDone, nil)
		} else {
			w.step(w.next, rs)
			w.next++
		}
		w.x.gate.Exit(keys)
		return true
	}
	return false
}

func (w *worker) retire(i int, rs *runState, state RunStatus, err error) {
	w.active = append(w.active[:i], w.active[i+1:]...)
	w.x.finish(rs, state, err)
}

// step prepares and commits one task of rs, active[i]. Called inside the
// gate.
func (w *worker) step(i int, rs *runState) {
	p, err := w.x.eng.Prepare(rs.run)
	if err == nil && p != nil {
		err = w.x.com.commit(p)
	}
	if err != nil {
		// A task crash or a failed commit is terminal for the run.
		w.retire(i, rs, RunFailed, err)
		return
	}
	if p != nil {
		w.x.steps[w.id].Add(1)
		w.x.obs.step(w.id)
	}
	if rs.run.Done() {
		w.retire(i, rs, RunDone, nil)
	}
}
