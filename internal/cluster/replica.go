package cluster

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/machine"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// doneAt is a run completed by a record the replica has applied but not yet
// published.
type doneAt struct {
	run string
	seq int
}

// replica is the deterministic state machine every node holds: the
// replicated state (machine.Machine — the system log, the versioned store,
// the run specifications and every run's execution frontier), derived by
// applying the record stream in order, plus the stream position. The stream
// itself is not kept here: the node's frame log holds it, as the bytes the
// journal and the wire carry.
// Two replicas at the same applied position are byte-identical — including
// after repairs, whose effect every replica installs at the same stream
// position, and after checkpoints, which forget the same history at the
// same position.
// Above the last checkpoint's horizon the log, the store history and the
// runs are complete; beneath it only the snapshot's state survives, as
// compacted store chains and a tombstone per retired or forged run.
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
	// unpublished holds, in seq order, the runs completed by records above
	// published: such a run reads as done only once the cursor covers it
	// (RunDone).
	unpublished []doneAt

	// m is the replicated state; a restore replaces it whole.
	m *machine.Machine
	// tab is this replica's intern table, kept across restores: every spec
	// compiled here (applied, speculated at admission, or validated by the
	// stamper) shares its strings, lists and footprint with the other runs'.
	tab *wf.Interner

	// docs holds the spec document of every run live at the last checkpoint
	// or restored from a snapshot: the next snapshot needs it, and by then
	// the journal may have retired the run's spec record. specSeq holds,
	// for every other live run, the seq of its spec record, where a
	// checkpoint finds its document.
	docs    map[string][]byte
	specSeq map[string]int
	// ckpt is the capture of the checkpoint record just applied, held until
	// the node takes it (takeCheckpoint) to complete and store the snapshot.
	ckpt *capture

	ropts recovery.Options
	// tally is the repair accounting: every replica counts the repairs it
	// installs alike; the one that computed a repair also audits its
	// schedule, and counts a repair it refused.
	tally machine.Tally
}

func newReplica() *replica {
	tab := wf.NewInterner()
	r := &replica{
		m:       machine.New(engine.New(data.NewStore(), wlog.New()), tab),
		tab:     tab,
		docs:    make(map[string][]byte),
		specSeq: make(map[string]int),
		// Parallel=1 pins the repair schedule: a legacy repair record
		// computes the identical result on every replica that applies it.
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
		r.publish(seq)
	}
}

// publish moves the replication cursor to seq. Callers hold r.mu.
func (r *replica) publish(seq int) {
	r.published = seq
	n := 0
	for n < len(r.unpublished) && r.unpublished[n].seq <= seq {
		n++
	}
	r.unpublished = r.unpublished[n:]
}

// Apply applies one replicated (already durable at its origin) record and
// publishes it. Records must arrive in stream order; a gap or replayed
// record is reported by the boolean without touching state.
func (r *replica) Apply(rec *Record) (applied bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ok, err := r.applyLocked(rec)
	if ok && r.published < r.applied {
		r.publish(r.applied)
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
	case KindAdopt:
		err = r.applyAdopt(rec.Seq, rec.Adopt)
	case KindRepair:
		err = r.applyRepair(rec)
	case KindCheckpoint:
		r.applyCheckpoint(rec)
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
	if r.m.Has(rec.Run) {
		return fmt.Errorf("cluster: record %d: run %s already registered", rec.Seq, rec.Run)
	}
	var spec *wf.Spec
	var init map[data.Key]data.Value
	if b := rec.built; b != nil {
		spec, init = b.spec, b.init
	} else {
		var err error
		spec, init, err = wfjson.BuildIn(r.tab, rec.Spec)
		if err != nil {
			return fmt.Errorf("cluster: record %d spec: %w", rec.Seq, err)
		}
	}
	if _, err := r.m.Register(rec.Run, spec); err != nil {
		return fmt.Errorf("cluster: record %d: %w", rec.Seq, err)
	}
	// First writer wins, decided at this stream position — deterministic
	// on every replica regardless of map iteration order.
	r.m.Init(init)
	r.specSeq[rec.Run] = rec.Seq
	return nil
}

func (r *replica) applyEntry(rec *Record) error {
	if rec.Entry == nil {
		return fmt.Errorf("cluster: record %d: entry record without entry", rec.Seq)
	}
	// A record off the binary stream carries the LSN the stamper's log
	// assigned (freshly stamped ones carry none): entry records occupy the
	// same stream positions everywhere, so this log must assign the same.
	done, err := r.m.Apply(rec.Entry)
	if err != nil {
		return fmt.Errorf("cluster: record %d: %w", rec.Seq, err)
	}
	if done {
		r.unpublished = append(r.unpublished, doneAt{rec.Entry.Run, rec.Seq})
	}
	return nil
}

// repair computes, at the stream head, the repair of the accused instances
// over a dependence graph of the resident log, audits its schedule, and
// returns its effect: the one analysis and repair of a cluster incident, run
// by the stamper (stamper.SubmitRepair) and by a replica applying a legacy
// repair record. A repair that needs history beneath the horizon is refused
// (machine.Machine.CheckHorizon) with recovery.ErrHorizon. Callers
// serialize it with every application: the stamper holds s.mu, the one lock
// its replica applies under, and a replica holds r.mu.
func (r *replica) repair(bad []wlog.InstanceID) (machine.Effect, error) {
	if err := r.m.CheckHorizon(bad, nil); err != nil {
		return machine.Effect{}, err
	}
	res, err := r.m.Repair(deps.Build(r.m.Log()), nil, bad, r.ropts)
	if err != nil {
		return machine.Effect{}, err
	}
	r.tally.Computed(res, true)
	return r.m.EffectOf(res), nil
}

// applyAdopt installs a repair's effect at this stream position
// (machine.Machine.Install), the one install path of every replica, the
// stamper's included, and counts it.
func (r *replica) applyAdopt(seq int, eff *machine.Effect) error {
	if err := r.m.Install(*eff); err != nil {
		return fmt.Errorf("cluster: record %d: %w", seq, err)
	}
	r.tally.Installed(*eff)
	// A run the repair moved past its end is done at this record.
	for _, f := range eff.Fronts {
		if f.Done {
			r.m.Retire(f.Run, machine.Done, "")
			r.unpublished = append(r.unpublished, doneAt{f.Run, seq})
		}
	}
	return nil
}

// applyRepair applies a legacy repair record: the repair is computed here,
// as the stamper computes it for an adopt record, and installed as the
// adopt record's effect is. A repair that fails to compute is counted (the
// recovery-error oracle surfaces it) but does not poison the stream: every
// replica fails it identically, so they stay convergent.
func (r *replica) applyRepair(rec *Record) error {
	eff, err := r.repair(rec.Bad)
	if err != nil {
		r.tally.Fail(fmt.Errorf("cluster: repair at record %d: %w", rec.Seq, err))
		return nil
	}
	return r.applyAdopt(rec.Seq, &eff)
}

// applyCheckpoint forgets, at a checkpoint record, everything beneath the
// head — the horizon HorizonAt computes there: every run done by now and
// every forged run nobody registered is buried — and captures the state a
// restart from the snapshot must equal: store chains, the live runs'
// frontiers and the tombstones. The capture waits in ckpt for the node,
// which adds the documents of the live runs registered since the last
// checkpoint from their spec records and stores the snapshot beside its
// journal.
func (r *replica) applyCheckpoint(rec *Record) {
	r.m.Forget(r.m.HorizonAt(r.m.Log().Len()))
	r.m.Retain(false)
	snap := r.m.Capture()
	snap.Seq = uint64(rec.Seq)
	snap.Specs = make(map[string]durable.SpecState, len(snap.Runs))
	// The documents and spec records of the live runs only: the maps are
	// rebuilt rather than pruned, as a Go map keeps its peak size.
	docs := make(map[string][]byte, len(snap.Runs))
	need := make(map[string]int)
	for run := range snap.Runs {
		if doc, ok := r.docs[run]; ok {
			snap.Specs[run] = durable.SpecState{JSON: doc}
			docs[run] = doc
		} else {
			need[run] = r.specSeq[run]
		}
	}
	r.docs, r.specSeq = docs, maps.Clone(need)
	r.ckpt = &capture{snap: snap, need: need}
}

// capture is a snapshot taken at a checkpoint record, missing the documents
// of the live runs registered since the checkpoint before: need maps each of
// them to its spec record's seq.
type capture struct {
	snap *durable.Snapshot
	need map[string]int
}

// takeCheckpoint returns the capture of the checkpoint record the replica
// just applied, or nil when the last record was not one.
func (r *replica) takeCheckpoint() *capture {
	r.mu.Lock()
	defer r.mu.Unlock()
	ck := r.ckpt
	r.ckpt = nil
	return ck
}

// adoptDocs keeps the documents a completed capture gathered for the live
// runs it covered, so the next checkpoint has them after the journal retires
// their spec records.
func (r *replica) adoptDocs(docs map[string][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for run, doc := range docs {
		if r.m.Run(run) != nil {
			r.docs[run] = doc
			delete(r.specSeq, run)
		}
	}
}

// restore replaces the replica's whole state with a snapshot's: the state a
// replica that applied the stream through snap.Seq holds. Boot restores the
// node's own latest snapshot; a node too far behind its peers restores
// theirs.
func (r *replica) restore(snap *durable.Snapshot) error {
	m, err := machine.Restore(r.tab, snap)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	docs := make(map[string][]byte, len(snap.Specs))
	for run, sp := range snap.Specs {
		if _, gone := m.Buried(run); !gone {
			docs[run] = sp.JSON
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m, r.docs, r.specSeq, r.unpublished = m, docs, make(map[string]int), nil
	r.applied, r.published, r.ckpt = int(snap.Seq), int(snap.Seq), nil
	r.cond.Broadcast()
	return nil
}

// entriesSinceCheckpoint counts the entry LSNs committed above the last
// checkpoint's horizon: the stamper's checkpoint trigger.
func (r *replica) entriesSinceCheckpoint() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.Log().Len() - r.m.Epoch()
}

// state returns the replicated state as it stands: every machine method is
// safe on its own, and a restore replaces the machine whole.
func (r *replica) state() *machine.Machine {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}

// Frontier returns a run's current execution position: the task to execute
// next, the visit number that execution would commit, and whether the run
// exists / is done. A run retired beneath the horizon is done, with no
// position; a forged one is unknown.
func (r *replica) Frontier(run string) (cur wf.TaskID, visit int, done, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rs := r.m.Run(run); rs != nil {
		cur = rs.Current()
		return cur, rs.Visits(cur) + 1, rs.Done(), true
	}
	gone := r.retiredLocked(run)
	return "", 0, gone, gone
}

// RunVisits returns a copy of a run's committed visit counts (ok false when
// the run is unknown) — the base the executor extends while speculating a
// submission window.
func (r *replica) RunVisits(run string) (visits map[wf.TaskID]int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.m.Run(run)
	if rs == nil {
		return nil, false
	}
	return rs.VisitCounts(), true
}

// Retired reports whether the run was retired beneath the horizon.
func (r *replica) Retired(run string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retiredLocked(run)
}

func (r *replica) retiredLocked(run string) bool {
	st, gone := r.m.Buried(run)
	return gone && st != machine.Forged
}

// RunDone reports whether a run exists and has durably completed: on the
// stamper, which applies a group before its fsync, a run whose completing
// record is not yet published still reads as active. A follower publishes
// on apply, so there done is done — and a run retired beneath the horizon
// is done everywhere.
func (r *replica) RunDone(run string) (done, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, _, ok := r.m.Status(run)
	if !ok || st == machine.Forged {
		return false, false
	}
	if st != machine.Done {
		return false, true
	}
	return !slices.ContainsFunc(r.unpublished, func(d doneAt) bool { return d.run == run }), true
}

// HasInstance reports whether an instance is committed in the log.
func (r *replica) HasInstance(id wlog.InstanceID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m.Log().Get(id)
	return ok
}

// DamageKeys computes the damage-key closure of the accused instances on
// this replica: the keys an incident pauses at the stamper's admission gate.
func (r *replica) DamageKeys(bad []wlog.InstanceID) []data.Key {
	r.mu.Lock()
	closure := r.m.DamageKeys(bad)
	r.mu.Unlock()
	out := make([]data.Key, 0, len(closure))
	for k := range closure {
		out = append(out, k)
	}
	return out
}

// currentObs returns the current committed observation for one key.
func (r *replica) currentObs(k data.Key) wlog.ReadObs {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m.Store().Get(k)
	if !ok {
		return wlog.ReadObs{Value: 0, WriterPos: wlog.MissingPos}
	}
	return wlog.ReadObs{Value: v.Value, Writer: v.Writer, WriterPos: v.Pos}
}
