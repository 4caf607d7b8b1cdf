// Durable service mode: the sharded self-healing service over a
// write-ahead log (internal/durable).
//
// NewDurable restores the complete system state — store, log suffix,
// dependence-graph frontier, live runs' specs and frontiers, retired runs'
// tombstones, un-acked alerts — from the WAL directory's latest snapshot plus a
// snapshot-bounded parallel replay, then wires the service so every state
// transition is logged before a client can observe it. WAL sequence order
// makes whatever survives a crash a consistent prefix, so nothing in the
// commit pipeline waits on the disk; each caller waits for what it hands out:
//
//   - committed entries ride the log's OnAppend hook into the WAL; a run
//     reads done once the WAL's durable prefix covers its retirement;
//   - run registrations write a spec record (with the initial values
//     actually seeded) before the run is placed, so a replayed entry never
//     references an unregistered run, and SubmitRunSpec syncs it;
//   - admitted alerts write an alert record before queueing and an ack
//     record only after every recovery unit of their batch completed, so a
//     crash mid-repair re-queues the batch and re-runs the idempotent
//     repair;
//   - repair installations write an adopt record (replacement chains +
//     resynced frontiers) inside the commit pipeline — repairs produce no
//     log entries, so the record is the only durable trace of the rewrite —
//     synced before the unit retires.
//
// Checkpoints (Service.Checkpoint, or automatic via Config.SnapshotEvery)
// quiesce the shards briefly, capture a Snapshot through the commit
// pipeline, write it, and then forget what it covers — the log and graph
// prefix, the store history beneath the epoch, every retired run but its
// tombstone — exactly as a restart from it would (Service.forget); the WAL
// retires every segment the snapshot covers. See docs/DURABILITY.md.
package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// NewDurable builds a sharded service backed by the WAL directory dir,
// restoring any state a previous process persisted there. Call Start to
// spin up the workers (restored active runs resume stepping, restored
// pending alerts re-enter triage) and Stop to flush and close the WAL.
func NewDurable(cfg Config, dir string, dopts durable.Options) (*Service, error) {
	cfg = cfg.withDefaults()
	wal, st, err := durable.Open(dir, dopts)
	if err != nil {
		return nil, err
	}
	eng := engine.New(st.Store, st.Log)
	s := &Service{
		cfg: cfg,
		eng: eng,
		// The graph resumes from the snapshot frontier and folds only the
		// restored log suffix (the OnAppend catch-up), not the full
		// history.
		graph:          deps.NewIncrementalFrom(st.Log, st.Graph),
		com:            newCommitter(eng, cfg.BatchMax, cfg.CommitQueue),
		specs:          make(map[string]*wf.Spec, len(st.Workflows)),
		alerts:         make(chan alert, cfg.AlertBuf),
		cover:          triage.NewCoverage(),
		pendingKeys:    make(map[string]int),
		stopCh:         make(chan struct{}),
		wal:            wal,
		liveAlerts:     make(map[uint64][]wlog.InstanceID, len(st.Alerts)),
		specStates:     make(map[string]durable.SpecState, len(st.Specs)),
		restoredAlerts: st.Alerts,
		ckptCh:         make(chan chan error),
	}
	// Attach the WAL after the graph: OnAppend hooks run in subscription
	// order, and the graph must observe an entry before its record can be
	// flushed (the graph is snapshot state; the WAL record is its replay).
	wal.AttachLog(st.Log)
	s.com.fault = func() error { _, err := wal.Durable(); return err }
	s.exec = newExecutor(eng, s.com, cfg.Shards, cfg.Inbox, cfg.DeferMax)
	s.exec.durable, s.exec.undurable = wal.Durable, make(map[*runState]int)

	for id, sp := range st.Workflows {
		s.specs[id] = sp
	}
	for id, ss := range st.Specs {
		s.specStates[id] = ss
	}
	for _, pa := range st.Alerts {
		s.liveAlerts[pa.ID] = pa.Bad
	}

	ids := make([]string, 0, len(st.Runs))
	for id := range st.Runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var resume []*runState
	for _, id := range ids {
		rs := st.Runs[id]
		spec := st.Workflows[id]
		if spec == nil {
			_ = wal.Close()
			return nil, fmt.Errorf("shard: restored run %s has no spec", id)
		}
		status := RunActive
		switch rs.Status {
		case durable.RunDone:
			status = RunDone
		case durable.RunFailed:
			status = RunFailed
		}
		r, err := eng.RestoreRun(id, spec, rs.Cur, rs.Visits, status == RunDone, status == RunFailed)
		if err != nil {
			_ = wal.Close()
			return nil, fmt.Errorf("shard: restoring run %s: %w", id, err)
		}
		if placed := s.exec.adoptRestored(r, spec, status, rs.Err); placed != nil {
			resume = append(resume, placed)
		}
		s.metrics.RunsSubmitted++
	}
	s.metrics.RunsSubmitted += len(st.Tombs)
	// The restore already built the state at the horizon; the step that
	// forgets it registers the tombstones and the pre-epoch runs, as a live
	// checkpoint does.
	if err := s.forget(st.Horizon); err != nil {
		_ = wal.Close()
		return nil, err
	}
	// Deliveries sit in the (buffered) inboxes until Start spins the
	// workers up.
	s.exec.deliver(resume)
	return s, nil
}

// ReplayStats reports the cost of the boot-time restore: how many WAL
// records were replayed past the snapshot and how long the restore took.
func (s *Service) ReplayStats() (records int, d time.Duration) {
	if s.wal == nil {
		return 0, 0
	}
	return s.wal.Replayed()
}

// SubmitRunSpec registers a workflow run from its wfjson document — the
// durable submission path (POST /api/v1/runs). The spec record (including
// the initial store values actually seeded) is written before the run is
// placed, so it precedes every entry of the run in the WAL, and the call
// returns once the record is on disk. On a non-durable service it degrades
// to init seeding plus SubmitRun. Errors wrap engine.ErrBadSpec,
// engine.ErrRunExists or ErrQueueFull.
func (s *Service) SubmitRunSpec(id string, sj *wfjson.SpecJSON) error {
	spec, init, err := wfjson.Build(sj)
	if err != nil {
		return fmt.Errorf("shard: run %s spec: %w: %w", id, engine.ErrBadSpec, err)
	}
	if s.wal == nil {
		// Seed declared initial values through the commit pipeline (first
		// writer wins): exclusive with group commits, so a concurrent
		// commit can never slip a version under the Init. The store is
		// read inside the job: a full repair queued ahead in the pipeline
		// swaps the engine's store, and a handle captured out here would
		// seed the swapped-out one.
		if err := s.com.exec(func() error {
			store := s.eng.Store()
			for k, v := range init {
				if _, ok := store.Get(k); !ok {
					store.Init(k, v)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		return s.SubmitRun(id, spec)
	}
	if err := s.registerDurable(id, sj, spec, init); err != nil {
		return err
	}
	return s.wal.Sync() // outside submitMu: concurrent submitters share the fsync
}

// registerDurable writes the spec record and registers and places the run.
func (s *Service) registerDurable(id string, sj *wfjson.SpecJSON, spec *wf.Spec, init map[data.Key]data.Value) error {
	// submitMu serializes durable submissions against each other and
	// against checkpoints: between the admission pre-check and the actual
	// submit, conflicts only shrink, and a snapshot never lands between
	// the spec record and the run's registration.
	s.submitMu.Lock()
	defer s.submitMu.Unlock()

	s.mu.Lock()
	_, dup := s.specs[id]
	s.mu.Unlock()
	if dup || s.exec.tombstoned(id) {
		return fmt.Errorf("shard: run %s: %w", id, engine.ErrRunExists)
	}
	if !s.exec.canAdmit(footprint(spec)) {
		return fmt.Errorf("shard: run %s conflicts across shards and the deferred queue is full: %w", id, ErrQueueFull)
	}
	doc, err := json.Marshal(sj)
	if err != nil {
		return fmt.Errorf("shard: run %s spec: %w: %w", id, engine.ErrBadSpec, err)
	}

	// Seed inits and write the spec record in one exclusive job, so the
	// record lands at the seeding point of the commit stream and replays
	// exactly the Inits that happened, not the ones the document declares
	// (a key may already have committed history).
	applied := make(map[data.Key]data.Value)
	if err := s.com.exec(func() error {
		store := s.eng.Store() // inside the job: a queued full repair may swap it
		for k, v := range init {
			if _, ok := store.Get(k); !ok {
				store.Init(k, v)
				applied[k] = v
			}
		}
		return s.wal.AppendSpec(id, doc, applied)
	}); err != nil {
		return err
	}

	s.mu.Lock()
	s.specs[id] = spec
	s.specStates[id] = durable.SpecState{JSON: doc, Init: applied}
	s.mu.Unlock()
	if err := s.exec.submit(id, spec); err != nil {
		// Unreachable in practice: duplicates and queue capacity were
		// checked under submitMu. Unregister so the in-memory maps stay
		// consistent; the orphaned spec record restores an idle run.
		s.mu.Lock()
		delete(s.specs, id)
		delete(s.specStates, id)
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.metrics.RunsSubmitted++
	s.mu.Unlock()
	return nil
}

// Checkpoint forces a durable snapshot now: shards quiesce briefly while
// the state is captured, the snapshot file is written and synced, covered
// WAL segments are retired, and the service forgets what the snapshot
// covers (forget). Returns an error on a non-durable service.
func (s *Service) Checkpoint(ctx context.Context) error {
	if s.wal == nil {
		return fmt.Errorf("shard: service has no durable WAL")
	}
	resp := make(chan error, 1)
	select {
	case s.ckptCh <- resp:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stopCh:
		return durable.ErrClosed
	}
	select {
	case err := <-resp:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// checkpoint runs on the recovery goroutine (never concurrent with a
// repair or an analysis, so no pinned graph view spans it): quiesce,
// capture, write, forget.
func (s *Service) checkpoint() error {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()

	s.mu.Lock()
	held := s.gateHeld
	s.mu.Unlock()
	if !held {
		s.exec.pauseAll()
	}
	var snap *durable.Snapshot
	_ = s.com.exec(func() error { snap = s.gatherSnapshot(); return nil }) // cannot fail
	if !held {
		s.exec.resumeAll()
	}
	// The snapshot covers every record up to its Seq and retires their
	// segments: it must never name a Seq beyond the durable prefix.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	if err := s.wal.WriteSnapshot(snap); err != nil {
		return err
	}
	// Only after the snapshot is durable may the service forget the history
	// it covers. CompactBefore keeps the latest version at or below the
	// horizon as a checkpoint version — repairs of post-epoch damage still
	// read correct pre-state values. Inside the commit pipeline: no commit
	// lands while the log and graph drop their prefix.
	return s.com.exec(func() error {
		s.eng.Store().CompactBefore(float64(snap.Epoch))
		return s.forget(snap.Horizon())
	})
}

// forget drops what a restart from the snapshot behind h would not bring
// back: the log prefix at or below the epoch (hooks stay subscribed), the
// dependence graph's prefix (it resumes from the snapshot's frontier and
// refolds only the suffix), and every retired run but its tombstone — the
// run record, the engine run, the compiled spec and the wfjson document.
// The live runs with history beneath the epoch become the pre-epoch set
// repairs are checked against. NewDurable runs it on the restored state,
// where the log and graph already start at the horizon; checkpoint runs it
// live inside the commit pipeline. One construction, so a restart and a
// checkpoint leave the same state behind (TestRestartEqualsLive).
func (s *Service) forget(h durable.Horizon) error {
	s.eng.Log().TruncateBefore(h.Epoch)
	if err := s.graph.Rebase(h.Graph); err != nil {
		return err
	}
	s.exec.bury(h.Tombs)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Rebuilt rather than pruned: a Go map keeps its peak size after
	// deletes.
	specs := make(map[string]*wf.Spec)
	for id, sp := range s.specs {
		if _, gone := h.Tombs[id]; !gone {
			specs[id] = sp
		}
	}
	states := make(map[string]durable.SpecState)
	for id, ss := range s.specStates {
		if _, gone := h.Tombs[id]; !gone {
			states[id] = ss
		}
	}
	s.specs, s.specStates = specs, states
	s.preEpoch = h.PreEpoch
	s.durableEpoch = h.Epoch
	return nil
}

// gatherSnapshot captures the full system state. Runs on the committer
// goroutine with every shard quiesced and submitMu held: no commit, spec
// record or frontier mutation is in flight. Alert records are the one
// concurrent writer, so Seq and the live-alert set are captured together
// under alertMu — an alert admitted after the capture has a record beyond
// Seq and replays from the log. Every run retired by now is captured as a
// tombstone: all its entries lie at or below the epoch.
func (s *Service) gatherSnapshot() *durable.Snapshot {
	runs, tombs := s.exec.capture()
	snap := &durable.Snapshot{
		Epoch:  s.eng.Log().Len(),
		Chains: s.eng.Store().ChainsCopy(),
		Graph:  s.graph.Frontier(),
		Specs:  make(map[string]durable.SpecState, len(runs)),
		Runs:   runs,
		Tombs:  tombs,
	}
	s.mu.Lock()
	for id, ss := range s.specStates {
		if _, gone := tombs[id]; !gone {
			snap.Specs[id] = ss
		}
	}
	s.mu.Unlock()
	s.alertMu.Lock()
	snap.Seq = s.wal.Seq()
	snap.Alerts = make(map[uint64][]wlog.InstanceID, len(s.liveAlerts))
	for id, bad := range s.liveAlerts {
		snap.Alerts[id] = append([]wlog.InstanceID(nil), bad...)
	}
	s.alertMu.Unlock()
	return snap
}

// snapshotLoop drives automatic checkpoints: once SnapshotEvery entries
// have committed past the latest snapshot, a checkpoint request is queued
// to the recovery goroutine.
func (s *Service) snapshotLoop() {
	defer s.wg.Done()
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		if s.wal.EntriesSinceSnapshot() < s.cfg.SnapshotEvery {
			continue
		}
		resp := make(chan error, 1)
		select {
		case s.ckptCh <- resp:
		case <-s.stopCh:
			return
		}
		select {
		case err := <-resp:
			if err != nil {
				s.mu.Lock()
				s.lastRecovery = fmt.Errorf("shard: checkpoint failed: %w", err)
				s.mu.Unlock()
			}
		case <-s.stopCh:
			return
		}
	}
}

// feedRestoredAlerts re-queues the alerts a previous process admitted but
// never acked. Alerts naming instances before the snapshot horizon cannot
// be analyzed against the truncated log: they are acked and counted lost.
func (s *Service) feedRestoredAlerts() {
	defer s.wg.Done()
	for _, pa := range s.restoredAlerts {
		valid := true
		for _, id := range pa.Bad {
			if _, ok := s.eng.Log().Get(id); !ok {
				valid = false
				break
			}
		}
		if !valid {
			s.mu.Lock()
			s.metrics.AlertsLost++
			s.mu.Unlock()
			s.o.lost.Inc()
			s.ackAlerts([]uint64{pa.ID})
			continue
		}
		for {
			s.mu.Lock()
			if len(s.alerts) < cap(s.alerts) {
				s.alerts <- alert{bad: pa.Bad, walID: pa.ID}
				s.alertsQueued++
				s.metrics.AlertsReported++
				s.o.alertDepth.Set(int64(s.alertsQueued))
				s.mu.Unlock()
				s.o.reported.Inc()
				break
			}
			s.mu.Unlock()
			select {
			case <-s.stopCh:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// unitGroupDone retires one unit from its alert batch's ack group and
// writes the ack record when the whole batch has completed.
func (s *Service) unitGroupDone(g *ackGroup) {
	s.alertMu.Lock()
	g.remaining--
	done := g.remaining == 0
	s.alertMu.Unlock()
	if done {
		s.ackAlerts(g.ids)
	}
}

// ackAlerts marks alert IDs repaired: dropped from the live set and logged
// as an ack record. The record is not synced — losing it only re-runs an
// idempotent repair after a crash.
func (s *Service) ackAlerts(ids []uint64) {
	s.alertMu.Lock()
	defer s.alertMu.Unlock()
	for _, id := range ids {
		delete(s.liveAlerts, id)
	}
	// A write failure here is deliberately ignored: the WAL error is
	// sticky and surfaces on the next commit acknowledgement.
	_ = s.wal.AppendAck(ids)
}

// executeDurable is the durable repair path: always damage-scoped (a
// whole-store swap has no WAL representation), installed via AdoptChains
// plus an adopt record, and refused with recovery.ErrHorizon when the
// repair would need history the snapshot horizon truncated.
func (s *Service) executeDurable(u *unit) error {
	dkeys := s.damageKeyClosure(u)
	s.mu.Lock()
	specs := s.specsCopyLocked()
	epoch := s.durableEpoch
	pre := s.preEpoch
	s.mu.Unlock()

	// A checkpoint that landed between an alert's admission and its repair
	// has forgotten the accused instances: their history is gone.
	for _, id := range u.bad {
		if _, ok := s.eng.Log().Get(id); !ok {
			return fmt.Errorf("shard: accused instance %s lies beneath the snapshot horizon (epoch %d): %w", id, epoch, recovery.ErrHorizon)
		}
	}

	// Boot-horizon refusal: a repair whose damage closure touches a run
	// with pre-snapshot commits would resync that run against a truncated
	// trace (wrong visit counters, invisible early writes). Refuse loudly
	// rather than install a silently wrong repair. Retired runs whose
	// entries all sit beneath the snapshot are exempt: they are frozen
	// history, never replayed or resynced — their surviving effect is the
	// checkpoint boundary versions, which post-snapshot repairs expose by
	// undoing the damage layered on top.
	for run := range pre {
		sp := specs[run]
		if sp == nil {
			continue
		}
		if s.runFrozen(run) {
			continue
		}
		for _, k := range recovery.Footprint(sp) {
			if dkeys[k] {
				return fmt.Errorf("shard: damage closure reaches run %s with history before the boot snapshot (epoch %d): %w",
					run, epoch, recovery.ErrHorizon)
			}
		}
	}

	gateHeld := s.cfg.Strict // handleBatch already quiesced every shard
	var paused []int
	if !gateHeld {
		paused = s.exec.beginRecovery(dkeys)
	}
	quiesceStart := time.Now()
	g, specs := s.pinView()
	ropts := s.cfg.Repair
	ropts.ScopeToDamage = true
	ropts.Epoch = g.Epoch()
	// Defense in depth: the store was compacted at the checkpoint epoch;
	// an undo that needs an older version fails with ErrHorizon instead of
	// misattributing the missing history to an earlier repair.
	ropts.CompactionHorizon = float64(epoch)
	if ropts.Parallel == 0 {
		ropts.Parallel = s.cfg.Shards
	}
	res, err := recovery.RepairGraph(g, s.eng.Store(), s.eng.Log(), specs, u.bad, ropts)
	if err == nil && (gateHeld || coveredBy(res.DamagedKeys, dkeys)) {
		err = s.adoptDurably(res, specs)
		if gateHeld {
			s.observeQuiesce(quiesceStart, s.cfg.Shards)
		} else {
			s.exec.endRecovery(paused)
			s.observeQuiesce(quiesceStart, len(paused))
		}
		return err
	}
	if !gateHeld {
		s.exec.endRecovery(paused)
		s.observeQuiesce(quiesceStart, len(paused))
	}
	if err != nil {
		return err
	}

	// Coverage violation: the damage escaped the quiesced key set. Redo
	// under full quiescence — still damage-scoped, so the installation
	// keeps its adopt record.
	s.exec.pauseAll()
	quiesceStart = time.Now()
	g, specs = s.pinView()
	ropts.Epoch = g.Epoch()
	res, err = recovery.RepairGraph(g, s.eng.Store(), s.eng.Log(), specs, u.bad, ropts)
	if err == nil {
		err = s.adoptDurably(res, specs)
	}
	s.observeQuiesce(quiesceStart, s.cfg.Shards)
	s.exec.resumeAll()
	return err
}

// runFrozen reports whether run is retired with no log entries above the
// snapshot horizon: frozen history whose only surviving effect is the
// checkpoint boundary versions. Such runs are never replayed or resynced,
// so repairs touching their key footprints are sound.
func (s *Service) runFrozen(run string) bool {
	x := s.exec
	x.mu.Lock()
	rs, ok := x.runs[run]
	x.mu.Unlock()
	if !ok || (rs.state != RunDone && rs.state != RunFailed) {
		return false
	}
	return len(s.eng.Log().Trace(run, false)) == 0
}

// adoptDurably installs a scoped repair and syncs its adopt record before
// the shards resume: a run it moved past its end must not read done first.
func (s *Service) adoptDurably(res *recovery.Result, specs map[string]*wf.Spec) error {
	if err := s.com.exec(func() error { return s.installDurable(res, specs) }); err != nil {
		return err
	}
	return s.wal.Sync()
}

// installDurable merges a scoped repair into the live store and writes the
// adopt record: the replacement chain of every damaged key (nil = deleted)
// plus the resynced run frontiers. Runs inside com.exec, so the record
// lands before any later commit's entry record.
func (s *Service) installDurable(res *recovery.Result, specs map[string]*wf.Spec) error {
	s.eng.Store().AdoptChains(res.Store, res.DamagedKeys)
	fronts, err := s.resyncActive(res, specs)
	if err != nil {
		return err
	}
	chains := make(map[data.Key][]data.Version, len(res.DamagedKeys))
	for _, k := range res.DamagedKeys {
		chains[k] = res.Store.Chain(k)
	}
	if err := s.wal.AppendAdopt(fronts, chains); err != nil {
		return err
	}
	s.recordRepairStats(res)
	return nil
}
