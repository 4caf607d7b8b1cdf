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
// A durable checkpoint (Service.Checkpoint, or automatic via
// Config.SnapshotEvery) quiesces the shards briefly, captures a Snapshot
// through the commit pipeline, writes it, and then forgets what it covers —
// the log and graph prefix, the store history beneath the epoch, every
// retired run but its tombstone — exactly as a restart from it would
// (machine.Machine.Forget, which machine.Restore ends in too); the WAL
// retires every segment the snapshot covers. See docs/DURABILITY.md.
package shard

import (
	"encoding/json"
	"fmt"
	"time"

	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/machine"
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
	tab := wf.NewInterner()
	wal, st, err := durable.OpenIn(dir, dopts, tab)
	if err != nil {
		return nil, err
	}
	// The restore built the state at the horizon; the machine forgets it
	// there, registering the tombstones and the pre-epoch runs, as a live
	// checkpoint does.
	m, err := machine.Restore(tab, st)
	if err != nil {
		_ = wal.Close()
		return nil, err
	}
	// The graph resumes from the snapshot frontier and folds only the
	// restored log suffix (the OnAppend catch-up), not the full history.
	s := newService(cfg, m, deps.NewIncrementalFrom(st.Log, st.Graph))
	s.wal, s.specStates, s.restoredAlerts = wal, st.Specs, st.Alerts
	s.liveAlerts = make(map[uint64][]wlog.InstanceID, len(st.Alerts))
	// Attach the WAL after the graph: OnAppend hooks run in subscription
	// order, and the graph must observe an entry before its record can be
	// flushed (the graph is snapshot state; the WAL record is its replay).
	wal.AttachLog(st.Log)
	s.com.fault = func() error { _, err := wal.Durable(); return err }
	s.exec.durable, s.exec.undurable = wal.Durable, make(map[string]int)
	for _, pa := range st.Alerts {
		s.liveAlerts[pa.ID] = pa.Bad
	}

	// Every run a previous life registered counts as submitted; the live
	// ones are placed again, and sit in the (buffered) inboxes until Start
	// spins the workers up.
	s.metrics.RunsSubmitted = len(m.IDs())
	for _, id := range m.Live() {
		_ = s.exec.submit(&m.Run(id).Run, true) // a restored run cannot be refused
	}
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

// SubmitRunSpec registers a workflow run from its wfjson document (POST
// /api/v1/runs), seeding the document's initial values. On a durable
// service the spec record (including the initial store values actually
// seeded) is written before the run is placed, so it precedes every entry of
// the run in the WAL, and the call returns once the record is on disk.
// Errors wrap engine.ErrBadSpec, engine.ErrRunExists or ErrQueueFull.
func (s *Service) SubmitRunSpec(id string, sj *wfjson.SpecJSON) error {
	spec, init, err := wfjson.BuildIn(s.m.Tab(), sj)
	if err != nil {
		return fmt.Errorf("shard: run %s spec: %w: %w", id, engine.ErrBadSpec, err)
	}
	var doc []byte
	if s.wal != nil {
		if doc, err = json.Marshal(sj); err != nil {
			return fmt.Errorf("shard: run %s spec: %w: %w", id, engine.ErrBadSpec, err)
		}
	}
	return s.register(id, spec, init, doc)
}

// snapshot is the durable checkpoint, on the recovery goroutine: quiesce,
// capture, write, then forget what the snapshot covers, at its epoch — the
// head at the capture — so that a restart from it equals the live service.
func (s *Service) snapshot(auto bool) error {
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
	if s.captureHook != nil {
		s.captureHook(snap)
	}
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
	// it covers.
	return s.forgetLive(snap.Horizon(), auto)
}

// gatherSnapshot captures the full system state. Runs on the committer
// goroutine with every shard quiesced and submitMu held: no commit, spec
// record or frontier mutation is in flight. Alert records are the one
// concurrent writer, so Seq and the live-alert set are captured together
// under alertMu — an alert admitted after the capture has a record beyond
// Seq and replays from the log. Every run retired by now is captured as a
// tombstone, and so is every run nobody registered that has a forged entry
// in the log: all their entries lie at or below the epoch.
func (s *Service) gatherSnapshot() *durable.Snapshot {
	snap := s.m.Capture()
	snap.Graph = s.graph.Frontier()
	snap.Specs = make(map[string]durable.SpecState, len(snap.Runs))
	s.mu.Lock()
	for id, ss := range s.specStates {
		if _, gone := snap.Tombs[id]; !gone {
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

// feedRestoredAlerts re-queues the alerts a previous process admitted but
// never acked. Alerts naming instances before the horizon cannot
// be analyzed against the truncated log: they are acked and counted lost.
func (s *Service) feedRestoredAlerts() {
	defer s.wg.Done()
	for _, pa := range s.restoredAlerts {
		if s.m.CheckAlerts([]triage.Alert{{Bad: pa.Bad}}) != nil {
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
