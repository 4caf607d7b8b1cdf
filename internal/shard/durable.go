// Durable service mode: the sharded self-healing service over a
// write-ahead log (internal/durable).
//
// NewDurable boots the way a cluster replica does: machine.Restore rebuilds
// the machine from the WAL directory's latest snapshot — store, live runs'
// specs and frontiers, retired runs' tombstones, the horizon — and every
// spec, entry and adopt record past it is applied through the machine as the
// live service applied it (Register and Init, Apply, Install), the one code
// that turns records into state in every mode. The dependence graph resumes
// from the snapshot's frontier and the un-acked alerts re-enter triage. Only
// then is the WAL attached, so every later state transition is logged
// before a client can observe it. WAL sequence order makes whatever survives
// a crash a consistent prefix, so nothing in the commit pipeline waits on
// the disk; each caller waits for what it hands out:
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
// Config.SnapshotEvery) pauses every key briefly, captures a Snapshot
// through the commit pipeline, writes it, and then forgets what it covers —
// the log and graph prefix, the store history beneath the epoch, every
// retired run but its tombstone — exactly as a restart from it would
// (machine.Machine.Forget, which machine.Restore ends in too); the WAL
// retires every segment the snapshot covers. See docs/DURABILITY.md.
package shard

import (
	"bytes"
	"encoding/json"
	"errors"
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

// ErrStreamOrder marks a WAL no live service could have written: a spec
// record seeding a key that an earlier record already wrote. A live service
// seeds a run's initial values exclusive with commits and logs only
// the keys it seeded, which had no version yet; the machine's first-writer-
// wins Init would skip such a key and silently diverge from the store that
// ran, so the boot refuses the record instead.
var ErrStreamOrder = errors.New("shard: WAL record out of stream order")

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
	start := time.Now()
	m, specs, err := replay(wf.NewInterner(), st)
	if err != nil {
		_ = wal.Close()
		return nil, err
	}
	wal.AddReplayTime(time.Since(start))
	// The graph resumes from the snapshot frontier and folds only the
	// replayed log suffix (the OnAppend catch-up), not the full history.
	var frontier deps.Frontier
	if st.Snapshot != nil {
		frontier = st.Snapshot.Graph
	}
	s := newService(cfg, m, deps.NewIncrementalFrom(m.Log(), frontier))
	s.wal, s.specStates, s.restoredAlerts = wal, specs, st.Alerts
	s.liveAlerts = make(map[uint64][]wlog.InstanceID, len(st.Alerts))
	// Attach the WAL after the replay, which it must not log again, and
	// after the graph: OnAppend hooks run in subscription order, and the
	// graph must observe an entry before its record can be flushed (the
	// graph is snapshot state; the WAL record is its replay).
	wal.AttachLog(m.Log())
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

// replay rebuilds the machine a WAL directory holds: the snapshot's
// (machine.Restore), then every record past it applied the way the live
// service applied it, with the machine calls a cluster replica makes for its
// journal's records. It returns the machine and the registrations of its
// unburied runs.
func replay(tab *wf.Interner, st *durable.State) (*machine.Machine, map[string]durable.SpecState, error) {
	m, err := machine.Restore(tab, st.Snapshot)
	if err != nil {
		return nil, nil, err
	}
	specs := make(map[string]durable.SpecState)
	if st.Snapshot != nil {
		for run, sp := range st.Snapshot.Specs {
			if _, gone := m.Buried(run); !gone {
				specs[run] = sp
			}
		}
	}
	for i, rec := range st.Records {
		if err := applyRecord(m, rec); err != nil {
			return nil, nil, fmt.Errorf("shard: WAL record %d past the snapshot: %w", i+1, err)
		}
		if rec.Spec != nil {
			specs[rec.Run] = *rec.Spec
		}
	}
	return m, specs, nil
}

// applyRecord applies one replayed record: an entry commits and advances
// its run; an adopt record installs a repair's effect and retires the runs
// it completed; a spec record registers its run and seeds its initial
// values, every one of which must still be missing (ErrStreamOrder).
func applyRecord(m *machine.Machine, rec durable.Record) error {
	switch {
	case rec.Entry != nil:
		_, err := m.Apply(rec.Entry)
		return err
	case rec.Adopt != nil:
		if err := m.Install(machine.Effect{Adopt: *rec.Adopt}); err != nil {
			return err
		}
		for _, f := range rec.Adopt.Fronts {
			if f.Done {
				m.Retire(f.Run, machine.Done, "")
			}
		}
		return nil
	}
	spec, _, err := wfjson.DecodeIn(m.Tab(), bytes.NewReader(rec.Spec.JSON))
	if err != nil {
		return fmt.Errorf("spec of run %s: %w", rec.Run, err)
	}
	for k := range rec.Spec.Init {
		if _, ok := m.Store().Get(k); ok {
			return fmt.Errorf("run %s seeds %q, which an earlier record wrote: %w", rec.Run, k, ErrStreamOrder)
		}
	}
	if _, err := m.Register(rec.Run, spec); err != nil {
		return err
	}
	m.Init(rec.Spec.Init)
	return nil
}

// ReplayStats reports the cost of the boot-time restore: how many WAL
// records were replayed past the snapshot and how long decoding and
// applying them took.
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

	s.exec.gate.PauseAll()
	var snap *durable.Snapshot
	_ = s.com.exec(func() error { snap = s.gatherSnapshot(); return nil }) // cannot fail
	if s.captureHook != nil {
		s.captureHook(snap)
	}
	s.exec.gate.ReleaseAll()
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

// gatherSnapshot captures the full system state. Runs inside the commit
// pipeline with every key paused and submitMu held: no commit, spec
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
