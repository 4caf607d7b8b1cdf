// The horizon: what every service forgets, with or without a WAL.
//
// A service forgets through one construction (forget): the log and
// dependence-graph prefix up to an epoch, the store history beneath it but
// the checkpoint version, and every retired run but its tombstone. The modes
// differ only in where the epoch sits:
//
//   - a durable service forgets what its snapshot covers: the head of the
//     quiesced service (Service.snapshot), because a restart from the
//     snapshot must equal the live service;
//   - an in-memory service has nothing to restart from, and an IDS reports
//     an attack only after a detection delay (§IV.D). It forgets
//     memoryTrail intervals beneath the head, tick by tick and without
//     pausing the shards, so an alert that late still finds the history it
//     names. Checkpoint forgets at the head, for a caller that knows every
//     attack has been repaired.
//
// Beneath the horizon, an alert naming an instance of a retired or forged
// run is refused with recovery.ErrHorizon, and so is a repair whose damage
// closure reaches a run with history beneath it (checkHorizon). See
// docs/DURABILITY.md.
package shard

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// ckptReq asks the recovery goroutine to move the horizon. auto marks the
// automatic trigger's requests (snapshotLoop): in memory they trail the
// head, and they rebuild the intern table only once it has grown (retain).
type ckptReq struct {
	auto bool
	resp chan error
}

// Checkpoint moves the horizon to the head now and forgets what lies
// beneath it (forget). A durable service first quiesces its shards briefly,
// captures a snapshot and writes it, and its WAL retires the segments the
// snapshot covers; an in-memory service forgets without a pause. Alerts
// naming an instance the checkpoint forgot are refused from then on.
func (s *Service) Checkpoint(ctx context.Context) error {
	resp := make(chan error, 1)
	select {
	case s.ckptCh <- ckptReq{resp: resp}:
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

// checkpoint runs on the recovery goroutine, never concurrent with a repair
// or an analysis, so no pinned graph view spans it. A durable service
// snapshots and forgets at the head; an in-memory one forgets at the head
// when asked to, and memoryTrail intervals beneath it automatically — unless
// a retired run straddling the target holds the horizon where it is, which
// leaves nothing to drop.
func (s *Service) checkpoint(auto bool) error {
	if s.wal != nil {
		return s.snapshot(auto)
	}
	target := s.eng.Log().Len()
	if auto {
		target -= s.trail()
	}
	h, err := s.horizonAt(target)
	if err != nil {
		return err
	}
	if auto && h.Epoch <= s.eng.Log().Base() {
		return nil
	}
	return s.forgetLive(h, auto)
}

// forgetLive forgets h on the running service inside the commit pipeline:
// no commit lands while the log drops its prefix and the runs are buried.
// CompactBefore keeps the latest version at or below the epoch as a
// checkpoint version, so repairs of damage above it still read correct
// pre-state values. The horizon was computed outside, the graph drops its
// prefix before (Rebase, while commits keep folding; only this goroutine
// pins graph views, so none reads it in between, and forget's Rebase finds
// it done), and the intern table is rebuilt after, so this is the whole
// stall of the pipeline (shard_forget_seconds), and the entries it drops
// are counted (shard_forgotten_entries_total).
func (s *Service) forgetLive(h durable.Horizon, auto bool) error {
	if err := s.graph.Rebase(h.Graph); err != nil {
		return err
	}
	err := s.com.exec(func() error {
		start, base := time.Now(), s.eng.Log().Base()
		s.eng.Store().CompactBefore(float64(h.Epoch))
		err := s.forget(h)
		s.o.forgetSeconds.Observe(time.Since(start).Seconds())
		s.o.forgotten.Add(int64(s.eng.Log().Base() - base))
		return err
	})
	if err == nil && (!auto || 4*s.tab.Len() >= 5*s.retained) {
		s.retain()
	}
	return err
}

// forget drops what a restart from the snapshot behind h would not bring
// back: every run in h.Tombs but its tombstone — the run record, the engine
// run, the compiled spec and the wfjson document — the log prefix at or
// below the epoch (hooks stay subscribed), and the dependence graph's prefix
// (it resumes from h's frontier and keeps the suffix it folded); retain then
// drops every intern-table entry only the buried specs referenced. The runs
// are buried first, so an alert that misses the truncated log finds the
// tombstone. The runs in h.PreEpoch become the pre-epoch set repairs are
// checked against. NewDurable runs it on the restored state, where the log and graph
// already start at the horizon; checkpoints run it live inside the commit
// pipeline. One construction, so a restart and a checkpoint leave the same
// state behind (TestRestartEqualsLive).
func (s *Service) forget(h durable.Horizon) error {
	s.exec.bury(h.Tombs)
	s.eng.Log().TruncateBefore(h.Epoch)
	if err := s.graph.Rebase(h.Graph); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specs, s.specStates = prune(s.specs, h.Tombs), prune(s.specStates, h.Tombs)
	s.preEpoch = h.PreEpoch
	s.epoch = h.Epoch
	return nil
}

// prune returns m without the keys in gone. A Go map keeps its peak size
// after deletes, so a map that loses most of its entries — a head checkpoint
// after a long history — is rebuilt to release their slots; one that keeps
// most — a trailing horizon — is pruned in place, at a cost that follows
// what it loses, and stays near the size it grows back to.
func prune[V, G any](m map[string]V, gone map[string]G) map[string]V {
	if 2*len(gone) < len(m) {
		for id := range gone {
			delete(m, id)
		}
		return m
	}
	kept := make(map[string]V)
	for id, v := range m {
		if _, ok := gone[id]; !ok {
			kept[id] = v
		}
	}
	return kept
}

// retain rebuilds the intern table from the live specs. It runs after
// forget, outside the commit pipeline: a spec compiled meanwhile is still
// correct, it may only share less (wf.Interner.Retain). An automatic
// checkpoint calls it only once the table has grown by a quarter since the
// last rebuild, which keeps the table within a quarter of what the live
// specs reference at a cost that follows the table's growth, not the
// checkpoint rate.
func (s *Service) retain() {
	s.mu.Lock()
	specs := maps.Clone(s.specs)
	s.mu.Unlock()
	s.tab.Retain(specs)
	s.retained = s.tab.Len()
}

// horizonAt computes, from the live state, the horizon to forget at: an
// epoch at most target. It runs on the recovery goroutine, so no repair
// rewrites a run meanwhile; commits keep landing, but above target.
//
// The epoch E is the largest LSN ≤ target at which no retired run has
// entries on both sides. Such a run could be neither buried (it has history
// above E) nor frozen (it has history beneath), and every repair whose key
// closure reached it would be refused. The horizon then buries every retired
// run whose entries all lie at or below E and every run nobody registered
// with an entry at or below E — a forge's, whose alerts get ErrHorizon
// rather than a lookup miss — and marks pre-epoch every live run with an
// entry at or below E, by LSN: a run that started above E is not. A run
// already pre-epoch stays so until it is buried. At the head of a quiesced
// service, with the earlier tombstones added, this is exactly the horizon of
// the snapshot captured there (TestHorizonAtHeadEqualsSnapshot).
//
// Its cost follows what the horizon may drop, not what the service keeps:
// only a run with an entry in (base, target] can straddle the target, be
// buried or turn pre-epoch, besides the runs already pre-epoch and the runs
// that retired without an entry (executor.bare), so only those are
// classified, each by its first and last LSN from the log's per-run index.
// Every other run started above target, where E cannot reach. The Tombs are
// only the runs it buries, not the earlier tombstones.
func (s *Service) horizonAt(target int) (durable.Horizon, error) {
	log := s.eng.Log()
	cand := make(map[string]bool)
	log.Range(func(e *wlog.Entry) bool {
		if e.LSN > target {
			return false
		}
		if e.Run != "" {
			cand[e.Run] = true
		}
		return true
	})
	s.mu.Lock()
	wasPre := s.preEpoch
	s.mu.Unlock()
	for id := range wasPre {
		cand[id] = true
	}

	// Run states before their spans: a run that retires after this reading
	// is classified live, which buries nothing it still writes.
	x := s.exec
	retired := make(map[string]durable.Tombstone)
	live := make(map[string]bool)
	x.mu.Lock()
	for _, id := range x.bare {
		cand[id] = true
	}
	for id := range cand {
		switch rs, ok := x.runs[id]; {
		case !ok:
		case rs.retired():
			retired[id] = rs.tombstone()
		default:
			live[id] = true
		}
	}
	x.mu.Unlock()

	type span struct{ first, last int }
	spans := make(map[string]span, len(cand))
	for id := range cand {
		if first, last, ok := log.RunSpan(id); ok {
			spans[id] = span{first, last}
		}
	}

	// Walk the retired runs by descending last entry, moving E beneath
	// every one that straddles it; once a run ends at or below E, every
	// later one does. A run already pre-epoch straddles the previous
	// horizon wherever E sits, so it does not move E.
	var cuts []span
	for id := range retired {
		if sp, ok := spans[id]; ok && !wasPre[id] {
			cuts = append(cuts, sp)
		}
	}
	slices.SortFunc(cuts, func(a, b span) int { return b.last - a.last })
	epoch := max(target, log.Base())
	for _, sp := range cuts {
		if sp.last <= epoch {
			break
		}
		if sp.first <= epoch {
			epoch = sp.first - 1
		}
	}

	tombs := make(map[string]durable.Tombstone)
	pre := make(map[string]bool)
	for id, tb := range retired {
		if sp, ok := spans[id]; !ok || sp.last <= epoch {
			tombs[id] = tb
		} else if wasPre[id] {
			pre[id] = true
		}
	}
	for id := range wasPre {
		if live[id] {
			pre[id] = true
		}
	}
	var forged []string
	for id, sp := range spans {
		if sp.first > epoch {
			continue
		}
		if _, done := retired[id]; live[id] {
			pre[id] = true
		} else if !done {
			forged = append(forged, id)
		}
	}
	x.mu.Lock()
	for _, id := range forged {
		if _, gone := x.tombs[id]; !gone {
			tombs[id] = durable.Tombstone{Status: durable.RunForged}
		}
	}
	x.mu.Unlock()
	g, err := s.graph.FrontierAt(epoch)
	if err != nil {
		return durable.Horizon{}, err
	}
	return durable.Horizon{Epoch: epoch, Graph: g, Tombs: tombs, PreEpoch: pre}, nil
}

// memoryTrail is how many checkpoint intervals an in-memory service's
// automatic horizon trails the head by. An IDS may name an instance long
// after it ran: the heal-storm benchmark's false accusations name victims'
// runs up to 2.8 intervals (11.6 k entries) old when they arrive, and an
// alert whose history is gone is refused.
const memoryTrail = 3

// trail is how far an automatic checkpoint's horizon trails the head: not at
// all with a WAL, memoryTrail intervals in memory.
func (s *Service) trail() int {
	if s.wal != nil {
		return 0
	}
	return memoryTrail * s.cfg.SnapshotEvery
}

// snapshotLoop drives automatic checkpoints. A durable service snapshots
// and forgets at the head once SnapshotEvery entries have committed past its
// horizon: a snapshot costs what it writes. An in-memory one trails the head
// by memoryTrail intervals and moves its horizon up to that target on every
// tick the target has passed it, at a cost that follows the entries it
// drops, so it keeps memoryTrail intervals of history plus what one tick
// commits.
func (s *Service) snapshotLoop() {
	defer s.wg.Done()
	trail, due := s.trail(), s.cfg.SnapshotEvery
	if s.wal == nil {
		due = 1
	}
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		s.mu.Lock()
		epoch := s.epoch
		s.mu.Unlock()
		if s.eng.Log().Len()-trail-epoch < due {
			continue
		}
		resp := make(chan error, 1)
		select {
		case s.ckptCh <- ckptReq{auto: true, resp: resp}:
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

// checkHorizon refuses, with recovery.ErrHorizon, a repair that would need
// history the horizon truncated: an accused instance beneath it, or a run
// with history beneath it inside the damage closure.
func (s *Service) checkHorizon(u *unit, dkeys map[data.Key]bool) error {
	s.mu.Lock()
	epoch := s.epoch
	pre := make(map[string]*wf.Spec, len(s.preEpoch))
	for run := range s.preEpoch {
		if sp := s.specs[run]; sp != nil {
			pre[run] = sp
		}
	}
	s.mu.Unlock()

	// A checkpoint that landed between an alert's admission and its repair
	// has forgotten the accused instances: their history is gone.
	for _, id := range u.bad {
		if _, ok := s.eng.Log().Get(id); !ok {
			return fmt.Errorf("shard: accused instance %s lies beneath the horizon (epoch %d): %w", id, epoch, recovery.ErrHorizon)
		}
	}

	// A repair whose damage closure touches a run with commits beneath the
	// horizon would resync that run against a truncated trace (wrong visit
	// counters, invisible early writes). Refuse loudly rather than install
	// a silently wrong repair. Retired runs whose entries all sit beneath
	// the horizon are exempt: they are frozen history, never replayed or
	// resynced — their surviving effect is the checkpoint boundary
	// versions, which repairs above the horizon expose by undoing the
	// damage layered on top.
	for run, sp := range pre {
		if s.runFrozen(run) {
			continue
		}
		for _, k := range sp.Footprint() {
			if dkeys[k] {
				return fmt.Errorf("shard: damage closure reaches run %s with history beneath the horizon (epoch %d): %w",
					run, epoch, recovery.ErrHorizon)
			}
		}
	}
	return nil
}

// runFrozen reports whether run is retired with no log entries above the
// horizon: frozen history whose only surviving effect is the checkpoint
// boundary versions. Such runs are never replayed or resynced, so repairs
// touching their key footprints are sound.
func (s *Service) runFrozen(run string) bool {
	x := s.exec
	x.mu.Lock()
	rs, ok := x.runs[run]
	retired := ok && rs.retired() // a worker retires a run under x.mu
	x.mu.Unlock()
	if !retired {
		return false
	}
	return len(s.eng.Log().Trace(run, false)) == 0
}
