// The horizon: what every service forgets, with or without a WAL.
//
// A service forgets through its machine (machine.Machine.Forget), and drops
// the dependence graph's prefix beside it: the log and graph prefix up to an
// epoch, the store history beneath it but the checkpoint version, and every
// retired run but its tombstone. The modes differ only in where the epoch
// sits:
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
// Beneath the horizon, an alert naming an instance there is refused with
// recovery.ErrHorizon, and so is a repair whose damage closure reaches a run
// with history beneath it (machine.Machine.BelowHorizon, CheckHorizon). See
// docs/DURABILITY.md.
package shard

import (
	"context"
	"fmt"
	"time"

	"selfheal/internal/durable"
	"selfheal/internal/machine"
)

// ckptReq asks the recovery goroutine to move the horizon. auto marks the
// automatic trigger's requests (snapshotLoop): in memory they trail the
// head, and they rebuild the intern table only once it has grown
// (machine.Machine.Retain).
type ckptReq struct {
	auto bool
	resp chan error
}

// Checkpoint moves the horizon to the head now and forgets what lies
// beneath it (forget). A durable service first pauses every key briefly,
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
// leaves nothing to drop. Commits keep landing meanwhile, but above the
// target.
func (s *Service) checkpoint(auto bool) error {
	if s.wal != nil {
		return s.snapshot(auto)
	}
	target := s.eng.Log().Len()
	if auto {
		target -= s.trail()
	}
	h := s.m.HorizonAt(target)
	if auto && h.Epoch <= s.eng.Log().Base() {
		return nil
	}
	var err error
	if h.Graph, err = s.graph.FrontierAt(h.Epoch); err != nil {
		return err
	}
	return s.forgetLive(h, auto)
}

// forgetLive forgets h on the running service inside the commit pipeline:
// no commit lands while the machine buries the runs and drops the log
// prefix, and the wfjson documents of the buried runs go with them. The
// horizon was computed outside, the graph drops its prefix before (Rebase,
// while commits keep folding; only this goroutine pins graph views, so none
// reads it in between), and the intern table is rebuilt after, so this is
// the whole stall of the pipeline (shard_forget_seconds), and the entries it
// drops are counted (shard_forgotten_entries_total).
func (s *Service) forgetLive(h durable.Horizon, auto bool) error {
	if err := s.graph.Rebase(h.Graph); err != nil {
		return err
	}
	err := s.com.exec(func() error {
		start, base := time.Now(), s.eng.Log().Base()
		s.m.Forget(h)
		s.mu.Lock()
		s.specStates = machine.Prune(s.specStates, h.Tombs)
		s.mu.Unlock()
		s.o.forgetSeconds.Observe(time.Since(start).Seconds())
		s.o.forgotten.Add(int64(s.eng.Log().Base() - base))
		return nil
	})
	if err == nil {
		s.m.Retain(auto)
	}
	return err
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
		if s.eng.Log().Len()-trail-s.m.Epoch() < due {
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
				s.tally.Note(fmt.Errorf("shard: checkpoint failed: %w", err))
			}
		case <-s.stopCh:
			return
		}
	}
}
