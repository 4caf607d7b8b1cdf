// Boot-path recovery: what the latest snapshot and the log records beyond it
// hold, decoded. Nothing here builds state from them: the booting service
// restores its machine from the snapshot and applies the records through it
// (shard.NewDurable), as a cluster replica does with its journal, so one
// implementation turns records into state in every mode.
//
// The segment log is opened (OpenSegmentLog: framing and CRC only) and the
// records the snapshot covers (sequence number ≤ Snapshot.Seq) are skipped
// without being decoded. The rest are decoded in sequence order: spec, entry
// and adopt records are handed back for the replay, and alert and ack
// records settle which admitted alerts are still pending — bookkeeping of
// IDs, not state.
package durable

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"selfheal/internal/wlog"
)

// PendingAlert is an admitted alert whose repair had not been acked at
// the capture point; the shard layer re-queues it at startup.
type PendingAlert struct {
	ID  uint64
	Bad []wlog.InstanceID
}

// Record is one state record past the snapshot, decoded: a committed entry
// (Entry, carrying its LSN), a run registration (Run and Spec: the document
// and the initial values actually seeded for it) or a repair's effect
// (Adopt).
type Record struct {
	Entry *wlog.Entry
	Run   string
	Spec  *SpecState
	Adopt *Adopt
}

// State is what Open recovers from a WAL directory.
type State struct {
	// Snapshot is the latest complete snapshot, nil without one.
	Snapshot *Snapshot
	// Records are the spec, entry and adopt records past the snapshot, in
	// sequence order: what a restart replays on top of it.
	Records []Record
	// Alerts are the un-acked alerts in admission order.
	Alerts []PendingAlert
}

// restore reads w.dir and positions the WAL's counters after the last
// record. Called once from Open, before the writer goroutine starts.
func (w *WAL) restore() (*State, error) {
	start := time.Now()
	snap, err := LoadLatestSnapshot(w.dir, snapPrefix)
	if err != nil {
		return nil, err
	}
	var snapSeq uint64
	var epoch int
	if snap != nil {
		snapSeq, epoch = snap.Seq, snap.Epoch
	}
	var all [][]byte
	w.log, all, err = OpenSegmentLog(w.dir, segPrefix, snapSeq+1, w.opts)
	if err != nil {
		return nil, err
	}

	// Skip everything the snapshot already covers — without decoding it.
	baseSeq := w.log.First()
	if snap == nil && baseSeq != 1 {
		return nil, fmt.Errorf("durable: no snapshot but segments start at seq %d", baseSeq)
	}
	if snap != nil && baseSeq > snapSeq+1 {
		return nil, fmt.Errorf("durable: snapshot covers seq %d but segments start at %d (gap)", snapSeq, baseSeq)
	}
	seq := max(snapSeq, w.log.Next()-1)
	payloads := all[min(int(snapSeq+1-baseSeq), len(all)):]

	st := &State{Snapshot: snap}
	pending := make(map[uint64][]wlog.InstanceID)
	if snap != nil {
		for id, bad := range snap.Alerts {
			pending[id] = bad
		}
	}
	lsn := epoch
	for i, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			return nil, fmt.Errorf("durable: record %d: %w", snapSeq+1+uint64(i), err)
		}
		switch rec.kind {
		case recEntry:
			st.Records = append(st.Records, Record{Entry: rec.entry})
			lsn = rec.entry.LSN
		case recSpec:
			st.Records = append(st.Records, Record{Run: rec.run, Spec: &SpecState{JSON: rec.spec, Init: rec.init}})
		case recAdopt:
			st.Records = append(st.Records, Record{Adopt: &rec.adopt})
		case recAlert:
			pending[rec.alertID] = rec.bad
		case recAck:
			for _, id := range rec.ackIDs {
				delete(pending, id)
			}
		}
	}
	for id, bad := range pending {
		st.Alerts = append(st.Alerts, PendingAlert{ID: id, Bad: bad})
	}
	slices.SortFunc(st.Alerts, func(a, b PendingAlert) int { return cmp.Compare(a.ID, b.ID) })

	// Position the WAL after the last record: the entries up to lsn are on
	// disk, and the log's catch-up must not enqueue them again (AttachLog).
	w.seq, w.durableSeq = seq, seq
	w.snapSeq, w.snapEpoch = snapSeq, epoch
	w.restoredLSN, w.lastLSN, w.durableLSN = lsn, lsn, lsn
	w.replayed, w.replayDur = len(payloads), time.Since(start)
	return st, nil
}
