// Boot-path restore: rebuild the complete system state from the latest
// snapshot plus the log records beyond it.
//
// The replay is snapshot-bounded and parallel:
//
//  1. The segment log is opened (OpenSegmentLog: framing + CRC only — no
//     payload decoding) and records already covered by the snapshot
//     (sequence number ≤ Snapshot.Seq) are skipped without ever being
//     decoded.
//  2. The surviving payloads are decoded in parallel chunks.
//  3. One serial fold walks the decoded records in sequence order,
//     rebuilding the log tail, run frontiers, pending alerts and the
//     per-key operation streams. This pass is cheap: map bookkeeping
//     only, no chain manipulation.
//  4. The version chains are materialized in parallel, partitioned by
//     the same key-footprint components the repair scheduler uses
//     (recovery.KeyComponents) — each key's operation stream is
//     self-contained, so workers never contend — and bulk-installed via
//     data.NewStoreFromChains, skipping the store's per-write locking.
//
// The dependence graph is not replayed here: State.Graph carries the
// snapshot's frontier, and the shard layer seeds deps.NewIncrementalFrom
// with it, folding only the restored log tail.
package durable

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// PendingAlert is an admitted alert whose repair had not been acked at
// the capture point; the shard layer re-queues it at startup.
type PendingAlert struct {
	ID  uint64
	Bad []wlog.InstanceID
}

// State is the fully rebuilt system state Open returns.
type State struct {
	// Horizon is what the snapshot let the restore forget (zero epoch and
	// empty sets without a snapshot): Log is based at its Epoch, Graph
	// seeds deps.NewIncrementalFrom, Tombs are the retired runs and
	// PreEpoch the live runs whose early entries were truncated, so repairs
	// touching their footprints must be refused (ErrHorizon at the shard
	// layer).
	Horizon
	// Log holds the restored suffix, based at the snapshot epoch.
	Log *wlog.Log
	// Store is the restored version store (compacted at the epoch).
	Store *data.Store
	// Specs are the live runs' registrations (wfjson documents + applied
	// inits); Workflows are the same specs built.
	Specs     map[string]SpecState
	Workflows map[string]*wf.Spec
	// Runs are the live runs' resumable frontiers.
	Runs map[string]RunState
	// Alerts are the un-acked alerts in admission order.
	Alerts []PendingAlert
	// ReplayedRecords and ReplayDuration describe the restore cost.
	ReplayedRecords int
	ReplayDuration  time.Duration
}

// key-op kinds of the fold phase.
const (
	opInit byte = iota + 1
	opWrite
	opAdopt
)

// keyOp is one store mutation affecting a single key, in record order.
type keyOp struct {
	kind  byte
	ver   data.Version   // opInit (Pos 0) and opWrite
	chain []data.Version // opAdopt; nil = delete the key
}

// restore rebuilds state from w.dir and positions the WAL's counters.
// Called once from Open, before the writer goroutine starts.
func (w *WAL) restore() (*State, error) {
	start := time.Now()
	snap, err := loadLatestSnapshot(w.dir)
	if err != nil {
		return nil, err
	}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.Seq
	}
	var all [][]byte
	w.log, all, err = OpenSegmentLog(w.dir, segPrefix, snapSeq+1, w.opts)
	if err != nil {
		return nil, err
	}

	st := &State{
		Horizon:   Horizon{Tombs: make(map[string]Tombstone), PreEpoch: make(map[string]bool)},
		Specs:     make(map[string]SpecState),
		Workflows: make(map[string]*wf.Spec),
		Runs:      make(map[string]RunState),
	}
	chains := make(map[data.Key][]data.Version)
	liveAlerts := make(map[uint64][]wlog.InstanceID)
	if snap != nil {
		st.Horizon = snap.Horizon()
		chains = snap.Chains
		// Tombstoned runs can never run again: their specs are not built.
		for run, sp := range snap.Specs {
			if _, gone := st.Tombs[run]; gone {
				continue
			}
			spec, _, err := buildSpec(sp.JSON)
			if err != nil {
				return nil, fmt.Errorf("durable: snapshot spec %s: %w", run, err)
			}
			st.Specs[run] = sp
			st.Workflows[run] = spec
		}
		for run, rs := range snap.Runs {
			if _, gone := st.Tombs[run]; gone {
				continue
			}
			st.Runs[run] = RunState{
				Cur:    rs.Cur,
				Visits: copyVisits(rs.Visits),
				Status: rs.Status,
				Err:    rs.Err,
			}
		}
		for id, bad := range snap.Alerts {
			liveAlerts[id] = bad
		}
	}

	// Skip everything the snapshot already covers — without decoding it.
	baseSeq := w.log.First()
	if snap == nil && baseSeq != 1 {
		return nil, fmt.Errorf("durable: no snapshot but segments start at seq %d", baseSeq)
	}
	if snap != nil && baseSeq > snapSeq+1 {
		return nil, fmt.Errorf("durable: snapshot covers seq %d but segments start at %d (gap)", snapSeq, baseSeq)
	}
	seq := snapSeq
	if last := w.log.Next() - 1; last > seq {
		seq = last
	}
	payloads := all[min(int(snapSeq+1-baseSeq), len(all)):]

	records, err := decodePayloads(payloads, w.opts.ReplayParallel)
	if err != nil {
		return nil, err
	}

	// Serial fold in sequence order.
	ops := make(map[data.Key][]keyOp)
	var tail []*wlog.Entry
	nextLSN := st.Epoch + 1
	for i, rec := range records {
		switch rec.kind {
		case recEntry:
			e := rec.entry
			if e.LSN != nextLSN {
				return nil, fmt.Errorf("durable: record %d has entry LSN %d, want %d", i, e.LSN, nextLSN)
			}
			nextLSN++
			tail = append(tail, e)
			inst := string(e.ID())
			for _, w := range e.Writes {
				ops[w.Key] = append(ops[w.Key], keyOp{kind: opWrite, ver: data.Version{
					Pos: float64(e.LSN), Writer: inst, Value: w.Value,
				}})
			}
			if err := foldEntry(st, e); err != nil {
				return nil, err
			}
		case recSpec:
			_, dup := st.Specs[rec.run]
			if _, gone := st.Tombs[rec.run]; dup || gone {
				return nil, fmt.Errorf("durable: duplicate spec record for run %s", rec.run)
			}
			spec, _, err := buildSpec(rec.spec)
			if err != nil {
				return nil, fmt.Errorf("durable: spec record %s: %w", rec.run, err)
			}
			st.Specs[rec.run] = SpecState{JSON: rec.spec, Init: rec.init}
			st.Workflows[rec.run] = spec
			st.Runs[rec.run] = RunState{Cur: spec.Start, Visits: make(map[wf.TaskID]int), Status: RunActive}
			for k, v := range rec.init {
				ops[k] = append(ops[k], keyOp{kind: opInit, ver: data.Version{Pos: data.InitPos, Value: v}})
			}
		case recAlert:
			liveAlerts[rec.alertID] = rec.bad
		case recAck:
			for _, id := range rec.ackIDs {
				delete(liveAlerts, id)
			}
		case recAdopt:
			for k, chain := range rec.chains {
				ops[k] = append(ops[k], keyOp{kind: opAdopt, chain: chain})
			}
			for _, f := range rec.fronts {
				rs, ok := st.Runs[f.Run]
				if !ok {
					return nil, fmt.Errorf("durable: adopt record resyncs unknown run %s", f.Run)
				}
				rs.Cur = f.Cur
				if f.Done {
					rs.Status = RunDone
				} else {
					rs.Status = RunActive
				}
				st.Runs[f.Run] = rs
			}
		default:
			return nil, fmt.Errorf("durable: record %d has unexpected kind %d", i, rec.kind)
		}
	}

	// Rebuild the log from the snapshot epoch.
	log := wlog.NewAt(st.Epoch)
	if len(tail) > 0 {
		if _, err := log.AppendBatch(tail); err != nil {
			return nil, fmt.Errorf("durable: rebuilding log: %w", err)
		}
	}
	st.Log = log

	store, err := buildStore(log, st.Workflows, chains, ops, w.opts.ReplayParallel)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		store.CompactBefore(float64(st.Epoch))
	}
	st.Store = store

	st.Alerts = make([]PendingAlert, 0, len(liveAlerts))
	for id, bad := range liveAlerts {
		st.Alerts = append(st.Alerts, PendingAlert{ID: id, Bad: bad})
	}
	sort.Slice(st.Alerts, func(i, j int) bool { return st.Alerts[i].ID < st.Alerts[j].ID })

	// Position the WAL after the last restored record.
	w.seq = seq
	w.durableSeq = seq
	w.snapSeq = snapSeq
	w.snapEpoch = st.Epoch
	w.restoredLSN = log.Len()
	w.lastLSN = log.Len()
	w.durableLSN = log.Len()

	st.ReplayedRecords = len(records)
	st.ReplayDuration = time.Since(start)
	w.replayed = len(records)
	w.replayDur = st.ReplayDuration
	return st, nil
}

// foldEntry advances a run's frontier for one committed entry, mirroring
// the engine's post-commit state transition. Forged entries only bump
// visit counters (a forged instance occupies its ID).
func foldEntry(st *State, e *wlog.Entry) error {
	if e.Run == "" {
		return nil
	}
	rs, ok := st.Runs[e.Run]
	if !ok {
		if e.Forged {
			return nil
		}
		return fmt.Errorf("durable: entry %s belongs to unregistered run %s", e.ID(), e.Run)
	}
	if e.Visit > rs.Visits[e.Task] {
		rs.Visits[e.Task] = e.Visit
	}
	if !e.Forged {
		spec := st.Workflows[e.Run]
		task, ok := spec.Tasks[e.Task]
		if !ok {
			return fmt.Errorf("durable: entry %s names task outside its spec", e.ID())
		}
		switch {
		case len(task.Next) == 0:
			rs.Status = RunDone
		case len(task.Next) == 1:
			rs.Cur = task.Next[0]
		default:
			if e.Chosen == "" {
				return fmt.Errorf("durable: entry %s at choice node has no recorded choice", e.ID())
			}
			rs.Cur = e.Chosen
		}
	}
	st.Runs[e.Run] = rs
	return nil
}

// decodePayloads decodes framed payloads into records, in parallel chunks
// when workers > 1, preserving order.
func decodePayloads(payloads [][]byte, workers int) ([]*record, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	records := make([]*record, len(payloads))
	if workers == 1 || len(payloads) < 64 {
		for i, p := range payloads {
			rec, err := decodeRecord(p)
			if err != nil {
				return nil, fmt.Errorf("durable: record %d: %w", i, err)
			}
			records[i] = rec
		}
		return records, nil
	}
	chunk := (len(payloads) + workers - 1) / workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		lo := wi * chunk
		if lo >= len(payloads) {
			break
		}
		hi := lo + chunk
		if hi > len(payloads) {
			hi = len(payloads)
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				rec, err := decodeRecord(payloads[i])
				if err != nil {
					errs[wi] = fmt.Errorf("durable: record %d: %w", i, err)
					return
				}
				records[i] = rec
			}
		}(wi, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return records, nil
}

// buildStore materializes every key's version chain (snapshot base plus
// the key's operation stream) and bulk-installs the result. Keys are
// partitioned across workers by repair component so independent
// footprints replay concurrently.
func buildStore(log *wlog.Log, specs map[string]*wf.Spec, base map[data.Key][]data.Version, ops map[data.Key][]keyOp, workers int) (*data.Store, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	keySet := make(map[data.Key]bool, len(base)+len(ops))
	for k := range base {
		keySet[k] = true
	}
	for k := range ops {
		keySet[k] = true
	}
	keys := make([]data.Key, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	out := make(map[data.Key][]data.Version, len(keys))
	if workers == 1 || len(keys) < 2 {
		for _, k := range keys {
			chain, err := materialize(base[k], ops[k])
			if err != nil {
				return nil, fmt.Errorf("durable: key %q: %w", k, err)
			}
			if len(chain) > 0 {
				out[k] = chain
			}
		}
		return data.NewStoreFromChains(out)
	}

	// Group keys by repair component (keys outside every footprint are
	// singletons) and deal the groups round-robin across workers.
	keyComp, nComp := recovery.KeyComponents(log, specs)
	groups := make([][]data.Key, nComp)
	for _, k := range keys {
		if ci, ok := keyComp[k]; ok {
			groups[ci] = append(groups[ci], k)
		} else {
			groups = append(groups, []data.Key{k})
		}
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers < 1 {
		workers = 1
	}
	type frag struct {
		chains map[data.Key][]data.Version
		err    error
	}
	frags := make([]frag, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			f := frag{chains: make(map[data.Key][]data.Version)}
			for gi := wi; gi < len(groups); gi += workers {
				for _, k := range groups[gi] {
					chain, err := materialize(base[k], ops[k])
					if err != nil {
						f.err = fmt.Errorf("durable: key %q: %w", k, err)
						frags[wi] = f
						return
					}
					if len(chain) > 0 {
						f.chains[k] = chain
					}
				}
			}
			frags[wi] = f
		}(wi)
	}
	wg.Wait()
	for _, f := range frags {
		if f.err != nil {
			return nil, f.err
		}
		for k, chain := range f.chains {
			out[k] = chain
		}
	}
	return data.NewStoreFromChains(out)
}

// materialize applies one key's operation stream over its snapshot base
// chain.
func materialize(base []data.Version, ops []keyOp) ([]data.Version, error) {
	chain := append([]data.Version(nil), base...)
	for _, op := range ops {
		switch op.kind {
		case opInit:
			// The init was applied live because the chain was empty at
			// submission; a commit racing the submission may have been
			// enqueued first, so prepend rather than fail when the
			// chain has gained later versions in the meantime.
			switch {
			case len(chain) == 0:
				chain = append(chain, op.ver)
			case chain[0].Pos > data.InitPos:
				chain = append([]data.Version{op.ver}, chain...)
			}
		case opWrite:
			n := len(chain)
			if n == 0 || chain[n-1].Pos < op.ver.Pos {
				chain = append(chain, op.ver)
				break
			}
			i := sort.Search(n, func(i int) bool { return chain[i].Pos >= op.ver.Pos })
			if i < n && chain[i].Pos == op.ver.Pos {
				return nil, fmt.Errorf("duplicate version position %g (writers %q, %q)",
					op.ver.Pos, chain[i].Writer, op.ver.Writer)
			}
			chain = append(chain, data.Version{})
			copy(chain[i+1:], chain[i:])
			chain[i] = op.ver
		case opAdopt:
			chain = append(chain[:0:0], op.chain...)
		}
	}
	return chain, nil
}

func copyVisits(m map[wf.TaskID]int) map[wf.TaskID]int {
	out := make(map[wf.TaskID]int, len(m))
	for t, n := range m {
		out[t] = n
	}
	return out
}

// buildSpec parses and builds a wfjson spec document.
func buildSpec(doc []byte) (*wf.Spec, map[data.Key]data.Value, error) {
	return wfjson.Decode(bytes.NewReader(doc))
}
