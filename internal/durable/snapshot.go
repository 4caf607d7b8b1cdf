// Snapshot files: a point-in-time capture of the whole system state —
// store chains, the specs and frontiers of live runs, tombstones of retired
// ones, pending alerts, and the dependence-graph frontier — anchored to a
// WAL position (Seq) and an entry-LSN horizon (Epoch). Restore loads the
// latest snapshot and replays only the log records beyond Seq; segments
// fully covered by the snapshot are retired.
//
// A snapshot is written to a temporary file, fsynced, and renamed into
// place (plus a directory fsync), and its last record is a footer
// carrying the record count — a snapshot without a valid footer is
// incomplete and rejected, so a crash mid-snapshot-write can never
// corrupt recovery (the previous snapshot still governs).
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Run status strings carried by snapshots; the shard layer maps its
// internal run states onto these. RunForged only ever appears in a
// tombstone: it names an attacker's run nobody registered, whose forged
// entries lie beneath the horizon, so an alert naming one is refused as
// below the horizon rather than as unknown.
const (
	RunActive = "active"
	RunDone   = "done"
	RunFailed = "failed"
	RunForged = "forged"
)

// DefaultSnapshotEvery is the checkpoint interval, in committed entries,
// that a zero SnapshotEvery selects in shard.Config and cluster.Config.
const DefaultSnapshotEvery = 4096

// SpecState is a registered run's durable registration: the wfjson
// document it was submitted with and the initial store values actually
// seeded for it.
type SpecState struct {
	JSON []byte
	Init map[data.Key]data.Value
}

// Tombstone is all that is kept of a run retired beneath a snapshot horizon:
// its final status and error, enough to answer a status query and to refuse
// a second registration of its ID. Its spec and its history are gone.
type Tombstone struct {
	Status string
	Err    string
}

// RunState is a run's resumable position.
type RunState struct {
	Cur    wf.TaskID
	Visits map[wf.TaskID]int
	Status string
	Err    string
}

// Snapshot is the full capture a checkpoint persists.
type Snapshot struct {
	// Seq is the WAL sequence number of the last record whose effects
	// are included; restore skips records at or below it.
	Seq uint64
	// Epoch is the highest entry LSN included; the restored log starts
	// at base = Epoch, and the store is compacted at this horizon.
	Epoch int
	// Chains is the store history at the capture point. The encoder
	// persists each chain compacted at Epoch (data.CompactChain) — the
	// state both the post-checkpoint live store and a restore converge to.
	Chains map[data.Key][]data.Version
	// Graph is the dependence graph's resumable frontier at Epoch.
	Graph deps.Frontier
	// Specs and Runs are the live runs and their frontiers; Tombs the runs
	// retired at the capture point.
	Specs map[string]SpecState
	Runs  map[string]RunState
	Tombs map[string]Tombstone
	// Alerts are the admitted-but-unacked alerts (ID → bad instances);
	// their WAL records fall at or below Seq, so they must ride the
	// snapshot or a restart would drop them.
	Alerts map[uint64][]wlog.InstanceID
}

// Horizon is what a snapshot lets the system forget: the log and
// dependence-graph prefix up to Epoch (the graph resumes from Graph), every
// retired run but its tombstone, and — for the live runs in PreEpoch — the
// part of their history beneath Epoch. A restart and a live checkpoint both
// derive it from the snapshot, so they forget the same things.
type Horizon struct {
	Epoch    int
	Graph    deps.Frontier
	Tombs    map[string]Tombstone
	PreEpoch map[string]bool
}

// Horizon derives the snapshot's horizon. A run recorded as retired is a
// tombstone, whether as a tombstone record or — as format-1 snapshots wrote
// it — as a done or failed run record; a live run that has executed a task
// has history beneath the epoch.
func (s *Snapshot) Horizon() Horizon {
	h := Horizon{
		Epoch:    s.Epoch,
		Graph:    s.Graph,
		Tombs:    make(map[string]Tombstone, len(s.Tombs)),
		PreEpoch: make(map[string]bool),
	}
	for run, tb := range s.Tombs {
		h.Tombs[run] = tb
	}
	for run, rs := range s.Runs {
		switch {
		case rs.Status == RunDone || rs.Status == RunFailed:
			h.Tombs[run] = Tombstone{Status: rs.Status, Err: rs.Err}
		case len(rs.Visits) > 0:
			h.PreEpoch[run] = true
		}
	}
	return h
}

// EncodeSnapshot serializes a snapshot as a sequence of framed records
// ending in a footer — a snapshot file's bytes. Deterministic: all maps are
// emitted in sorted order, so equal snapshots encode to equal bytes.
func EncodeSnapshot(s *Snapshot) []byte {
	var out []byte
	records := 0
	emit := func(payload []byte) {
		out = AppendFrame(out, payload)
		records++
	}

	var hdr []byte
	hdr = append(hdr, recSnapHeader)
	hdr = AppendUvarint(hdr, snapFormat)
	hdr = AppendUvarint(hdr, s.Seq)
	hdr = AppendUvarint(hdr, uint64(s.Epoch))
	emit(hdr)

	// Chains are persisted pre-compacted at the snapshot epoch: the live
	// store is compacted there right after the checkpoint, and a restore
	// would re-apply the same horizon — so pre-horizon history is dead
	// weight that would only slow the boot path down. Keys whose chains
	// empty out are omitted (CompactBefore deletes them).
	for _, k := range sortedKeys(s.Chains) {
		chain := data.CompactChain(s.Chains[k], float64(s.Epoch))
		if len(chain) == 0 {
			continue
		}
		var p []byte
		p = append(p, recSnapChain)
		p = AppendString(p, string(k))
		p = appendChain(p, chain)
		emit(p)
	}

	specRuns := make([]string, 0, len(s.Specs))
	for run := range s.Specs {
		specRuns = append(specRuns, run)
	}
	sort.Strings(specRuns)
	for _, run := range specRuns {
		sp := s.Specs[run]
		var p []byte
		p = append(p, recSnapSpec)
		p = AppendString(p, run)
		p = AppendBytes(p, sp.JSON)
		p = appendInit(p, sp.Init)
		emit(p)
	}

	runIDs := make([]string, 0, len(s.Runs))
	for run := range s.Runs {
		runIDs = append(runIDs, run)
	}
	sort.Strings(runIDs)
	for _, run := range runIDs {
		rs := s.Runs[run]
		var p []byte
		p = append(p, recSnapRun)
		p = AppendString(p, run)
		p = AppendString(p, rs.Status)
		p = AppendString(p, rs.Err)
		p = AppendString(p, string(rs.Cur))
		tasks := make([]string, 0, len(rs.Visits))
		for t := range rs.Visits {
			tasks = append(tasks, string(t))
		}
		sort.Strings(tasks)
		p = AppendUvarint(p, uint64(len(tasks)))
		for _, t := range tasks {
			p = AppendString(p, t)
			p = AppendUvarint(p, uint64(rs.Visits[wf.TaskID(t)]))
		}
		emit(p)
	}

	tombs := make([]string, 0, len(s.Tombs))
	for run := range s.Tombs {
		tombs = append(tombs, run)
	}
	sort.Strings(tombs)
	for _, run := range tombs {
		tb := s.Tombs[run]
		var p []byte
		p = append(p, recSnapTomb)
		p = AppendString(p, run)
		p = AppendString(p, tb.Status)
		p = AppendString(p, tb.Err)
		emit(p)
	}

	alertIDs := make([]uint64, 0, len(s.Alerts))
	for id := range s.Alerts {
		alertIDs = append(alertIDs, id)
	}
	sort.Slice(alertIDs, func(i, j int) bool { return alertIDs[i] < alertIDs[j] })
	for _, id := range alertIDs {
		bad := s.Alerts[id]
		var p []byte
		p = append(p, recSnapAlert)
		p = AppendUvarint(p, id)
		p = AppendUvarint(p, uint64(len(bad)))
		for _, b := range bad {
			p = AppendString(p, string(b))
		}
		emit(p)
	}

	var g []byte
	g = append(g, recSnapGraph)
	g = AppendUvarint(g, uint64(s.Graph.Epoch))
	g = AppendUvarint(g, uint64(len(s.Graph.LastWriter)))
	for _, k := range sortedKeys(s.Graph.LastWriter) {
		g = AppendString(g, string(k))
		g = AppendString(g, string(s.Graph.LastWriter[k]))
	}
	g = AppendUvarint(g, uint64(len(s.Graph.Pending)))
	for _, k := range sortedKeys(s.Graph.Pending) {
		g = AppendString(g, string(k))
		readers := s.Graph.Pending[k]
		g = AppendUvarint(g, uint64(len(readers)))
		for _, r := range readers {
			g = AppendString(g, string(r))
		}
	}
	emit(g)

	var foot []byte
	foot = append(foot, recSnapFooter)
	foot = AppendUvarint(foot, uint64(records))
	out = AppendFrame(out, foot)
	return out
}

// DecodeSnapshot parses a snapshot file body of either format, rejecting
// incomplete files (missing or mismatched footer). Records are returned as
// written: a format-1 file has its retired runs among Specs and Runs.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	payloads, validLen := SplitFrames(b)
	if validLen != len(b) {
		return nil, fmt.Errorf("durable: snapshot corrupt at byte %d", validLen)
	}
	if len(payloads) < 2 {
		return nil, fmt.Errorf("durable: snapshot has %d records, need header and footer", len(payloads))
	}
	s := &Snapshot{
		Chains: make(map[data.Key][]data.Version),
		Specs:  make(map[string]SpecState),
		Runs:   make(map[string]RunState),
		Tombs:  make(map[string]Tombstone),
		Alerts: make(map[uint64][]wlog.InstanceID),
	}
	sawFooter := false
	for i, p := range payloads {
		r := NewReader(p)
		kind := r.Byte()
		if sawFooter {
			return nil, fmt.Errorf("durable: snapshot record after footer")
		}
		switch kind {
		case recSnapHeader:
			if i != 0 {
				return nil, fmt.Errorf("durable: snapshot header at record %d", i)
			}
			if f := r.Uvarint(); f < 1 || f > snapFormat {
				return nil, fmt.Errorf("durable: snapshot format %d unsupported", f)
			}
			s.Seq = r.Uvarint()
			s.Epoch = int(r.Uvarint())
		case recSnapChain:
			k := data.Key(r.Str())
			s.Chains[k] = r.chain()
		case recSnapSpec:
			run := r.Str()
			s.Specs[run] = SpecState{JSON: r.Bytes(), Init: r.initMap()}
		case recSnapRun:
			run := r.Str()
			rs := RunState{Status: r.Str(), Err: r.Str(), Cur: wf.TaskID(r.Str())}
			n := r.Uvarint()
			rs.Visits = make(map[wf.TaskID]int, n)
			for j := uint64(0); j < n && r.err == nil; j++ {
				t := wf.TaskID(r.Str())
				rs.Visits[t] = int(r.Uvarint())
			}
			s.Runs[run] = rs
		case recSnapTomb:
			run := r.Str()
			s.Tombs[run] = Tombstone{Status: r.Str(), Err: r.Str()}
		case recSnapAlert:
			id := r.Uvarint()
			n := r.Uvarint()
			bad := make([]wlog.InstanceID, 0, n)
			for j := uint64(0); j < n && r.err == nil; j++ {
				bad = append(bad, wlog.InstanceID(r.Str()))
			}
			s.Alerts[id] = bad
		case recSnapGraph:
			s.Graph.Epoch = int(r.Uvarint())
			nl := r.Uvarint()
			s.Graph.LastWriter = make(map[data.Key]wlog.InstanceID, nl)
			for j := uint64(0); j < nl && r.err == nil; j++ {
				k := data.Key(r.Str())
				s.Graph.LastWriter[k] = wlog.InstanceID(r.Str())
			}
			np := r.Uvarint()
			s.Graph.Pending = make(map[data.Key][]wlog.InstanceID, np)
			for j := uint64(0); j < np && r.err == nil; j++ {
				k := data.Key(r.Str())
				nr := r.Uvarint()
				readers := make([]wlog.InstanceID, 0, nr)
				for x := uint64(0); x < nr && r.err == nil; x++ {
					readers = append(readers, wlog.InstanceID(r.Str()))
				}
				s.Graph.Pending[k] = readers
			}
		case recSnapFooter:
			if n := r.Uvarint(); n != uint64(i) {
				return nil, fmt.Errorf("durable: snapshot footer counts %d records, file has %d", n, i)
			}
			sawFooter = true
		default:
			return nil, fmt.Errorf("durable: unknown snapshot record kind %d", kind)
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
	}
	if !sawFooter {
		return nil, fmt.Errorf("durable: snapshot missing footer (incomplete write)")
	}
	return s, nil
}

// WriteSnapshot durably persists a snapshot (WriteSnapshotFile), then
// retires every segment fully covered by it. On success, restores start from
// this snapshot; on any failure the previous snapshot still governs.
func (w *WAL) WriteSnapshot(s *Snapshot) error {
	if err := WriteSnapshotFile(w.dir, snapPrefix, s.Seq, EncodeSnapshot(s), w.opts.NoSync); err != nil {
		return err
	}
	w.o.snapshots.Inc()

	w.mu.Lock()
	w.snapSeq = s.Seq
	w.snapEpoch = s.Epoch
	w.mu.Unlock()

	w.log.Retire(s.Seq)
	w.o.segments.Set(int64(w.log.Segments()))
	return nil
}

// WriteSnapshotFile stores body as the snapshot covering records 1..seq
// among the snapshots under prefix in dir (SnapshotFile): temp file + fsync +
// rename + directory fsync (no syncs with noSync), so a crash leaves either
// the previous snapshot or this one, never a torn file. Once it is in place,
// every older snapshot under prefix is deleted.
func WriteSnapshotFile(dir, prefix string, seq uint64, body []byte, noSync bool) error {
	final := filepath.Join(dir, SnapshotFile(prefix, seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if !noSync {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	if nums, err := listNumbered(dir, prefix, snapSuffix); err == nil {
		for _, n := range nums {
			if n < seq {
				os.Remove(filepath.Join(dir, SnapshotFile(prefix, n)))
			}
		}
	}
	return nil
}

// LatestSnapshotFile returns the newest snapshot file under prefix in dir —
// the sequence number its name carries and its bytes, undecoded — or a nil
// body when there is none.
func LatestSnapshotFile(dir, prefix string) (uint64, []byte, error) {
	nums, err := listNumbered(dir, prefix, snapSuffix)
	if err != nil || len(nums) == 0 {
		return 0, nil, err
	}
	latest := nums[len(nums)-1]
	b, err := os.ReadFile(filepath.Join(dir, SnapshotFile(prefix, latest)))
	return latest, b, err
}

// LoadLatestSnapshot decodes the newest complete snapshot under prefix in
// dir, or returns nil when none exists. A file that does not decode, or whose
// header names another sequence number than its file name, is an error.
func LoadLatestSnapshot(dir, prefix string) (*Snapshot, error) {
	seq, b, err := LatestSnapshotFile(dir, prefix)
	if err != nil || b == nil {
		return nil, err
	}
	s, err := DecodeSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", SnapshotFile(prefix, seq), err)
	}
	if s.Seq != seq {
		return nil, fmt.Errorf("durable: snapshot %s claims seq %d", SnapshotFile(prefix, seq), s.Seq)
	}
	return s, nil
}
