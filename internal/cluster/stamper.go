package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// Submission statuses the stamper returns to executors.
const (
	// SubOK: the entry was stamped; Seq is its stream position.
	SubOK = "ok"
	// SubDup: the instance is already committed (a retransmit after a lost
	// response) — benign; Seq is the stamper's current position.
	SubDup = "dup"
	// SubStale: the submission's frontier or read versions no longer match
	// the stamper's replica. The executor catches its replica up to Seq
	// and re-executes.
	SubStale = "stale"
	// SubPaused: the task's footprint intersects a quiesced incident's
	// damaged keys. The executor retries after the repair releases.
	SubPaused = "paused"
)

// SubmitResult is the stamper's verdict on an entry submission.
type SubmitResult struct {
	Status string `json:"status"`
	Seq    int    `json:"seq"`
	Reason string `json:"reason,omitempty"`
}

// stamper is the cluster's single sequencer: the lowest-sorted member. It
// owns the dense record stream — every spec, entry and repair record is
// validated against the stamper's replica and stamped under one mutex, so
// the stream is a serialization of the whole cluster's commits. Entry
// submissions carry the executor's optimistic read observations; the
// stamper re-reads its own replica and rejects any submission whose
// observations are no longer current (the §VII merge discipline as OCC).
//
// Spec and entry stamping is batch-first (the durable WAL's committer-group
// pattern): submitters enqueue jobs and block while a single stamping
// goroutine drains everything pending, validates and applies each record
// under one s.mu acquisition, writes the whole batch to the journal (the
// node's durable.SegmentLog) with one write+fsync, then publishes the batch
// to the replication cursor and wakes every submitter. A registration is a
// job whose spec record precedes its run's first window of entries, so the
// two share a group; SubmitEntry is the degenerate one-entry batch.
type stamper struct {
	n  *Node
	mu sync.Mutex
	// pausedKeys is the admission gate of partial quiescence: while an
	// incident holds keys, no entry touching them is stamped, anywhere in
	// the cluster — even from nodes that were not asked to quiesce
	// (a clean node may own a task that READS a damaged key).
	pausedKeys map[data.Key]bool
	// err is the sticky stamping failure: once a journal write or fsync
	// fails, the stamper cannot prove durability for anything after it and
	// refuses all further stamping (mirror of the durable WAL's sticky
	// error). Guarded by mu.
	err error

	qmu   sync.Mutex
	qcond *sync.Cond
	queue []*stampJob
}

// stampJob is one submitter's pending batch: the stamping loop fills
// results (one verdict per entry, in order) and closes done. A job carrying
// a spec record registers a run: the loop stamps the spec (setting its Seq)
// before the job's entries, or refuses the whole job through err.
type stampJob struct {
	origin  string
	spec    *Record
	entries []*EntryJSON
	results []SubmitResult
	err     error
	done    chan struct{}
}

func newStamper(n *Node) *stamper {
	s := &stamper{n: n, pausedKeys: make(map[data.Key]bool)}
	s.qcond = sync.NewCond(&s.qmu)
	return s
}

// wake unblocks the stamping loop (used by Node.Stop).
func (s *stamper) wake() {
	s.qmu.Lock()
	s.qcond.Broadcast()
	s.qmu.Unlock()
}

// loop is the single stamping goroutine: it drains every queued job into
// one group, stamps the group, and repeats. Batching is by absorption —
// whatever queued while the previous group was fsyncing forms the next
// group, so batch size adapts to load with no added latency when idle.
func (s *stamper) loop() {
	defer s.n.wg.Done()
	for {
		s.qmu.Lock()
		for len(s.queue) == 0 && !s.n.stopped() {
			s.qcond.Wait()
		}
		jobs := s.queue
		s.queue = nil
		s.qmu.Unlock()
		if s.n.stopped() {
			for _, job := range jobs {
				job.err = errors.New("cluster: node stopped")
				close(job.done)
			}
			return
		}
		s.stampJobs(jobs)
	}
}

// stampJobs validates, stamps and applies every record of every job under
// one s.mu acquisition, then makes the whole group durable with a single
// journal write+fsync before publishing it to replication.
func (s *stamper) stampJobs(jobs []*stampJob) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		for _, job := range jobs {
			job.err = s.err
			close(job.done)
		}
		return
	}
	var buf []byte
	first, stamped := 0, 0
	stamp := func(rec *Record) error {
		rec.Seq = s.n.rep.Applied() + 1
		if err := s.n.rep.applyStamped(rec); err != nil {
			return err
		}
		buf = encodeFramedRecord(buf, rec)
		if stamped == 0 {
			first = rec.Seq
		}
		stamped++
		s.n.o.recordStamped(rec.Kind)
		return nil
	}
	for _, job := range jobs {
		if job.spec != nil {
			if s.n.rep.HasRun(job.spec.Run) {
				job.err = fmt.Errorf("cluster: run %s: %w", job.spec.Run, engine.ErrRunExists)
				continue
			}
			if job.err = stamp(job.spec); job.err != nil {
				continue
			}
		}
		job.results = make([]SubmitResult, len(job.entries))
		var lsnOf map[string]int // instance → LSN of the job's stamped entries
		for i, ej := range job.entries {
			rebaseWindowReads(ej, lsnOf)
			res, admit := s.validateEntryLocked(ej)
			if !admit {
				job.results[i] = res
				continue
			}
			rec := &Record{Kind: KindEntry, Origin: job.origin, Entry: ej.ToEntry()}
			if err := stamp(rec); err != nil {
				job.results[i] = SubmitResult{Status: SubStale, Seq: s.n.rep.Applied(), Reason: err.Error()}
				continue
			}
			job.results[i] = SubmitResult{Status: SubOK, Seq: rec.Seq}
			if i+1 < len(job.entries) {
				if lsnOf == nil {
					lsnOf = make(map[string]int, len(job.entries))
				}
				lsnOf[string(rec.Entry.ID())] = rec.Entry.LSN
			}
		}
	}
	if stamped > 0 {
		if err := s.commitLocked(first, stamped, buf); err != nil {
			// None of these records may be reported ok.
			s.mu.Unlock()
			for _, job := range jobs {
				job.err = err
				close(job.done)
			}
			return
		}
		s.n.o.stampBatch(stamped)
	}
	s.mu.Unlock()
	for _, job := range jobs {
		close(job.done)
	}
}

// rebaseWindowReads places each read of an entry the same job stamped before
// it at the LSN that entry got. A window's submitter cannot know those LSNs —
// its replica trails the stamper by whatever commits meanwhile, another
// window speculated from the same replica position included — so its
// in-window reads name their writer only. A job's entries are stamped
// contiguously, so nothing else can have written the key between the two;
// validateEntryLocked still checks the read's value and writer.
func rebaseWindowReads(ej *EntryJSON, lsnOf map[string]int) {
	for k, o := range ej.Reads {
		if lsn, ok := lsnOf[o.Writer]; ok {
			o.WriterPos = float64(lsn)
			ej.Reads[k] = o
		}
	}
}

// commitLocked makes the records [first, first+n) — already applied to the
// stamper's replica, framed in buf — durable with one journal write+fsync
// and only then publishes them to replication. A journal failure wedges the
// stamper: the records were applied locally but are not durable, so the
// replica stays ahead of the published cursor forever and nothing is ever
// stamped again. Callers hold s.mu.
func (s *stamper) commitLocked(first, n int, buf []byte) error {
	if err := s.n.journalAppend(first, n, buf); err != nil {
		s.err = fmt.Errorf("cluster: stamper journal: %w", err)
		return s.err
	}
	s.n.rep.PublishTo(first + n - 1)
	s.n.wakePushers()
	return nil
}

// validateEntryLocked re-runs the §VII merge discipline for one submitted
// entry against the stamper's replica (which already reflects every earlier
// entry of the current group). The boolean reports whether to stamp.
func (s *stamper) validateEntryLocked(ej *EntryJSON) (SubmitResult, bool) {
	rep := s.n.rep
	inst := wlog.FormatInstance(ej.Run, wf.TaskID(ej.Task), ej.Visit)
	if rep.HasInstance(inst) {
		return SubmitResult{Status: SubDup, Seq: rep.Applied()}, false
	}
	if ej.Forged {
		// Forged entries commit outside any specification (the attacker
		// does not wait for quiescence either): existence is the only check,
		// exactly as SubmitForge admits them.
		return SubmitResult{}, true
	}
	spec := rep.Spec(ej.Run)
	if spec == nil {
		return SubmitResult{Status: SubStale, Seq: rep.Applied(), Reason: "unknown run"}, false
	}
	task := spec.Tasks[wf.TaskID(ej.Task)]
	if task == nil {
		return SubmitResult{Status: SubStale, Seq: rep.Applied(), Reason: "unknown task"}, false
	}
	cur, visit, done, _ := rep.Frontier(ej.Run)
	if done || cur != wf.TaskID(ej.Task) || visit != ej.Visit {
		return SubmitResult{Status: SubStale, Seq: rep.Applied(),
			Reason: fmt.Sprintf("frontier is %s#%d", cur, visit)}, false
	}
	// Partial-quiescence admission gate: reject anything touching a
	// quiesced key (reads included — a damaged value must not leak into a
	// new commit while the repair is in flight).
	for _, k := range task.Reads {
		if s.pausedKeys[k] {
			return SubmitResult{Status: SubPaused, Seq: rep.Applied()}, false
		}
	}
	for _, k := range task.Writes {
		if s.pausedKeys[k] {
			return SubmitResult{Status: SubPaused, Seq: rep.Applied()}, false
		}
	}
	// OCC validation: every observed read version must still be the
	// current committed version on the stamper's replica.
	for _, k := range task.Reads {
		want := rep.currentObs(k)
		got, ok := ej.Reads[string(k)]
		if !ok || data.Value(got.Value) != want.Value || got.Writer != want.Writer || got.WriterPos != want.WriterPos {
			return SubmitResult{Status: SubStale, Seq: rep.Applied(),
				Reason: fmt.Sprintf("read %s is stale", k)}, false
		}
	}
	return SubmitResult{}, true
}

// SubmitEntries validates and stamps a batch of entries, returning one
// verdict per entry in submission order. The call blocks until the group-
// commit loop has made the accepted entries durable. Entries of one batch
// are validated sequentially against the evolving replica, so a pipelined
// window may read its own earlier writes.
func (s *stamper) SubmitEntries(origin string, entries []*EntryJSON) ([]SubmitResult, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	return s.submit(&stampJob{origin: origin, entries: entries})
}

// SubmitSpec validates a run registration and stamps it together with the
// run's first window of entries (speculated at admission; possibly none):
// the spec record first, then each entry validated exactly as SubmitEntries
// validates it, in the same group and so under the same fsync. It returns
// the spec's seq and one verdict per entry.
func (s *stamper) SubmitSpec(origin, run string, doc *wfjson.SpecJSON, entries []*EntryJSON) (int, []SubmitResult, error) {
	_, init, err := wfjson.Build(doc)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: run %s: %w: %v", run, engine.ErrBadSpec, err)
	}
	initW := make(map[string]int64, len(init))
	for k, v := range init {
		initW[string(k)] = int64(v)
	}
	spec := &Record{Kind: KindSpec, Origin: origin, Run: run, Spec: doc, Init: initW}
	results, err := s.submit(&stampJob{origin: origin, spec: spec, entries: entries})
	if err != nil {
		return 0, nil, err
	}
	return spec.Seq, results, nil
}

// submit queues one job for the stamping loop and waits for its verdicts.
func (s *stamper) submit(job *stampJob) ([]SubmitResult, error) {
	job.done = make(chan struct{})
	s.qmu.Lock()
	s.queue = append(s.queue, job)
	s.qcond.Signal()
	s.qmu.Unlock()
	select {
	case <-job.done:
	case <-s.n.stop:
		return nil, errors.New("cluster: node stopped")
	}
	if job.err != nil {
		return nil, job.err
	}
	return job.results, nil
}

// stampLocked assigns the next stream position to one record, applies it
// and commits it as a group of one (one fsync) — the direct path for the
// rare forge and repair records. Callers hold s.mu.
func (s *stamper) stampLocked(rec *Record) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	rec.Seq = s.n.rep.Applied() + 1
	if err := s.n.rep.applyStamped(rec); err != nil {
		return 0, err
	}
	if err := s.commitLocked(rec.Seq, 1, encodeFramedRecord(nil, rec)); err != nil {
		return 0, err
	}
	s.n.o.recordStamped(rec.Kind)
	return rec.Seq, nil
}

// SubmitEntry validates an executor's optimistic submission and stamps it —
// the degenerate one-entry batch through the group-commit loop.
func (s *stamper) SubmitEntry(origin string, ej *EntryJSON) SubmitResult {
	res, err := s.SubmitEntries(origin, []*EntryJSON{ej})
	if err != nil {
		return SubmitResult{Status: SubStale, Seq: s.n.rep.Applied(), Reason: err.Error()}
	}
	return res[0]
}

// SubmitForge commits an attacker task outside any specification, reading
// the current versions of the named keys — the cluster's equivalent of the
// single-node engine's InjectForged (always visit 1).
func (s *stamper) SubmitForge(origin, run, task string, reads []string, writes map[string]int64) (wlog.InstanceID, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := s.n.rep
	inst := wlog.FormatInstance(run, wf.TaskID(task), 1)
	if rep.HasInstance(inst) {
		return "", 0, fmt.Errorf("cluster: forged instance %s already committed: %w", inst, engine.ErrRunExists)
	}
	e := &wlog.Entry{Run: run, Task: wf.TaskID(task), Visit: 1, Forged: true}
	for _, k := range reads {
		if _, seen := e.Read(data.Key(k)); !seen {
			e.Reads = append(e.Reads, wlog.Read{Key: data.Key(k), ReadObs: rep.currentObs(data.Key(k))})
		}
	}
	for k, v := range writes {
		e.Writes = append(e.Writes, wlog.Write{Key: data.Key(k), Value: data.Value(v)})
	}
	if err := e.Normalize(); err != nil {
		return "", 0, err
	}
	seq, err := s.stampLocked(&Record{Kind: KindEntry, Origin: origin, Entry: e})
	if err != nil {
		return "", 0, err
	}
	return inst, seq, nil
}

// SubmitRepair stamps a repair record for the accused instances. The caller
// (the incident leader) has already quiesced the damaged keys' owners.
func (s *stamper) SubmitRepair(origin string, bad []string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range bad {
		if !s.n.rep.HasInstance(wlog.InstanceID(id)) {
			return 0, fmt.Errorf("cluster: repair names unknown instance %s: %w", id, engine.ErrUnknownRun)
		}
	}
	return s.stampLocked(&Record{Kind: KindRepair, Origin: origin, Bad: bad})
}

// PauseKeys adds keys to the admission gate (incident quiesce).
func (s *stamper) PauseKeys(keys []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		s.pausedKeys[data.Key(k)] = true
	}
	s.n.o.pausedKeys(len(s.pausedKeys))
}

// ReleaseKeys removes keys from the admission gate.
func (s *stamper) ReleaseKeys(keys []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.pausedKeys, data.Key(k))
	}
	s.n.o.pausedKeys(len(s.pausedKeys))
}

// pusher streams new records to one peer in order, resuming from whatever
// the peer acknowledges — push is the primary replication path, with the
// follower's pull loop as the catch-up fallback. A caught-up pusher parks
// on the cond var keyed by the peer's acked position (sent) until a batch
// publishes past it: an idle cluster burns no wakeups. Records ship as the
// journal's own frames, read back from it, and only published
// (stamper-durable) records are ever eligible.
func (n *Node) pusher(peerID string) {
	defer n.wg.Done()
	sent := 0
	for {
		n.pushMu.Lock()
		for sent >= n.rep.Published() && !n.stopped() {
			n.pushCond.Wait()
		}
		n.pushMu.Unlock()
		if n.stopped() {
			return
		}
		body, err := n.framesAfter(sent, 256)
		var applied int
		if err == nil {
			applied, err = n.client.pushCommits(n.peerAddr(peerID), body)
		}
		if err != nil {
			n.o.replicationError(peerID)
			if !n.sleep(100 * time.Millisecond) {
				return
			}
			// Re-probe from the peer's acknowledged position next round.
			continue
		}
		n.o.replicationBytes("out", len(body))
		if applied <= sent {
			// The peer did not advance: it either restarted behind us
			// (rewind and resend) or is wedged mid-apply — back off briefly
			// so a stuck peer cannot turn this loop hot.
			if !n.sleep(20 * time.Millisecond) {
				return
			}
		}
		sent = applied
		n.o.replicationLag(peerID, n.rep.Published()-sent)
	}
}

// wakePushers signals every replication pusher that new records exist.
func (n *Node) wakePushers() {
	n.pushMu.Lock()
	n.pushCond.Broadcast()
	n.pushMu.Unlock()
}
