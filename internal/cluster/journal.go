package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"selfheal/internal/durable"
)

// frameLog is a node's one copy of the record stream: the frames of records
// First()..Next()-1 as the journal stores them and the replication wire
// carries them, and the latest snapshot, which covers every record before
// them. A journaled node's is its journal; a node without Config.Dir keeps
// the same in memory (memFrames). Pushes, fetches, the JSON commits document
// and the snapshot route are all served from it, so the replica keeps no
// record history of its own.
type frameLog interface {
	Append(first uint64, frames []byte, n int) error
	Sync() error
	First() uint64
	Next() uint64
	ReadFrames(from uint64, max int) ([]byte, int, error)
	// Checkpoint stores snap, the snapshot covering records 1..seq (whose
	// frames are appended), drops the records the previous snapshot covered,
	// and starts the records after seq in a fresh segment.
	Checkpoint(seq uint64, snap []byte) error
	// Install stores snap, a peer's snapshot covering records 1..seq, and
	// drops every record held: the log continues at seq+1.
	Install(seq uint64, snap []byte) error
	// Snapshot returns the latest snapshot's bytes, nil when there is none.
	Snapshot() ([]byte, error)
	Close() error
}

// memFrames is the frame log of a node without a journal directory: every
// frame above the previous snapshot in one buffer, plus where each record
// ends in it, and the latest snapshot's bytes.
type memFrames struct {
	mu    sync.Mutex
	first uint64 // the seq of the first record held
	buf   []byte
	ends  []int64 // ends[i] is the offset just past record first+i
	snap  []byte
	prev  uint64 // the seq the latest snapshot covers
}

func newMemFrames() *memFrames { return &memFrames{first: 1} }

func (m *memFrames) Append(first uint64, frames []byte, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if next := m.first + uint64(len(m.ends)); first != next {
		return fmt.Errorf("cluster: append of record %d to a stream at %d", first, next)
	}
	m.ends = durable.AppendFrameEnds(m.ends, frames, n, int64(len(m.buf)))
	m.buf = append(m.buf, frames...)
	return nil
}

func (m *memFrames) Sync() error { return nil }

func (m *memFrames) First() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.first
}

func (m *memFrames) Next() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.first + uint64(len(m.ends))
}

// ReadFrames returns records from.. (at most max) aliasing the buffer, whose
// bytes are never rewritten once appended (a checkpoint moves the kept
// records to a new buffer).
func (m *memFrames) ReadFrames(from uint64, max int) ([]byte, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < m.first {
		return nil, 0, fmt.Errorf("cluster: record %d is below the first record held, %d", from, m.first)
	}
	i := int(from - m.first)
	if i >= len(m.ends) || max <= 0 {
		return nil, 0, nil
	}
	j := min(i+max, len(m.ends))
	var start int64
	if i > 0 {
		start = m.ends[i-1]
	}
	return m.buf[start:m.ends[j-1]:m.ends[j-1]], j - i, nil
}

func (m *memFrames) Checkpoint(seq uint64, snap []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Drop records first..prev, which the previous snapshot covers (none
	// after an Install, whose records all lie above it).
	if m.prev >= m.first {
		k := int(m.prev - m.first + 1)
		cut := m.ends[k-1]
		m.buf = bytes.Clone(m.buf[cut:])
		ends := make([]int64, len(m.ends)-k)
		for i := range ends {
			ends[i] = m.ends[k+i] - cut
		}
		m.ends, m.first = ends, m.first+uint64(k)
	}
	m.snap, m.prev = snap, seq
	return nil
}

func (m *memFrames) Install(seq uint64, snap []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf, m.ends, m.first = nil, nil, seq+1
	m.snap, m.prev = snap, seq
	return nil
}

func (m *memFrames) Snapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap, nil
}

func (m *memFrames) Close() error { return nil }

// journalSegmentBytes is the rotation size of a node's journal: 0 selects
// durable.DefaultSegmentBytes. A variable only so tests can make a short
// stream span several segments.
var journalSegmentBytes int64

// journal is a journaled node's frame log: the durable.SegmentLog stored
// directly in Config.Dir under the "<node-id>.wal-" prefix, one framed record
// (codec.go) per stream position, and beside it the latest snapshot as
// "<node-id>.snap-<seq>.snap" in durable's snapshot format. A checkpoint ends
// a segment, and the next checkpoint retires it: the journal holds the
// records since the snapshot before the latest, so a peer that fell a little
// behind still catches up from frames.
type journal struct {
	*durable.SegmentLog
	dir, snapPrefix string
	// prev is the seq the latest snapshot covers: what the next checkpoint
	// retires. Guarded by whatever orders the log's appends.
	prev uint64
}

func (j *journal) Checkpoint(seq uint64, snap []byte) error {
	if err := durable.WriteSnapshotFile(j.dir, j.snapPrefix, seq, snap, false); err != nil {
		return err
	}
	j.Retire(j.prev)
	j.prev = seq
	return j.Rotate()
}

func (j *journal) Install(seq uint64, snap []byte) error {
	if err := durable.WriteSnapshotFile(j.dir, j.snapPrefix, seq, snap, false); err != nil {
		return err
	}
	j.prev = seq
	return j.Reset(seq + 1)
}

func (j *journal) Snapshot() ([]byte, error) {
	_, b, err := durable.LatestSnapshotFile(j.dir, j.snapPrefix)
	return b, err
}

// openJournal restores the node from its directory: the latest snapshot, if
// any, into the replica, then the journal records above it, replayed one at
// a time: each is decoded, applied and dropped, so the stream is never held
// decoded beside the replica built from it. A checkpoint record in the
// replayed suffix checkpoints again, as it did live.
//
// A frame that passes its CRC was written whole, so one that does not
// decode, or whose seq is not its position, is corruption and fails the
// boot — as does a journal file of an earlier format, which this version
// cannot read and does not migrate. A journal that ends before its snapshot
// (a follower does not fsync its journal) restarts after the snapshot.
func (n *Node) openJournal() error {
	dir, id := n.cfg.Dir, n.cfg.NodeID
	for _, ext := range []string{".rjournal", ".journal"} {
		old := filepath.Join(dir, id+ext)
		if _, err := os.Stat(old); !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("cluster: %s is a journal of an earlier format, which this version cannot read: move it away and boot with -join to refill from the peers", old)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: journal: %w", err)
	}
	snap, err := durable.LoadLatestSnapshot(dir, id+".snap-")
	if err != nil {
		return fmt.Errorf("cluster: journal of %s: %w", id, err)
	}
	var base uint64
	if snap != nil {
		if err := n.rep.restore(snap); err != nil {
			return err
		}
		base = snap.Seq
	}
	sl, payloads, err := durable.OpenSegmentLog(dir, id+".wal-", base+1, durable.Options{SegmentBytes: journalSegmentBytes})
	if err != nil {
		return fmt.Errorf("cluster: journal: %w", err)
	}
	fail := func(err error) error {
		sl.Close()
		return fmt.Errorf("cluster: journal of %s: %w", id, err)
	}
	first := sl.First()
	if first > base+1 {
		return fail(fmt.Errorf("starts at record %d, not %d", first, base+1))
	}
	if sl.Next() <= base {
		if err := sl.Reset(base + 1); err != nil {
			return fail(err)
		}
		payloads = nil
	}
	n.journal = &journal{SegmentLog: sl, dir: dir, snapPrefix: id + ".snap-", prev: base}
	for i, p := range payloads {
		pos := first + uint64(i)
		if pos <= base {
			continue
		}
		rec, err := decodeRecord(p)
		if err != nil {
			return fail(fmt.Errorf("record %d: %w", pos, err))
		}
		if uint64(rec.Seq) != pos {
			return fail(fmt.Errorf("record at position %d has seq %d", pos, rec.Seq))
		}
		if _, err := n.rep.Apply(rec); err != nil {
			return fail(fmt.Errorf("replay: %w", err))
		}
		if ck := n.rep.takeCheckpoint(); ck != nil {
			n.completeCheckpoint(ck)
		}
	}
	return nil
}

// completeCheckpoint finishes a checkpoint the replica applied: it reads the
// documents the capture lacks from their spec records, stores the snapshot
// through the frame log (frameLog.Checkpoint) and hands the documents to the
// replica for the next checkpoint. The checkpoint record's frame is in the
// frame log already, and the caller holds whatever orders its appends. A
// snapshot that cannot be stored is logged: the replica has forgotten the
// history regardless, exactly like its peers, and the frame log keeps the
// previous snapshot and its records.
func (n *Node) completeCheckpoint(ck *capture) {
	start := time.Now()
	var err error
	docs := make(map[string][]byte, len(ck.need))
	for run, seq := range ck.need {
		var doc []byte
		if doc, err = n.specDocAt(seq); err != nil {
			break
		}
		docs[run] = doc
		ck.snap.Specs[run] = durable.SpecState{JSON: doc}
	}
	n.rep.adoptDocs(docs)
	if err == nil {
		err = n.journal.Checkpoint(ck.snap.Seq, durable.EncodeSnapshot(ck.snap))
	}
	if err != nil {
		log.Printf("cluster: node %s: checkpoint at record %d stored no snapshot: %v", n.cfg.NodeID, ck.snap.Seq, err)
		return
	}
	n.o.snapshot(time.Since(start))
}

// specDocAt reads a run's document from its spec record in the frame log.
func (n *Node) specDocAt(seq int) ([]byte, error) {
	b, _, err := n.journal.ReadFrames(uint64(seq), 1)
	if err != nil {
		return nil, err
	}
	payloads, _ := durable.SplitFrames(b)
	if len(payloads) != 1 {
		return nil, fmt.Errorf("cluster: spec record %d is not in the frame log", seq)
	}
	return specDoc(payloads[0])
}

// installSnapshot replaces the replica with a peer's snapshot and restarts
// the frame log after it: how a node whose position lies beneath a peer's
// horizon catches up before it fetches that peer's frames. A snapshot no
// newer than the replica is ignored.
func (n *Node) installSnapshot(body []byte) error {
	snap, err := durable.DecodeSnapshot(body)
	if err != nil {
		return fmt.Errorf("cluster: peer snapshot: %w", err)
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if int(snap.Seq) <= n.rep.Applied() {
		return nil
	}
	if err := n.rep.restore(snap); err != nil {
		return err
	}
	n.o.snapshotInstalled()
	n.o.recordsApplied(n.rep.Applied())
	if n.journalErr == nil {
		if err := n.journal.Install(snap.Seq, body); err != nil {
			n.journalErr = err
			log.Printf("cluster: node %s: installing the snapshot at record %d in the journal failed; journaling stops (restart with -join heals the journal): %v",
				n.cfg.NodeID, snap.Seq, err)
		}
	}
	return nil
}

// journalAppend writes the framed records [first, first+count) to the
// node's frame log. The stamper — the single authority for stream
// positions — also makes them durable before returning; followers never
// fsync, because -join pulls whatever a crash tore off the tail.
func (n *Node) journalAppend(first, count int, frames []byte) error {
	if err := n.journal.Append(uint64(first), frames, count); err != nil {
		return err
	}
	if n.st != nil {
		return n.journal.Sync()
	}
	return nil
}

// servable is the highest record this node serves and advertises to its
// peers: the published cursor on the stamper (published only ever follows
// the journal fsync); on a follower, what it has both applied and
// journaled — so a follower whose journal stopped at a hole serves nothing
// past it, and -join does not mistake it for the most advanced source.
func (n *Node) servable() int {
	p := n.rep.Published()
	if n.st != nil {
		return p
	}
	return min(p, int(n.journal.Next())-1)
}

// errBelowHorizon marks a fetch from a position the frame log no longer
// holds: the records after it are retired beneath a snapshot, which the
// fetcher installs first (GET /internal/v1/snapshot).
var errBelowHorizon = errors.New("cluster: the records after this position are retired beneath the snapshot horizon")

// framesAfter returns the frames of records (after, after+max] from the
// frame log, capped at servable.
func (n *Node) framesAfter(after, max int) ([]byte, error) {
	end := min(n.servable(), after+max)
	if after >= end {
		return nil, nil
	}
	b, _, err := n.journal.ReadFrames(uint64(after+1), end-after)
	if err != nil && uint64(after+1) < n.journal.First() {
		err = errBelowHorizon
	}
	return b, err
}

// recordsAfter decodes records (after, after+max] for the JSON commits
// document, one frame at a time.
func (n *Node) recordsAfter(after, max int) ([]json.RawMessage, error) {
	body, err := n.framesAfter(after, max)
	if err != nil {
		return nil, err
	}
	payloads, _ := durable.SplitFrames(body)
	out := make([]json.RawMessage, 0, len(payloads))
	for _, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// errCorruptBody marks a replication body whose framing is damaged.
var errCorruptBody = errors.New("cluster: record stream corrupt")

// applyFrames applies a binary replication body — frames exactly as the
// sender's journal holds them — in stream order, and journals each run of
// frames that applied verbatim with one append: the run ends with the body,
// or at a checkpoint record, which is journaled before the checkpoint
// completes (its snapshot covers only journaled records). Records the
// replica already holds are skipped; the first one after the applied run
// that does not apply (a gap) ends the body. Framing damage anywhere rejects
// the whole body before anything applies: unlike a journal's final segment,
// a body travels whole over TCP. applyMu keeps the journal in stream order
// when push delivery and the pull fallback race.
func (n *Node) applyFrames(body []byte) error {
	payloads, validLen := durable.SplitFrames(body)
	if validLen != len(body) {
		return fmt.Errorf("%w at byte %d of %d", errCorruptBody, validLen, len(body))
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	// The frames applied and not yet journaled are body[start:off], count
	// records from seq lo.
	start, off, lo, count, appliedAny := 0, 0, 0, 0, false
	var err error
	for _, p := range payloads {
		next := off + durable.FrameHeader + len(p)
		var rec *Record
		if rec, err = decodeRecord(p); err != nil {
			break
		}
		var ok bool
		if ok, err = n.rep.Apply(rec); err != nil {
			break
		}
		if !ok {
			if appliedAny {
				break
			}
			start, off = next, next
			continue
		}
		if count == 0 {
			lo = rec.Seq
		}
		count, appliedAny, off = count+1, true, next
		if ck := n.rep.takeCheckpoint(); ck != nil {
			n.journalRun(lo, count, body[start:off])
			start, count = off, 0
			if n.journalErr == nil {
				n.completeCheckpoint(ck)
			}
		}
	}
	if !appliedAny {
		return err
	}
	n.o.recordsApplied(n.rep.Applied())
	if count > 0 {
		n.journalRun(lo, count, body[start:off])
	}
	return err
}

// journalRun appends records [first, first+count), framed in frames, to the
// follower's journal. An append error does not fail the apply, but it ends
// journaling for the life of the process — the segment log refuses every
// append after a failed one, so the file stays a clean prefix with no record
// after a hole, and the next boot replays it and pulls the rest. Every record
// left out is counted and the transition is logged once, because a silently
// short journal turns the next restart into a long catch-up. Callers hold
// applyMu.
func (n *Node) journalRun(first, count int, frames []byte) {
	jerr := n.journalErr
	if jerr == nil {
		jerr = n.journalAppend(first, count, frames)
	}
	if jerr != nil {
		n.o.journalErrors(count)
		if n.journalErr == nil {
			n.journalErr = jerr
			log.Printf("cluster: node %s: record journal append failed; journaling stops at record %d (replica continues; restart with -join heals the journal): %v",
				n.cfg.NodeID, first-1, jerr)
		}
	}
}
