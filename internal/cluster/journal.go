package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"

	"selfheal/internal/durable"
)

// frameLog is a node's one copy of the record stream: records 1..Next()-1
// as the CRC-framed bytes the journal stores and the replication wire
// carries. A journaled node's is its durable.SegmentLog; a node without
// Config.Dir keeps the same frames in memory (memFrames). Pushes, fetches and
// the JSON commits document are all served from it, so the replica keeps no
// record history of its own.
type frameLog interface {
	Append(first uint64, frames []byte, n int) error
	Sync() error
	Next() uint64
	ReadFrames(from uint64, max int) ([]byte, int, error)
	Close() error
}

// memFrames is the frame log of a node without a journal directory: every
// frame in one buffer, plus where each record ends in it.
type memFrames struct {
	mu   sync.Mutex
	buf  []byte
	ends []int64 // ends[i] is the offset just past record i+1
}

func (m *memFrames) Append(first uint64, frames []byte, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if first != uint64(len(m.ends))+1 {
		return fmt.Errorf("cluster: append of record %d to a stream at %d", first, len(m.ends)+1)
	}
	m.ends = durable.AppendFrameEnds(m.ends, frames, n, int64(len(m.buf)))
	m.buf = append(m.buf, frames...)
	return nil
}

func (m *memFrames) Sync() error { return nil }

func (m *memFrames) Next() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.ends)) + 1
}

// ReadFrames returns records from.. (at most max) aliasing the buffer, whose
// bytes are never rewritten once appended.
func (m *memFrames) ReadFrames(from uint64, max int) ([]byte, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < 1 || from > uint64(len(m.ends)) || max <= 0 {
		return nil, 0, nil
	}
	i := int(from - 1)
	j := min(i+max, len(m.ends))
	var start int64
	if i > 0 {
		start = m.ends[i-1]
	}
	return m.buf[start:m.ends[j-1]:m.ends[j-1]], j - i, nil
}

func (m *memFrames) Close() error { return nil }

// journalSegmentBytes is the rotation size of a node's journal: 0 selects
// durable.DefaultSegmentBytes. A variable only so tests can make a short
// stream span several segments.
var journalSegmentBytes int64

// loadJournal opens the node's record journal — the durable.SegmentLog
// stored directly in dir under the "<node-id>.wal-" prefix, one framed
// record (codec.go) per applied stream position — and replays it into rep
// one record at a time: each is decoded, applied and dropped, so the stream
// is never held decoded beside the replica built from it.
//
// A frame that passes its CRC was written whole, so one that does not
// decode, or whose seq is not its position, is corruption and fails the
// boot — as does a journal file of an earlier format, which this version
// cannot read and does not migrate.
func loadJournal(dir, nodeID string, rep *replica) (*durable.SegmentLog, error) {
	for _, ext := range []string{".rjournal", ".journal"} {
		old := filepath.Join(dir, nodeID+ext)
		if _, err := os.Stat(old); !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("cluster: %s is a journal of an earlier format, which this version cannot read: move it away and boot with -join to refill from the peers", old)
		}
	}
	j, payloads, err := durable.OpenSegmentLog(dir, nodeID+".wal-", 1, durable.Options{SegmentBytes: journalSegmentBytes})
	if err != nil {
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	fail := func(err error) (*durable.SegmentLog, error) {
		j.Close()
		return nil, fmt.Errorf("cluster: journal of %s: %w", nodeID, err)
	}
	if j.First() != 1 {
		return fail(fmt.Errorf("starts at record %d, not 1", j.First()))
	}
	for i, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			return fail(fmt.Errorf("record %d: %w", i+1, err))
		}
		if rec.Seq != i+1 {
			return fail(fmt.Errorf("record at position %d has seq %d", i+1, rec.Seq))
		}
		if _, err := rep.Apply(rec); err != nil {
			return fail(fmt.Errorf("replay: %w", err))
		}
	}
	return j, nil
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

// framesAfter returns the frames of records (after, after+max] from the
// frame log, capped at servable.
func (n *Node) framesAfter(after, max int) ([]byte, error) {
	end := min(n.servable(), after+max)
	if after >= end {
		return nil, nil
	}
	b, _, err := n.journal.ReadFrames(uint64(after+1), end-after)
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
// sender's journal holds them — in stream order, and journals the run of
// frames that applied verbatim, with one append. Records the replica already
// holds are skipped; the first one after the applied run that does not apply
// (a gap) ends the body. Framing damage anywhere rejects the whole body
// before anything applies: unlike a journal's final segment, a body travels
// whole over TCP. applyMu keeps the journal in stream order when push
// delivery and the pull fallback race.
func (n *Node) applyFrames(body []byte) error {
	payloads, validLen := durable.SplitFrames(body)
	if validLen != len(body) {
		return fmt.Errorf("%w at byte %d of %d", errCorruptBody, validLen, len(body))
	}
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	// The applied frames are body[start:end], records lo..hi-1.
	lo, hi, start, end, off := -1, -1, 0, 0, 0
	var err error
	for i, p := range payloads {
		next := off + durable.FrameHeader + len(p)
		var rec *Record
		if rec, err = decodeRecord(p); err != nil {
			break
		}
		var ok bool
		if ok, err = n.rep.Apply(rec); err != nil {
			break
		}
		if ok {
			if lo < 0 {
				lo, start = i, off
			}
			hi, end = i+1, next
		} else if lo >= 0 {
			break
		}
		off = next
	}
	if lo < 0 {
		return err
	}
	applied := n.rep.Applied()
	n.o.recordsApplied(applied)
	// An append error does not fail the apply, but it ends journaling for
	// the life of the process — the segment log refuses every append after a
	// failed one, so the file stays a clean prefix with no record after a
	// hole, and the next boot replays it and pulls the rest. Every record
	// left out is counted and the transition is logged once, because a
	// silently short journal turns the next restart into a long catch-up.
	jerr := n.journalErr
	if jerr == nil {
		jerr = n.journalAppend(applied-(hi-lo)+1, hi-lo, body[start:end])
	}
	if jerr != nil {
		n.o.journalErrors(hi - lo)
		if n.journalErr == nil {
			n.journalErr = jerr
			log.Printf("cluster: node %s: record journal append failed; journaling stops at record %d (replica continues; restart with -join heals the journal): %v",
				n.cfg.NodeID, applied-(hi-lo), jerr)
		}
	}
	return err
}
