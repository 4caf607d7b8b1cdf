// Record framing and the segment log: the one on-disk record-log format
// of the tree. The WAL (wal.go) and the cluster journal (internal/cluster)
// are both thin users of SegmentLog; neither opens, truncates or rotates a
// file of its own. A WAL directory holds:
//
//	wal-%016d.seg   log segments; the number is the 1-based sequence
//	                number of the segment's first record
//	snap-%016d.snap snapshots; the number is the sequence number S of
//	                the last log record the snapshot covers
//
// and a cluster directory holds <node-id>.wal-%016d.seg per member. Every
// record — in segments, snapshots and replication bodies alike — is framed
// as
//
//	[uint32 LE payload length][uint32 LE CRC32-IEEE of payload][payload]
//
// so a reader can skip payloads without decoding and detect torn or
// corrupt tails byte-exactly. A crash can only tear the *last* segment
// (rotation creates a new segment strictly after the previous one is
// fully written and synced), so opening truncates a bad tail there and
// treats framing damage anywhere else as hard corruption.
package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

const (
	// FrameHeader is the length + CRC prefix AppendFrame puts in front of a
	// payload: a frame is FrameHeader+len(payload) bytes.
	FrameHeader = 8
	maxRecord   = 1 << 28 // 256 MiB sanity bound on one payload
)

// AppendFrame wraps payload in the CRC framing and appends it to dst.
// Segment files, snapshot files and the cluster's replication bodies are all
// concatenations of such frames.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// SplitFrames splits b into framed payloads. It returns the payload
// slices (aliasing b) and the byte offset of the first invalid frame
// (len(b) when every byte belongs to a whole frame). The caller decides
// whether a dirty tail is a torn write (truncate) or corruption.
func SplitFrames(b []byte) (payloads [][]byte, validLen int) {
	off := 0
	for {
		if off+FrameHeader > len(b) {
			return payloads, off
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		if n > maxRecord || off+FrameHeader+n > len(b) {
			return payloads, off
		}
		sum := binary.LittleEndian.Uint32(b[off+4:])
		payload := b[off+FrameHeader : off+FrameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, off
		}
		payloads = append(payloads, payload)
		off += FrameHeader + n
	}
}

const (
	segPrefix  = "wal-" // the WAL's segment prefix; SegmentLog takes any
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(prefix string, firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", prefix, firstSeq, segSuffix)
}
func snapName(seq uint64) string { return SnapshotFile(snapPrefix, seq) }

// SnapshotFile is the name of the snapshot covering records 1..seq among the
// snapshot files stored under prefix: "snap-" for the WAL, "<node-id>.snap-"
// for a cluster node.
func SnapshotFile(prefix string, seq uint64) string {
	return fmt.Sprintf("%s%016d%s", prefix, seq, snapSuffix)
}

// parseNumbered extracts the sequence number from a segment or snapshot
// file name.
func parseNumbered(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var n uint64
	if _, err := fmt.Sscanf(mid, "%d", &n); err != nil || len(mid) != 16 {
		return 0, false
	}
	return n, true
}

// listNumbered returns the sequence numbers of all files in dir matching
// prefix/suffix, ascending.
func listNumbered(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n, ok := parseNumbered(e.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// syncDir fsyncs the directory itself so renames and creates survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// DefaultSegmentBytes is the size past which the active segment rotates
// when Options.SegmentBytes is unset.
const DefaultSegmentBytes = 64 << 20

// SegmentLog is a dense, 1-based sequence of framed records stored in
// dir as files named <prefix>%016d.seg. It owns everything about those
// files: scanning and torn-tail truncation at open, positioning the active
// file, rotation at the segment size, retirement and close. Records are
// opaque payloads; callers decide what they encode.
//
// Any number of goroutines may call its methods, but Append calls must
// arrive in sequence order (the WAL's writer goroutine, the cluster
// stamper's group loop and a follower's apply lock each guarantee that).
// The first failed write, fsync or rotation is sticky: every later Append
// and Sync returns it, so nothing is ever written after a hole.
//
// ReadFrames reads records back as the frames they were appended in. Its
// index is built on the first read and kept up by Append from then on, so a
// log nobody reads back — the WAL — holds nothing per record.
type SegmentLog struct {
	dir, prefix string
	segBytes    int64
	noSync      bool

	mu   sync.Mutex
	f    *os.File
	size int64    // bytes in the active segment
	segs []uint64 // first seq of each live segment, ascending; the last is active
	next uint64   // sequence number the next appended record gets
	err  error

	// rd is the read side: assigned under mu and rmu, its contents guarded by
	// rmu alone, so a reader never waits behind a Sync's fsync.
	rmu sync.Mutex
	rd  *frameIndex
}

// frameIndex locates every record of the live segments for ReadFrames.
type frameIndex struct {
	segs  []uint64 // SegmentLog.segs as of the last Append
	first uint64   // sequence number of end[0]
	// end[i] is the offset just past record first+i within its segment; the
	// record starts at end[i-1], or at 0 when it opens its segment.
	end []int64
	// f is a read handle on segment fseg, kept for the next read.
	f      *os.File
	fseg   uint64
	closed bool
}

// OpenSegmentLog opens (creating dir if needed) the segment log stored
// under prefix and returns it positioned after the last complete record,
// together with the payloads of every record on disk in sequence order
// (aliasing the file buffers): payloads[i] is record First()+i. Framing
// damage at the tail of the final segment is a torn write and is truncated
// away, in the file too; damage anywhere else, or a gap or overlap between
// segments, fails the open. When dir holds no segment yet the log starts
// empty at sequence number start. Only Options.SegmentBytes and
// Options.NoSync apply.
func OpenSegmentLog(dir, prefix string, start uint64, opts Options) (*SegmentLog, [][]byte, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	nums, err := listNumbered(dir, prefix, segSuffix)
	if err != nil {
		return nil, nil, err
	}
	l := &SegmentLog{dir: dir, prefix: prefix, segBytes: opts.SegmentBytes, noSync: opts.NoSync, segs: nums, next: start}
	var payloads [][]byte
	for i, n := range nums {
		path := filepath.Join(dir, segName(prefix, n))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		ps, validLen := SplitFrames(b)
		if validLen != len(b) {
			if i != len(nums)-1 {
				return nil, nil, fmt.Errorf("durable: segment %s corrupt at byte %d (not the final segment)", path, validLen)
			}
			// Torn tail on the last segment: a crash interrupted the
			// writer mid-batch. Truncate to the last complete record.
			if err := os.Truncate(path, int64(validLen)); err != nil {
				return nil, nil, fmt.Errorf("durable: truncating torn tail of %s: %w", path, err)
			}
		}
		if i > 0 && n != l.next {
			return nil, nil, fmt.Errorf("durable: segment %s starts at seq %d, want %d (gap or overlap)", path, n, l.next)
		}
		l.next = n + uint64(len(ps))
		payloads = append(payloads, ps...)
	}
	if len(l.segs) == 0 {
		l.segs = []uint64{start}
	}
	active := filepath.Join(dir, segName(prefix, l.segs[len(l.segs)-1]))
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	l.f, l.size = f, info.Size()
	return l, payloads, nil
}

// First returns the sequence number of the oldest record the log still
// holds (or would hold, when it is empty).
func (l *SegmentLog) First() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0]
}

// Next returns the sequence number the next appended record gets.
func (l *SegmentLog) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Segments returns the live segment count.
func (l *SegmentLog) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Append writes n framed records (AppendFrame) whose first sequence number
// is first with one write syscall, rotating beforehand when the active
// segment is full — so a batch never straddles segments. first must be
// Next(): a caller that lost a record cannot write past the hole. The
// records are not durable until Sync returns.
func (l *SegmentLog) Append(first uint64, frames []byte, n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if first != l.next {
		l.err = fmt.Errorf("durable: append of record %d to a log positioned at %d", first, l.next)
		return l.err
	}
	if l.size >= l.segBytes {
		if err := l.rotate(); err != nil {
			l.err = fmt.Errorf("durable: segment rotation: %w", err)
			return l.err
		}
	}
	if _, err := l.f.Write(frames); err != nil {
		l.err = fmt.Errorf("durable: segment write: %w", err)
		return l.err
	}
	if l.rd != nil {
		l.rmu.Lock()
		if active := l.segs[len(l.segs)-1]; l.rd.segs[len(l.rd.segs)-1] != active {
			l.rd.segs = append(l.rd.segs, active) // rotated above
		}
		l.rd.end = AppendFrameEnds(l.rd.end, frames, n, l.size)
		l.rmu.Unlock()
	}
	l.size += int64(len(frames))
	l.next += uint64(n)
	return nil
}

// AppendFrameEnds appends to end the offset just past each of the first n
// frames in b, for b placed at offset base — the index of a buffer of
// concatenated frames.
func AppendFrameEnds(end []int64, b []byte, n int, base int64) []int64 {
	off := 0
	for range n {
		off += FrameHeader + int(binary.LittleEndian.Uint32(b[off:]))
		end = append(end, base+int64(off))
	}
	return end
}

// ReadFrames returns the frames of records from, from+1, … — at most max
// of them, fewer where the log ends — byte for byte as they were appended,
// and how many it returned. Its cost is the bytes it returns: the first call
// indexes the live segments (one sequential scan), and Append keeps the
// index from then on. Records below First are gone and fail the call, as
// does a closed log; a sticky write error does not stop reads of the
// records before it.
func (l *SegmentLog) ReadFrames(from uint64, max int) ([]byte, int, error) {
	ix, err := l.index()
	if err != nil {
		return nil, 0, err
	}
	defer l.rmu.Unlock()
	last := ix.first + uint64(len(ix.end)) // one past the last record
	if from < ix.first {
		return nil, 0, fmt.Errorf("durable: record %d is below the log's first record %d", from, ix.first)
	}
	if max <= 0 || from >= last {
		return nil, 0, nil
	}
	to := min(from+uint64(max), last)
	var out []byte
	for seq := from; seq < to; {
		k := sort.Search(len(ix.segs), func(i int) bool { return ix.segs[i] > seq }) - 1
		stop := to
		if k+1 < len(ix.segs) {
			stop = min(stop, ix.segs[k+1])
		}
		var lo int64
		if seq > ix.segs[k] {
			lo = ix.end[seq-1-ix.first]
		}
		hi := ix.end[stop-1-ix.first]
		f, err := ix.open(l.dir, l.prefix, ix.segs[k])
		if err != nil {
			return nil, 0, err
		}
		n := len(out)
		out = slices.Grow(out, int(hi-lo))[:n+int(hi-lo)]
		if _, err := f.ReadAt(out[n:], lo); err != nil {
			return nil, 0, fmt.Errorf("durable: reading records %d..%d: %w", seq, stop-1, err)
		}
		seq = stop
	}
	return out, int(to - from), nil
}

// index returns the read index with rmu held, building it on first use.
func (l *SegmentLog) index() (*frameIndex, error) {
	l.rmu.Lock()
	if l.rd == nil {
		// Build under mu too, so no Append runs between the scan and the
		// index going live.
		l.rmu.Unlock()
		l.mu.Lock()
		l.rmu.Lock()
		if l.rd == nil {
			rd, err := l.scan()
			if err != nil {
				l.rmu.Unlock()
				l.mu.Unlock()
				return nil, err
			}
			l.rd = rd
		}
		l.mu.Unlock()
	}
	if l.rd.closed {
		l.rmu.Unlock()
		return nil, ErrClosed
	}
	return l.rd, nil
}

// scan indexes the live segments' records by walking their frame headers.
// Callers hold mu.
func (l *SegmentLog) scan() (*frameIndex, error) {
	if l.f == nil {
		return nil, ErrClosed
	}
	rd := &frameIndex{segs: slices.Clone(l.segs), first: l.segs[0]}
	for k, first := range l.segs {
		stop := l.next
		if k+1 < len(l.segs) {
			stop = l.segs[k+1]
		}
		f, err := os.Open(filepath.Join(l.dir, segName(l.prefix, first)))
		if err != nil {
			return nil, err
		}
		r := bufio.NewReader(f)
		var hdr [FrameHeader]byte
		var off int64
		for seq := first; seq < stop && err == nil; seq++ {
			if _, err = io.ReadFull(r, hdr[:]); err == nil {
				n := int(binary.LittleEndian.Uint32(hdr[:]))
				_, err = r.Discard(n)
				off += int64(FrameHeader + n)
				rd.end = append(rd.end, off)
			}
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("durable: indexing segment %d: %w", first, err)
		}
	}
	return rd, nil
}

// open returns a read handle on segment seg, reusing the last one.
func (ix *frameIndex) open(dir, prefix string, seg uint64) (*os.File, error) {
	if ix.f != nil && ix.fseg == seg {
		return ix.f, nil
	}
	f, err := os.Open(filepath.Join(dir, segName(prefix, seg)))
	if err != nil {
		return nil, err
	}
	ix.drop()
	ix.f, ix.fseg = f, seg
	return f, nil
}

// drop closes the kept read handle.
func (ix *frameIndex) drop() {
	if ix.f != nil {
		ix.f.Close()
		ix.f = nil
	}
}

// Sync makes every appended record durable (a no-op with Options.NoSync).
func (l *SegmentLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.noSync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("durable: fsync: %w", err)
	}
	return l.err
}

// rotate closes the active segment and opens a fresh one named after the
// next record. The old segment is synced first — whether or not the caller
// syncs its appends — so a crash can only ever tear the final segment.
func (l *SegmentLog) rotate() error {
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return err
	}
	path := filepath.Join(l.dir, segName(l.prefix, l.next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if !l.noSync {
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.f, l.size = f, 0
	l.segs = append(l.segs, l.next)
	return nil
}

// Rotate closes the active segment and starts the next one at Next(), so the
// records appended so far and the ones to come never share a file: a caller
// that retires by checkpoint (Retire) aligns segments with its checkpoints.
// A still-empty active segment is kept. A failure is sticky, as in Append.
func (l *SegmentLog) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.size == 0 {
		return nil
	}
	if err := l.rotate(); err != nil {
		l.err = fmt.Errorf("durable: segment rotation: %w", err)
	}
	return l.err
}

// Reset removes every segment and restarts the log empty at sequence number
// next, as OpenSegmentLog on an empty directory with start next would: a
// caller that installed a snapshot covering records 1..next-1 from elsewhere
// drops the records it held below it.
func (l *SegmentLog) Reset(next uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	for _, seg := range l.segs {
		os.Remove(filepath.Join(l.dir, segName(l.prefix, seg)))
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.prefix, next)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil && !l.noSync {
		err = syncDir(l.dir)
	}
	if err != nil {
		if f != nil {
			f.Close()
		}
		l.err = fmt.Errorf("durable: segment reset: %w", err)
		return l.err
	}
	l.f, l.size, l.segs, l.next = f, 0, []uint64{next}, next
	if l.rd != nil {
		l.rmu.Lock()
		l.rd.drop()
		l.rd.segs, l.rd.first, l.rd.end = []uint64{next}, next, nil
		l.rmu.Unlock()
	}
	return nil
}

// Retire deletes every segment whose records all fall at or below seq
// (determined by the next segment's first sequence number; the active
// segment is always kept).
func (l *SegmentLog) Retire(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && l.segs[1] <= seq+1 {
		os.Remove(filepath.Join(l.dir, segName(l.prefix, l.segs[0])))
		l.segs = l.segs[1:]
	}
	if l.rd != nil && l.rd.first < l.segs[0] {
		l.rmu.Lock()
		if l.rd.f != nil && l.rd.fseg < l.segs[0] {
			l.rd.drop()
		}
		l.rd.end = slices.Clone(l.rd.end[l.segs[0]-l.rd.first:])
		l.rd.segs, l.rd.first = slices.Clone(l.segs), l.segs[0]
		l.rmu.Unlock()
	}
}

// Close closes the active segment; later appends, syncs and reads fail. It
// does not sync: callers that need the tail durable call Sync first.
func (l *SegmentLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rd != nil {
		l.rmu.Lock()
		l.rd.drop()
		l.rd.closed = true
		l.rmu.Unlock()
	}
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if l.err == nil {
		l.err = ErrClosed
	}
	return err
}
