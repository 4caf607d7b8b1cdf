// The durable write-ahead log: a group-commit writer goroutine over the
// SegmentLog of segment.go.
//
// Committers never touch the disk. They encode records, enqueue the framed
// bytes under the WAL lock (assigning a dense sequence number), and — when
// they need durability — block in Sync until the writer reports their
// sequence number flushed, or publish once Durable covers their LSN. One
// writer goroutine drains the whole pending buffer in one write syscall
// and issues ONE fsync for it, so the fsync cost is amortized across every
// committer whose records landed in the batch (classic WAL group commit).
// Two mechanisms grow batches:
//
//   - absorption: every enqueue during an in-flight fsync lands in the
//     next batch — concurrent committers never fsync twice for one window;
//   - bounded wait: with Options.GroupWait > 0 the writer delays up to
//     that long (skipped once Options.GroupMax records are pending) to let
//     more committers join the batch before paying the fsync.
//
// The entry pipeline rides wlog.Log.OnAppend (AttachLog): entries are
// encoded and enqueued synchronously inside the log's commit hook, so the
// WAL sequence order embeds the LSN order, and control records (spec,
// alert, ack, adopt) are stamped with the highest entry LSN enqueued
// before them.

package durable

import (
	"errors"
	"os"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/obs"
	"selfheal/internal/wlog"
)

// Options configures a WAL.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Default DefaultSegmentBytes (64 MiB).
	SegmentBytes int64
	// GroupWait bounds how long the writer waits for more committers to
	// join a batch before flushing. 0 (the default) flushes immediately:
	// absorption alone provides grouping.
	GroupWait time.Duration
	// GroupMax flushes without waiting once this many records are
	// pending. Default 256.
	GroupMax int
	// NoSync skips every fsync (directory syncs included). Benchmarks
	// and bulk test setup only: a crash may lose or tear acknowledged
	// records.
	NoSync bool
	// ReplayParallel is the worker count of the parallel restore phase.
	// Default GOMAXPROCS; 1 forces the serial reference path.
	ReplayParallel int
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.GroupMax <= 0 {
		o.GroupMax = 256
	}
}

// walObs is the WAL's instrumentation (Observe).
type walObs struct {
	fsyncSeconds  *obs.Histogram
	groupEntries  *obs.Histogram
	appendedBytes *obs.Counter
	segments      *obs.Gauge
	snapshots     *obs.Counter
}

// groupBuckets are the group-size histogram bounds (records per fsync).
var groupBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// WAL is a durable segmented write-ahead log. Safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu   sync.Mutex
	work *sync.Cond // wakes the writer: pending records or close
	done *sync.Cond // broadcast when durableSeq/err advance

	pending  []byte // framed records awaiting write
	nPending int
	seq      uint64 // last assigned sequence number
	lastLSN  int    // highest entry LSN enqueued
	// restoredLSN guards the OnAppend catch-up replay: entries at or
	// below it were already on disk when the WAL opened and must not be
	// re-enqueued.
	restoredLSN int

	durableSeq uint64
	durableLSN int   // highest entry LSN on disk: the durable prefix's end
	err        error // first write/fsync failure; sticky
	closed     bool

	log *SegmentLog // the segment files; appended to by the writer goroutine only

	snapSeq   uint64 // seq covered by the latest snapshot
	snapEpoch int    // entry LSN horizon of the latest snapshot

	replayed  int
	replayDur time.Duration

	writerDone chan struct{}
	o          walObs
}

// ErrClosed is returned by appends and syncs on a closed WAL.
var ErrClosed = errors.New("durable: WAL closed")

// Open opens (creating if needed) the WAL directory, restores the latest
// complete snapshot plus the log suffix (see restore.go), which leaves the
// segment log positioned after the last complete record, and starts the
// group-commit goroutine. The returned State is the fully rebuilt system
// state.
func Open(dir string, opts Options) (*WAL, *State, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	w := &WAL{dir: dir, opts: opts, writerDone: make(chan struct{})}
	w.work = sync.NewCond(&w.mu)
	w.done = sync.NewCond(&w.mu)

	st, err := w.restore()
	if err != nil {
		if w.log != nil {
			w.log.Close()
		}
		return nil, nil, err
	}

	go w.writer()
	return w, st, nil
}

// Observe wires the WAL's instrumentation into reg (catalog in
// docs/OBSERVABILITY.md); replay cost of the just-finished Open is
// recorded immediately.
func (w *WAL) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.o = walObs{
		fsyncSeconds:  reg.Histogram(obs.MWalFsyncSeconds, obs.LatencyBuckets),
		groupEntries:  reg.Histogram(obs.MWalGroupEntries, groupBuckets),
		appendedBytes: reg.Counter(obs.MWalAppendedBytes),
		segments:      reg.Gauge(obs.MWalSegments),
		snapshots:     reg.Counter(obs.MWalSnapshots),
	}
	w.o.segments.Set(int64(w.log.Segments()))
	reg.Sum(obs.MWalReplaySeconds).Add(w.replayDur.Seconds())
	reg.Counter(obs.MWalReplayedRecords).Add(int64(w.replayed))
}

// AttachLog subscribes the WAL to the log's commit hook: every committed
// entry is encoded and enqueued synchronously at commit time, in LSN
// order. Entries already durable at Open time (the hook's catch-up replay
// of the restored log) are skipped.
func (w *WAL) AttachLog(l *wlog.Log) {
	l.OnAppend(func(e *wlog.Entry) {
		w.mu.Lock()
		if e.LSN <= w.restoredLSN {
			w.mu.Unlock()
			return
		}
		w.enqueueLocked(EncodeEntry(nil, e), e.LSN)
		w.mu.Unlock()
	})
}

// enqueueLocked frames payload, assigns the next sequence number and
// queues it for the writer. Callers hold w.mu.
func (w *WAL) enqueueLocked(payload []byte, lsn int) uint64 {
	if w.closed || w.err != nil {
		return w.seq
	}
	w.seq++
	w.pending = AppendFrame(w.pending, payload)
	w.nPending++
	if lsn > w.lastLSN {
		w.lastLSN = lsn
	}
	w.work.Signal()
	return w.seq
}

// AppendSpec logs a run registration: the wfjson spec document plus the
// initial store values actually seeded for it. Not synced; callers that
// must not lose the registration call Sync afterwards.
func (w *WAL) AppendSpec(run string, specJSON []byte, init map[data.Key]data.Value) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	w.enqueueLocked(encodeSpec(nil, w.lastLSN, run, specJSON, init), 0)
	return nil
}

// AppendAlert logs an admitted alert and returns its durable ID (the
// record's own sequence number — unique across restarts). Not synced.
func (w *WAL) AppendAlert(bad []wlog.InstanceID) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	// The alert's ID is the sequence number the record is about to get.
	id := w.seq + 1
	w.enqueueLocked(encodeAlert(nil, w.lastLSN, id, bad), 0)
	return id, nil
}

// AppendAck logs that the repairs for the given alert IDs completed; a
// restart will no longer re-queue them. Not synced — an un-acked alert
// merely re-runs an idempotent repair.
func (w *WAL) AppendAck(ids []uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	w.enqueueLocked(encodeAck(nil, w.lastLSN, ids), 0)
	return nil
}

// AppendAdopt logs a repair installation: the replacement chains of the
// damaged keys (nil chain = key deleted) and the resynced run frontiers.
// Not synced; the repairer syncs after the installation completes.
func (w *WAL) AppendAdopt(fronts []RunFrontier, chains map[data.Key][]data.Version) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	w.enqueueLocked(encodeAdopt(nil, w.lastLSN, fronts, chains), 0)
	return nil
}

// Sync blocks until every record enqueued before the call is on disk
// (write + fsync complete). With NoSync it still waits for the write
// syscall, so file contents match the in-memory state for tests.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	target := w.seq
	w.work.Signal()
	for w.durableSeq < target && w.err == nil && !w.closed {
		w.done.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.durableSeq < target {
		return ErrClosed
	}
	return nil
}

// Durable returns, without waiting, the highest entry LSN on disk and the
// sticky failure (ErrClosed once closed) that stops it from advancing.
func (w *WAL) Durable() (lsn int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil && w.closed {
		return w.durableLSN, ErrClosed
	}
	return w.durableLSN, w.err
}

// Seq returns the sequence number of the last enqueued record.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// LastLSN returns the highest entry LSN enqueued so far.
func (w *WAL) LastLSN() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// EntriesSinceSnapshot returns how many entry LSNs have been enqueued
// beyond the latest snapshot's epoch — the checkpoint trigger input.
func (w *WAL) EntriesSinceSnapshot() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN - w.snapEpoch
}

// SnapshotEpoch returns the entry-LSN horizon of the latest snapshot
// (0 when none exists).
func (w *WAL) SnapshotEpoch() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapEpoch
}

// Replayed reports the boot-time restore cost: how many records were
// replayed past the snapshot and how long the restore took.
func (w *WAL) Replayed() (records int, d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.replayed, w.replayDur
}

// Segments returns the live segment count.
func (w *WAL) Segments() int { return w.log.Segments() }

// Close flushes and syncs all pending records, stops the writer and
// closes the active segment. Further appends and syncs fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.work.Signal()
	w.mu.Unlock()
	<-w.writerDone

	err := w.log.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return err
}

// writer is the group-commit goroutine: it drains the pending buffer,
// writes it in one syscall (the segment log rotates between batches),
// fsyncs once, and broadcasts the new durable sequence number.
func (w *WAL) writer() {
	defer close(w.writerDone)
	for {
		w.mu.Lock()
		for w.nPending == 0 && !w.closed {
			w.work.Wait()
		}
		if w.nPending == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		// Bounded group wait: give concurrent committers a window to
		// join the batch, unless it is already full.
		if w.opts.GroupWait > 0 && w.nPending < w.opts.GroupMax && !w.closed {
			w.mu.Unlock()
			time.Sleep(w.opts.GroupWait)
			w.mu.Lock()
		}
		batch := w.pending
		n := w.nPending
		hi, lsn := w.seq, w.lastLSN
		w.pending = nil
		w.nPending = 0
		w.mu.Unlock()

		err := w.flush(batch, n, hi)

		w.mu.Lock()
		if err != nil {
			if w.err == nil {
				w.err = err
			}
		} else {
			w.durableSeq, w.durableLSN = hi, lsn
		}
		w.done.Broadcast()
		w.mu.Unlock()
		if err != nil {
			// Sticky failure: drain forever so Close still works, but
			// never ack another record.
			w.drainAfterError()
			return
		}
	}
}

// drainAfterError keeps consuming wakeups after a write failure so
// blocked Sync callers and Close return promptly.
func (w *WAL) drainAfterError() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed {
		w.pending = nil
		w.nPending = 0
		w.done.Broadcast()
		w.work.Wait()
	}
	w.done.Broadcast()
}

// flush writes one batch to the segment log and makes it durable.
func (w *WAL) flush(batch []byte, n int, hi uint64) error {
	if err := w.log.Append(hi-uint64(n)+1, batch, n); err != nil {
		return err
	}
	w.o.segments.Set(int64(w.log.Segments()))
	if !w.opts.NoSync {
		start := time.Now()
		if err := w.log.Sync(); err != nil {
			return err
		}
		w.o.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
	w.o.groupEntries.Observe(float64(n))
	w.o.appendedBytes.Add(int64(len(batch)))
	return nil
}
