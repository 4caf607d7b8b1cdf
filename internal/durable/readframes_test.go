package durable

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"selfheal/internal/wlog"
)

// TestReadFrames: a segment log reads its records back as the exact bytes
// they were appended in — any range, across segment boundaries, from an index
// built on first read and extended by later appends, and from a fresh index
// after a reopen — and refuses what it no longer holds.
func TestReadFrames(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenSegmentLog(dir, "n1.wal-", 1, Options{SegmentBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte // frames[i] is record i+1
	appendRecords := func(n int) {
		t.Helper()
		var batch []byte
		for range n {
			f := AppendFrame(nil, clusterPayload(len(frames)+1))
			frames = append(frames, f)
			batch = append(batch, f...)
		}
		if err := l.Append(uint64(len(frames)-n+1), batch, n); err != nil {
			t.Fatal(err)
		}
	}
	check := func(l *SegmentLog, label string) {
		t.Helper()
		for from := 1; from <= len(frames)+1; from++ {
			for max := 0; max <= len(frames)+1; max++ {
				got, n, err := l.ReadFrames(uint64(from), max)
				if err != nil {
					t.Fatalf("%s: ReadFrames(%d, %d): %v", label, from, max, err)
				}
				to := min(from-1+max, len(frames))
				if from > len(frames) {
					to = from - 1
				}
				if want := bytes.Join(frames[from-1:to], nil); n != to-from+1 || !bytes.Equal(got, want) {
					t.Fatalf("%s: ReadFrames(%d, %d) = %d records, %d bytes; want %d records, %d bytes",
						label, from, max, n, len(got), to-from+1, len(want))
				}
			}
		}
	}

	for _, n := range []int{1, 3, 1, 2, 1, 4} {
		appendRecords(n)
	}
	if l.rd != nil {
		t.Fatal("the log indexed its records before anything read them")
	}
	check(l, "first read")
	for _, n := range []int{2, 1, 5} {
		appendRecords(n)
	}
	check(l, "after more appends")
	if l.Segments() < 3 {
		t.Fatalf("the records span %d segments, want ≥3", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadFrames(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrames on a closed log: %v, want ErrClosed", err)
	}

	l, _, err = OpenSegmentLog(dir, "n1.wal-", 1, Options{SegmentBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(l, "after reopen")

	// A sticky write error ends appends, not reads of what came before it.
	if err := l.Append(uint64(len(frames)+2), frames[0], 1); err == nil {
		t.Fatal("append past a hole accepted")
	}
	check(l, "after a failed append")

	l.Retire(uint64(len(frames) / 2))
	first := int(l.First())
	if first == 1 {
		t.Fatal("Retire kept every segment")
	}
	if _, _, err := l.ReadFrames(uint64(first-1), 1); err == nil {
		t.Fatalf("read of retired record %d succeeded", first-1)
	}
	got, n, err := l.ReadFrames(uint64(first), len(frames))
	if want := bytes.Join(frames[first-1:], nil); err != nil || n != len(frames)-first+1 || !bytes.Equal(got, want) {
		t.Fatalf("read after Retire: %d records, %d bytes, %v; want %d records, %d bytes", n, len(got), err, len(frames)-first+1, len(want))
	}
}

// TestReadFramesDuringAppends: readers racing a writer that rotates and
// syncs always get the exact bytes of records already appended (a cluster
// stamper's pushers read while its group loop appends).
func TestReadFramesDuringAppends(t *testing.T) {
	const records = 300
	frames := make([][]byte, records)
	for i := range frames {
		frames[i] = AppendFrame(nil, clusterPayload(i+1))
	}
	l, _, err := OpenSegmentLog(t.TempDir(), "n1.wal-", 1, Options{SegmentBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.ReadFrames(1, 1); err != nil { // the index goes live on an empty log
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done)
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				head := int(l.Next()) - 1
				if head == 0 {
					continue
				}
				from := 1 + (i*7+r*13)%head
				got, n, err := l.ReadFrames(uint64(from), 1+i%40)
				if err != nil {
					t.Error(err)
					return
				}
				if want := bytes.Join(frames[from-1:from-1+n], nil); n == 0 || !bytes.Equal(got, want) {
					t.Errorf("ReadFrames(%d) during appends: %d records, %d bytes; want %d bytes", from, n, len(got), len(want))
					return
				}
			}
		}()
	}
	for seq := 1; seq <= records; {
		n := min(1+seq%3, records-seq+1)
		if err := l.Append(uint64(seq), bytes.Join(frames[seq-1:seq-1+n], nil), n); err != nil {
			t.Fatal(err)
		}
		if seq%5 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		seq += n
	}
	if l.Segments() < 3 {
		t.Fatalf("the records span %d segments, want ≥3", l.Segments())
	}
}

// TestWALKeepsNoReadIndex: the WAL never reads its segments back, so its
// segment log holds nothing per record.
func TestWALKeepsNoReadIndex(t *testing.T) {
	wal, _, err := Open(t.TempDir(), Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	workload(t, wal, wlog.New(), 2, 3)
	if wal.log.rd != nil {
		t.Fatal("the WAL's segment log built a read index")
	}
}
