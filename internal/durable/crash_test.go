package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wlog"
)

// The crash-safety suite of the one segment log. Every case runs over two
// inputs — a WAL directory (spec, entry, alert, ack and adopt records) and
// a cluster journal (kind, seq, origin, entry body: the shape
// internal/cluster writes under the "<node-id>.wal-" prefix) — because both
// reach the disk through SegmentLog and nothing else.

// segInput is one multi-segment log directory under test.
type segInput struct {
	name   string
	prefix string
	build  func(t *testing.T) string
}

// clusterPayload builds a record shaped like a cluster entry record from
// the same exported primitives internal/cluster uses.
func clusterPayload(seq int) []byte {
	e := &wlog.Entry{
		LSN: seq, Run: "m", Task: "t", Visit: seq,
		Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{"a": {Value: data.Value(seq), Writer: "m/t#1", WriterPos: float64(seq - 1)}}),
		Writes: wlog.WritesOf(map[data.Key]data.Value{"a": data.Value(seq + 1), "b": data.Value(-seq)}),
	}
	p := []byte{2}
	p = AppendUvarint(p, uint64(seq))
	p = AppendString(p, fmt.Sprintf("n%d", seq%3+1))
	return AppendEntryBody(p, e)
}

var segInputs = []segInput{
	{"wal", segPrefix, func(t *testing.T) string {
		// 2 runs × 3 steps keeps the byte matrix small enough to sweep
		// exhaustively while still spanning several segments.
		return buildDir(t, Options{SegmentBytes: 300}, 2, 3)
	}},
	{"cluster", "n1.wal-", func(t *testing.T) string {
		dir := t.TempDir()
		l, _, err := OpenSegmentLog(dir, "n1.wal-", 1, Options{SegmentBytes: 150})
		if err != nil {
			t.Fatal(err)
		}
		for seq := 1; seq <= 9; seq++ {
			if err := l.Append(uint64(seq), AppendFrame(nil, clusterPayload(seq)), 1); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}},
}

// forEachSegInput runs fn once per input on a freshly built directory that
// must span at least three segments.
func forEachSegInput(t *testing.T, fn func(t *testing.T, in segInput, dir string, nums []uint64)) {
	for _, in := range segInputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			dir := in.build(t)
			nums, err := listNumbered(dir, in.prefix, segSuffix)
			if err != nil {
				t.Fatal(err)
			}
			if len(nums) < 3 {
				t.Fatalf("need ≥3 segments, got %d", len(nums))
			}
			fn(t, in, dir, nums)
		})
	}
}

// readLog opens the log in dir, copies out its payloads and closes it.
func readLog(t testing.TB, dir, prefix string) (first uint64, payloads [][]byte) {
	t.Helper()
	l, ps, err := OpenSegmentLog(dir, prefix, 1, Options{})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	defer l.Close()
	if got, want := l.Next(), l.First()+uint64(len(ps)); got != want {
		t.Fatalf("log positioned at %d, want %d", got, want)
	}
	for _, p := range ps {
		payloads = append(payloads, append([]byte(nil), p...))
	}
	return l.First(), payloads
}

func mustEqualPayloads(t testing.TB, want, got [][]byte, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("%s: record %d differs", label, i)
		}
	}
}

// finalSegment returns the name and contents of a directory's
// highest-numbered WAL segment.
func finalSegment(t testing.TB, dir string) (string, []byte) {
	t.Helper()
	nums, err := listNumbered(dir, segPrefix, segSuffix)
	if err != nil || len(nums) == 0 {
		t.Fatalf("listing segments in %s: %v (%d found)", dir, err, len(nums))
	}
	name := segName(segPrefix, nums[len(nums)-1])
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return name, b
}

// truncatedCopy clones dir and truncates the named segment to n bytes.
func truncatedCopy(t testing.TB, dir, segname string, n int) string {
	t.Helper()
	cp := copyDir(t, dir)
	if err := os.Truncate(filepath.Join(cp, segname), int64(n)); err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestTornTailMatrix is the crash-safety exhaustion: the final segment cut
// at EVERY byte offset must open to exactly the longest record-complete
// prefix — a torn tail never loses an acknowledged record before it and
// never invents a partial one after it — with the file repaired in place,
// and a writer that resumes there must produce a log that reopens to the
// prefix plus the new record.
func TestTornTailMatrix(t *testing.T) {
	forEachSegInput(t, func(t *testing.T, in segInput, dir string, nums []uint64) {
		_, all := readLog(t, copyDir(t, dir), in.prefix)
		segname := segName(in.prefix, nums[len(nums)-1])
		seg, err := os.ReadFile(filepath.Join(dir, segname))
		if err != nil {
			t.Fatal(err)
		}
		tail, valid := SplitFrames(seg)
		if valid != len(seg) || len(tail) == 0 {
			t.Fatalf("final segment not frame-clean (%d of %d bytes, %d records)", valid, len(seg), len(tail))
		}
		// Record boundaries of the final segment (byte offsets after each
		// complete frame) and how many records of the whole log survive a
		// cut there.
		before := len(all) - len(tail)
		boundaries := []int{0}
		for _, p := range tail {
			boundaries = append(boundaries, boundaries[len(boundaries)-1]+FrameHeader+len(p))
		}
		extra := []byte("resumed")
		for n := 0; n <= len(seg); n++ {
			whole := 0
			for i, b := range boundaries {
				if b <= n {
					whole = i
				}
			}
			label := fmt.Sprintf("tail cut at byte %d", n)
			cp := truncatedCopy(t, dir, segname, n)
			l, ps, err := OpenSegmentLog(cp, in.prefix, 1, Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			mustEqualPayloads(t, all[:before+whole], ps, label)
			if info, err := os.Stat(filepath.Join(cp, segname)); err != nil {
				t.Fatal(err)
			} else if int(info.Size()) != boundaries[whole] {
				t.Fatalf("%s: segment truncated to %d, want boundary %d", label, info.Size(), boundaries[whole])
			}
			if err := l.Append(l.Next(), AppendFrame(nil, extra), 1); err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			if err := l.Sync(); err != nil {
				t.Fatalf("%s: resume sync: %v", label, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, resumed := readLog(t, cp, in.prefix)
			mustEqualPayloads(t, append(all[:before+whole:before+whole], extra), resumed, label+", resumed")
		}
	})
}

// TestCorruptTailBitFlip flips one byte inside the final record's payload:
// the CRC must catch it and the open must fall back to the preceding
// boundary rather than deliver the damaged record.
func TestCorruptTailBitFlip(t *testing.T) {
	forEachSegInput(t, func(t *testing.T, in segInput, dir string, nums []uint64) {
		_, all := readLog(t, copyDir(t, dir), in.prefix)
		cp := copyDir(t, dir)
		path := filepath.Join(cp, segName(in.prefix, nums[len(nums)-1]))
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seg[len(seg)-1] ^= 0xff
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got := readLog(t, cp, in.prefix)
		mustEqualPayloads(t, all[:len(all)-1], got, "bit flip in final record")
	})
}

// TestCorruptionInNonFinalSegmentRefuses: framing damage anywhere but the
// final segment cannot be a torn write (rotation syncs before creating the
// successor) and must be reported as hard corruption, not repaired over —
// and so must a missing middle segment.
func TestCorruptionInNonFinalSegmentRefuses(t *testing.T) {
	forEachSegInput(t, func(t *testing.T, in segInput, dir string, nums []uint64) {
		for i := range nums[:len(nums)-1] {
			cp := copyDir(t, dir)
			path := filepath.Join(cp, segName(in.prefix, nums[i]))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if l, _, err := OpenSegmentLog(cp, in.prefix, 1, Options{}); err == nil {
				l.Close()
				t.Fatalf("corrupt segment %d of %d opened without error", i+1, len(nums))
			}
		}
		cp := copyDir(t, dir)
		if err := os.Remove(filepath.Join(cp, segName(in.prefix, nums[1]))); err != nil {
			t.Fatal(err)
		}
		if l, _, err := OpenSegmentLog(cp, in.prefix, 1, Options{}); err == nil {
			l.Close()
			t.Fatal("log with a missing middle segment opened without error")
		}
	})
}

// TestSegmentLogRefusesHoles: an append that is not at Next(), and every
// append after a failure, is refused — nothing is ever written past a hole.
func TestSegmentLogRefusesHoles(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenSegmentLog(dir, "j-", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	frame := AppendFrame(nil, []byte("x"))
	if err := l.Append(1, frame, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(3, frame, 1); err == nil {
		t.Fatal("append of record 3 at position 2 accepted")
	}
	if err := l.Append(2, frame, 1); err == nil {
		t.Fatal("append after a refused one accepted: the failure is not sticky")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync after a refused append reported success")
	}
	l.Close()
	if _, got := readLog(t, dir, "j-"); len(got) != 1 {
		t.Fatalf("log holds %d records, want 1", len(got))
	}
}

// TestWALRefusesCorruptNonFinalSegment: the WAL surfaces the segment log's
// refusal instead of restoring over it.
func TestWALRefusesCorruptNonFinalSegment(t *testing.T) {
	dir := buildDir(t, Options{SegmentBytes: 300}, 2, 3)
	nums, err := listNumbered(dir, segPrefix, segSuffix)
	if err != nil || len(nums) < 2 {
		t.Fatalf("need ≥2 segments, got %d (%v)", len(nums), err)
	}
	first := filepath.Join(dir, segName(segPrefix, nums[0]))
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt non-final segment restored without error")
	}
}

// TestTornTailWithGarbage covers the messier crash shape at the WAL level:
// the tail bytes are not a clean cut but garbage (a partially persisted
// frame whose CRC cannot match), and what Open recovers must equal the
// clean directory's (the state both boot to: internal/shard's
// TestBootAfterTornTail).
func TestTornTailWithGarbage(t *testing.T) {
	dir := buildDir(t, Options{}, 2, 3)
	segname, seg := finalSegment(t, dir)
	want := recovered(t, copyDir(t, dir))

	cp := copyDir(t, dir)
	garbage := append(append([]byte(nil), seg...), 0xde, 0xad, 0xbe, 0xef, 0x01)
	if err := os.WriteFile(filepath.Join(cp, segname), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	mustEqualStates(t, want, recovered(t, cp), "garbage tail")
}

// TestAppendAfterTornTailRestore: a process that crashes mid-batch, then
// restarts and keeps committing, must produce a directory that recovers the
// truncated prefix plus the new records — the matrix's "resume" leg through
// the full WAL. (The store it boots to: internal/shard's
// TestBootAfterTornTail.)
func TestAppendAfterTornTailRestore(t *testing.T) {
	dir := buildDir(t, Options{}, 2, 3)
	segname, seg := finalSegment(t, dir)
	// Tear half the final record off.
	payloads, _ := SplitFrames(seg)
	lastStart := len(seg) - FrameHeader - len(payloads[len(payloads)-1])
	cut := lastStart + (len(seg)-lastStart)/2
	cp := truncatedCopy(t, dir, segname, cut)

	wal, st, err := Open(cp, Options{})
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	workload(t, wal, wlog.New(), 0, 0) // appends only the alert/ack/adopt block
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := recovered(t, cp)
	if len(st2.Alerts) != len(st.Alerts)+1 {
		t.Errorf("restored %d pending alerts, want %d", len(st2.Alerts), len(st.Alerts)+1)
	}
	// The torn record was the adopt: the resumed block logs it again, after
	// every record the tear left.
	if n := len(st2.Records); n != len(st.Records)+1 || st2.Records[n-1].Adopt == nil {
		t.Errorf("recovered %d records ending in %+v, want the %d before the tear and the resumed adopt", n, st2.Records[n-1], len(st.Records))
	}
}
