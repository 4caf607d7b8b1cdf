package wlog

import (
	"testing"

	"selfheal/internal/wf"
)

func stamped(stamp float64, run, task string, visit int) StampedEntry {
	return StampedEntry{
		Stamp: stamp,
		Entry: &Entry{
			Run:   run,
			Task:  wf.TaskID(task),
			Visit: visit,
		},
	}
}

func TestMergeSegmentsOrdersByStamp(t *testing.T) {
	segA := []StampedEntry{stamped(1, "r1", "t1", 1), stamped(3, "r1", "t2", 1)}
	segB := []StampedEntry{stamped(2, "r2", "t7", 1), stamped(4, "r2", "t8", 1)}
	merged, err := MergeSegments(segA, segB)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range merged.Entries() {
		got = append(got, string(e.Task))
	}
	want := []string{"t1", "t7", "t2", "t8"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged order %v, want %v", got, want)
		}
	}
	// Dense fresh LSNs.
	for i, e := range merged.Entries() {
		if e.LSN != i+1 {
			t.Errorf("entry %d has LSN %d", i, e.LSN)
		}
	}
}

func TestMergeSegmentsRejectsDuplicateStamps(t *testing.T) {
	segA := []StampedEntry{stamped(1, "r1", "t1", 1)}
	segB := []StampedEntry{stamped(1, "r2", "t7", 1)}
	if _, err := MergeSegments(segA, segB); err == nil {
		t.Fatal("duplicate stamps accepted")
	}
}

func TestMergeSegmentsRejectsNil(t *testing.T) {
	if _, err := MergeSegments([]StampedEntry{{Stamp: 1}}); err == nil {
		t.Fatal("nil entry accepted")
	}
}

func TestMergeSegmentsDoesNotMutateInput(t *testing.T) {
	se := stamped(5, "r1", "t1", 1)
	se.Entry.LSN = 99
	if _, err := MergeSegments([]StampedEntry{se}); err != nil {
		t.Fatal(err)
	}
	if se.Entry.LSN != 99 {
		t.Error("merge mutated the input entry")
	}
}

func TestSegmentByRunRoundTrip(t *testing.T) {
	l := New()
	mustAppend(t, l, &Entry{Run: "r1", Task: "t1", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r2", Task: "t7", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r1", Task: "t2", Visit: 1})

	segs := SegmentByRun(l)
	if len(segs) != 2 || len(segs["r1"]) != 2 || len(segs["r2"]) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	merged, err := MergeSegments(segs["r1"], segs["r2"])
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != l.Len() {
		t.Fatalf("merged %d entries, want %d", merged.Len(), l.Len())
	}
	for i, e := range merged.Entries() {
		o := l.Entries()[i]
		if e.ID() != o.ID() || e.LSN != o.LSN {
			t.Errorf("entry %d: %s/%d != %s/%d", i, e.ID(), e.LSN, o.ID(), o.LSN)
		}
	}
}
