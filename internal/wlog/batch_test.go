package wlog

import (
	"fmt"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

func batchEntry(run string, task string, visit int) *Entry {
	return &Entry{
		Run:   run,
		Task:  wf.TaskID("t" + task),
		Visit: visit,
		Writes: WritesOf(map[data.Key]data.Value{
			data.Key("k" + task): data.Value(visit),
		}),
	}
}

// AppendBatch must be observationally identical to a series of single
// Appends: same LSNs, same hook sequence, same indexes.
func TestAppendBatchMatchesSingleAppends(t *testing.T) {
	single := New()
	batched := New()
	var singleSeen, batchSeen []string
	single.OnAppend(func(e *Entry) { singleSeen = append(singleSeen, fmt.Sprintf("%s@%d", e.ID(), e.LSN)) })
	batched.OnAppend(func(e *Entry) { batchSeen = append(batchSeen, fmt.Sprintf("%s@%d", e.ID(), e.LSN)) })

	mk := func() []*Entry {
		return []*Entry{
			batchEntry("r1", "a", 1),
			batchEntry("r2", "b", 1),
			batchEntry("r1", "c", 1),
		}
	}
	for _, e := range mk() {
		if _, err := single.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	first, err := batched.AppendBatch(mk())
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first LSN = %d, want 1", first)
	}
	if len(singleSeen) != len(batchSeen) {
		t.Fatalf("hook sequences differ: %v vs %v", singleSeen, batchSeen)
	}
	for i := range singleSeen {
		if singleSeen[i] != batchSeen[i] {
			t.Fatalf("hook %d: %s vs %s", i, singleSeen[i], batchSeen[i])
		}
	}
	if single.Len() != batched.Len() {
		t.Fatalf("lengths differ: %d vs %d", single.Len(), batched.Len())
	}
	for _, e := range single.Entries() {
		b, ok := batched.Get(e.ID())
		if !ok || b.LSN != e.LSN {
			t.Fatalf("entry %s: batched LSN %v, want %d", e.ID(), b, e.LSN)
		}
	}
	if got := batched.Trace("r1", true); len(got) != 2 || got[0].LSN != 1 || got[1].LSN != 3 {
		t.Fatalf("per-run index wrong after batch: %v", got)
	}
}

// A duplicate anywhere in the batch must reject the whole batch atomically.
func TestAppendBatchAtomicOnDuplicate(t *testing.T) {
	l := New()
	if _, err := l.Append(batchEntry("r1", "a", 1)); err != nil {
		t.Fatal(err)
	}
	hooks := 0
	l.OnAppend(func(*Entry) { hooks++ })
	hooks = 0 // catch-up replay of the existing entry does not count

	// Duplicate against a committed entry.
	_, err := l.AppendBatch([]*Entry{batchEntry("r1", "b", 1), batchEntry("r1", "a", 1)})
	if err == nil {
		t.Fatal("want duplicate error")
	}
	// Duplicate within the batch itself.
	_, err = l.AppendBatch([]*Entry{batchEntry("r1", "c", 1), batchEntry("r1", "c", 1)})
	if err == nil {
		t.Fatal("want intra-batch duplicate error")
	}
	if l.Len() != 1 {
		t.Fatalf("failed batches must append nothing; log has %d entries", l.Len())
	}
	if hooks != 0 {
		t.Fatalf("failed batches must not fire hooks; fired %d", hooks)
	}
	if first, err := l.AppendBatch(nil); err != nil || first != 0 {
		t.Fatalf("empty batch = (%d, %v), want (0, nil)", first, err)
	}
}
