package wlog

import (
	"reflect"
	"testing"

	"selfheal/internal/data"
)

func mustAppend(t *testing.T, l *Log, e *Entry) {
	t.Helper()
	if _, err := l.Append(e); err != nil {
		t.Fatal(err)
	}
}

func TestFormatInstance(t *testing.T) {
	id := FormatInstance("r1", "t3", 2)
	if id != "r1/t3#2" {
		t.Errorf("id = %s", id)
	}
}

func TestAppendAssignsDenseLSNs(t *testing.T) {
	l := New()
	for i := 1; i <= 5; i++ {
		e := &Entry{Run: "r", Task: "t", Visit: i}
		lsn, err := l.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != i || e.LSN != i {
			t.Errorf("append %d: lsn = %d", i, lsn)
		}
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestAppendRejectsDuplicates(t *testing.T) {
	l := New()
	mustAppend(t, l, &Entry{Run: "r", Task: "t1", Visit: 1})
	if _, err := l.Append(&Entry{Run: "r", Task: "t1", Visit: 1}); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	// Same task, different visit is fine.
	mustAppend(t, l, &Entry{Run: "r", Task: "t1", Visit: 2})
}

func TestTraceAndRuns(t *testing.T) {
	l := New()
	mustAppend(t, l, &Entry{Run: "r1", Task: "t1", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r2", Task: "t7", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r1", Task: "t2", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r1", Task: "evil", Visit: 1, Forged: true})

	tr := l.Trace("r1", false)
	if len(tr) != 2 || tr[0].Task != "t1" || tr[1].Task != "t2" {
		t.Errorf("trace = %v", tr)
	}
	if got := len(l.Trace("r1", true)); got != 3 {
		t.Errorf("trace with forged: %d entries, want 3", got)
	}
	runs := l.Runs()
	if len(runs) != 2 || runs[0] != "r1" || runs[1] != "r2" {
		t.Errorf("runs = %v", runs)
	}
}

func TestSucc(t *testing.T) {
	l := New()
	mustAppend(t, l, &Entry{Run: "r1", Task: "t1", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r2", Task: "t7", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r1", Task: "t2", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r1", Task: "t3", Visit: 1})

	succ := l.Succ(FormatInstance("r1", "t1", 1))
	// succ is within the run's trace only (§II.A): t7 excluded.
	if len(succ) != 2 || !succ[FormatInstance("r1", "t2", 1)] || !succ[FormatInstance("r1", "t3", 1)] {
		t.Errorf("succ = %v", succ)
	}
	if len(l.Succ("r9/tx#1")) != 0 {
		t.Error("succ of unknown instance not empty")
	}
}

func TestPrecedes(t *testing.T) {
	l := New()
	mustAppend(t, l, &Entry{Run: "r1", Task: "t1", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r2", Task: "t7", Visit: 1})

	a := FormatInstance("r1", "t1", 1)
	b := FormatInstance("r2", "t7", 1)
	if !l.Precedes(a, b) {
		t.Error("t1 should precede t7 (cross-workflow precedence, §II.B)")
	}
	if l.Precedes(b, a) {
		t.Error("precedence is asymmetric")
	}
	if l.Precedes(a, "r9/zz#1") {
		t.Error("unknown instance cannot be preceded")
	}
}

func TestEntriesIsCopy(t *testing.T) {
	l := New()
	mustAppend(t, l, &Entry{Run: "r1", Task: "t1", Visit: 1})
	es := l.Entries()
	es[0] = nil
	if got := l.Entries(); got[0] == nil {
		t.Error("Entries exposes internal slice")
	}
}

func TestGet(t *testing.T) {
	l := New()
	e := &Entry{Run: "r1", Task: "t1", Visit: 1}
	mustAppend(t, l, e)
	got, ok := l.Get(e.ID())
	if !ok || got != e {
		t.Error("Get did not return the appended entry")
	}
	if _, ok := l.Get("nope"); ok {
		t.Error("Get on unknown instance reported ok")
	}
}

func TestOnAppendBackfillAndOrder(t *testing.T) {
	l := New()
	mustAppend(t, l, &Entry{Run: "r1", Task: "t1", Visit: 1})
	mustAppend(t, l, &Entry{Run: "r1", Task: "t2", Visit: 1})

	var seen []int
	l.OnAppend(func(e *Entry) { seen = append(seen, e.LSN) })
	// Backfill: existing entries replayed in LSN order at subscription.
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("backfill delivered %v, want [1 2]", seen)
	}
	mustAppend(t, l, &Entry{Run: "r1", Task: "t3", Visit: 1})
	if len(seen) != 3 || seen[2] != 3 {
		t.Fatalf("live append delivered %v, want [1 2 3]", seen)
	}
}

// TestTruncateBeforeEqualsNewAt: truncating a log in place leaves what
// NewAt(lsn) plus the same suffix builds — base, length, lookups, traces and
// run list and per-run spans — whether most of it is dropped or most is kept, and the hooks
// subscribed before keep observing new appends.
func TestTruncateBeforeEqualsNewAt(t *testing.T) {
	entries := func() []*Entry {
		return []*Entry{
			{Run: "r1", Task: "t1", Visit: 1}, {Run: "r2", Task: "t1", Visit: 1},
			{Run: "r1", Task: "t2", Visit: 1}, {Run: "x", Task: "f", Visit: 1, Forged: true},
			{Run: "r3", Task: "t1", Visit: 1}, {Run: "r1", Task: "t3", Visit: 1},
		}
	}
	for _, cut := range []int{1, 3, 5} {
		l := New()
		var hooked []int
		l.OnAppend(func(e *Entry) { hooked = append(hooked, e.LSN) })
		for _, e := range entries() {
			mustAppend(t, l, e)
		}
		l.TruncateBefore(cut)
		l.TruncateBefore(cut - 1) // beneath the base: a no-op

		want := NewAt(cut)
		for _, e := range entries()[cut:] {
			mustAppend(t, want, e)
		}
		if l.Base() != cut || l.Len() != 6 {
			t.Fatalf("cut %d: truncated log base %d length %d, want %d and 6", cut, l.Base(), l.Len(), cut)
		}
		if !reflect.DeepEqual(ids(l.Entries()), ids(want.Entries())) || !reflect.DeepEqual(l.Runs(), want.Runs()) {
			t.Fatalf("cut %d: truncated log holds %v over runs %v, want %v over %v", cut, ids(l.Entries()), l.Runs(), ids(want.Entries()), want.Runs())
		}
		for _, e := range entries() {
			_, got := l.Get(e.ID())
			_, keep := want.Get(e.ID())
			if got != keep {
				t.Errorf("cut %d: Get(%s) = %v, want %v", cut, e.ID(), got, keep)
			}
		}
		for _, run := range []string{"r1", "r2", "r3", "x"} {
			if got, w := ids(l.Trace(run, true)), ids(want.Trace(run, true)); !reflect.DeepEqual(got, w) {
				t.Errorf("cut %d: trace of %s after truncation %v, want %v", cut, run, got, w)
			}
			f, last, ok := l.RunSpan(run)
			wf, wlast, wok := want.RunSpan(run)
			if f != wf || last != wlast || ok != wok {
				t.Errorf("cut %d: span of %s after truncation %d..%d (%v), want %d..%d (%v)", cut, run, f, last, ok, wf, wlast, wok)
			}
		}
		mustAppend(t, l, &Entry{Run: "r2", Task: "t2", Visit: 1})
		if !reflect.DeepEqual(hooked, []int{1, 2, 3, 4, 5, 6, 7}) {
			t.Errorf("cut %d: hook saw LSNs %v, want 1..7", cut, hooked)
		}
	}
}

func ids(es []*Entry) []InstanceID {
	var out []InstanceID
	for _, e := range es {
		out = append(out, e.ID())
	}
	return out
}

func TestOnAppendMultipleHooks(t *testing.T) {
	l := New()
	var a, b int
	l.OnAppend(func(e *Entry) { a++ })
	mustAppend(t, l, &Entry{Run: "r1", Task: "t1", Visit: 1})
	l.OnAppend(func(e *Entry) { b++ })
	mustAppend(t, l, &Entry{Run: "r1", Task: "t2", Visit: 1})
	if a != 2 || b != 2 {
		t.Fatalf("hook call counts a=%d b=%d, want 2 and 2", a, b)
	}
}

// Append is where an entry's key order is checked: a literal with its reads
// and writes out of order is put in order before anything can see it, and
// one that names a key twice is refused — atomically, like a duplicate
// instance.
func TestAppendNormalizesKeyOrder(t *testing.T) {
	l := New()
	var hooked []*Entry
	l.OnAppend(func(e *Entry) { hooked = append(hooked, e) })
	e := &Entry{Run: "r", Task: "t", Visit: 1,
		Reads: []Read{
			{Key: "m", ReadObs: ReadObs{Value: 2, Writer: "w/t#1", WriterPos: 4}},
			{Key: "c", ReadObs: ReadObs{WriterPos: MissingPos}},
			{Key: "x", ReadObs: ReadObs{Value: 9}},
		},
		Writes: []Write{{Key: "z", Value: 1}, {Key: "a", Value: 2}},
	}
	mustAppend(t, l, e)
	wantReads := []Read{
		{Key: "c", ReadObs: ReadObs{WriterPos: MissingPos}},
		{Key: "m", ReadObs: ReadObs{Value: 2, Writer: "w/t#1", WriterPos: 4}},
		{Key: "x", ReadObs: ReadObs{Value: 9}},
	}
	wantWrites := []Write{{Key: "a", Value: 2}, {Key: "z", Value: 1}}
	if !reflect.DeepEqual(hooked[0].Reads, wantReads) || !reflect.DeepEqual(hooked[0].Writes, wantWrites) {
		t.Errorf("appended entry holds reads %+v writes %+v", hooked[0].Reads, hooked[0].Writes)
	}
	if obs, ok := e.Read("m"); !ok || obs.WriterPos != 4 {
		t.Errorf("Read(m) = %+v, %v", obs, ok)
	}
	if _, ok := e.Read("nope"); ok {
		t.Error("Read of a key the entry did not read reported ok")
	}
	if v, ok := e.Wrote("z"); !ok || v != 1 {
		t.Errorf("Wrote(z) = %d, %v", v, ok)
	}
	if _, ok := e.Wrote("m"); ok {
		t.Error("Wrote of a key the entry only read reported ok")
	}

	twice := &Entry{Run: "r", Task: "t", Visit: 3, Writes: []Write{{Key: "k", Value: 1}, {Key: "b", Value: 0}, {Key: "k", Value: 2}}}
	if _, err := l.AppendBatch([]*Entry{{Run: "r", Task: "t", Visit: 2}, twice}); err == nil {
		t.Fatal("an entry writing one key twice was accepted")
	}
	if l.Len() != 1 || len(hooked) != 1 {
		t.Fatalf("a refused batch left %d entries and %d hook calls", l.Len(), len(hooked))
	}
	if _, ok := l.Get("r/t#2"); ok {
		t.Error("the refused batch's first entry stayed indexed")
	}
	if _, err := l.Append(&Entry{Run: "r", Task: "t", Visit: 4, Reads: []Read{{Key: "k"}, {Key: "k"}}}); err == nil {
		t.Error("an entry reading one key twice was accepted")
	}
}

func TestReadsOfWritesOfSort(t *testing.T) {
	if ReadsOf(nil) != nil || WritesOf(map[data.Key]data.Value{}) != nil {
		t.Error("an empty map must give a nil slice")
	}
	reads := ReadsOf(map[data.Key]ReadObs{"b": {Value: 2}, "a": {Value: 1}, "ключ": {Value: 3}, "c": {Value: 4}})
	writes := WritesOf(map[data.Key]data.Value{"b": 2, "a": 1, "ключ": 3, "c": 4})
	for i, k := range []data.Key{"a", "b", "c", "ключ"} {
		if reads[i].Key != k || reads[i].Value != data.Value([]int{1, 2, 4, 3}[i]) || writes[i].Key != k {
			t.Fatalf("ReadsOf = %+v, WritesOf = %+v", reads, writes)
		}
	}
}
