package wlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"selfheal/internal/wf"
)

// TestLookupsMatchIDMap drives a seeded stream of batches and truncations
// through a log and, beside it, through the instance-ID map a log could
// keep: Get, Precedes, Succ and AppendBatch's duplicate refusals must agree
// with the map at every step. The stream holds standalone forges (Run ""),
// a run whose ID holds a '/' ("a/b", whose "a/b/t0#1" formats like run "a"'s
// task "b/t0"), a cyclic run of many visits, and batches refused for a
// duplicate of a committed entry or of one of their own, after which the log
// is unchanged. TruncateBefore runs on both of its branches.
func TestLookupsMatchIDMap(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	l := New()
	oracle := map[InstanceID]*Entry{}
	var queries []InstanceID // every ID ever formed, committed or not
	loop := 0                // the cyclic run's last visit
	fresh := func() *Entry {
		var e *Entry
		switch rng.Intn(6) {
		case 0:
			e = &Entry{Run: "", Task: wf.TaskID("f" + strconv.Itoa(rng.Intn(40))), Visit: 1, Forged: true}
		case 1:
			e = &Entry{Run: "a/b", Task: wf.TaskID("t" + strconv.Itoa(rng.Intn(2))), Visit: 1 + rng.Intn(3)}
		case 2:
			e = &Entry{Run: "a", Task: wf.TaskID("b/t" + strconv.Itoa(rng.Intn(2))), Visit: 1 + rng.Intn(3)}
		case 3:
			loop++
			e = &Entry{Run: "loop", Task: wf.TaskID("t" + strconv.Itoa(loop%3)), Visit: 1 + loop/3}
		default:
			e = &Entry{Run: "r" + strconv.Itoa(rng.Intn(30)), Task: wf.TaskID("t" + strconv.Itoa(rng.Intn(8))), Visit: 1 + rng.Intn(2), Forged: rng.Intn(8) == 0}
		}
		queries = append(queries, e.ID())
		return e
	}
	refused, across, branches := 0, 0, map[bool]int{}
	for step := 0; step < 3000; step++ {
		if step%97 == 96 {
			// Mostly the keeping branch; every third cut drops most of
			// what is resident (the rebuilding branch).
			resident := l.Len() - l.Base()
			n := 1 + rng.Intn(max(1, resident/3))
			if step%3 == 0 {
				n = resident - rng.Intn(max(1, resident/3))
			}
			branches[resident-n < n]++
			l.TruncateBefore(l.Base() + n)
			for id, e := range oracle {
				if e.LSN <= l.Base() {
					delete(oracle, id)
				}
			}
		} else {
			batch := make([]*Entry, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = fresh()
			}
			if rng.Intn(10) == 0 {
				// A repeat of an earlier entry of the batch, as a new
				// literal with the same instance ID.
				i := rng.Intn(len(batch))
				e := batch[rng.Intn(i+1)]
				batch[i] = &Entry{Run: e.Run, Task: e.Task, Visit: e.Visit}
				batch = append(batch, &Entry{Run: e.Run, Task: e.Task, Visit: e.Visit})
			}
			want := false
			seen := map[InstanceID]bool{}
			for _, e := range batch {
				want = want || oracle[e.ID()] != nil || seen[e.ID()]
				seen[e.ID()] = true
				if o := oracle[e.ID()]; o != nil && o.Run != e.Run {
					across++ // run "a/b"'s task "t0" against run "a"'s "b/t0"
				}
			}
			before, runs := ids(l.Entries()), l.Runs()
			_, err := l.AppendBatch(batch)
			if (err != nil) != want {
				t.Fatalf("step %d: batch %v refused = %v, the ID map says %v", step, ids(batch), err, want)
			}
			if err != nil {
				refused++
				if !reflect.DeepEqual(ids(l.Entries()), before) || !reflect.DeepEqual(l.Runs(), runs) {
					t.Fatalf("step %d: a refused batch changed the log: runs %v, want %v", step, l.Runs(), runs)
				}
			} else {
				for _, e := range batch {
					oracle[e.ID()] = e
				}
			}
		}
		checkLookups(t, step, l, oracle, queries, rng)
	}
	if refused == 0 || across == 0 || branches[true] == 0 || branches[false] == 0 || loop < 400 {
		t.Fatalf("the stream missed a case: %d refused batches (%d across runs), truncations by branch %v, %d cyclic visits", refused, across, branches, loop)
	}
}

func checkLookups(t *testing.T, step int, l *Log, oracle map[InstanceID]*Entry, queries []InstanceID, rng *rand.Rand) {
	t.Helper()
	pick := func() InstanceID {
		switch rng.Intn(8) {
		case 0:
			return []InstanceID{"", "#", "/", "a/", "/#1", "a/b/#1", "loop/t1", "loop/t1#x", "r1/t1#01"}[rng.Intn(9)]
		default:
			return queries[rng.Intn(len(queries))]
		}
	}
	for i := 0; i < 8; i++ {
		a, b := pick(), pick()
		if got, ok := l.Get(a); got != oracle[a] || ok != (oracle[a] != nil) {
			t.Fatalf("step %d: Get(%q) = %v, %v; the ID map holds %v", step, a, got, ok, oracle[a])
		}
		ea, eb := oracle[a], oracle[b]
		if got, want := l.Precedes(a, b), ea != nil && eb != nil && ea.LSN < eb.LSN; got != want {
			t.Fatalf("step %d: Precedes(%q, %q) = %v, want %v", step, a, b, got, want)
		}
		want := map[InstanceID]bool{}
		for id, s := range oracle {
			if ea != nil && s.Run == ea.Run && s.LSN > ea.LSN && !s.Forged {
				want[id] = true
			}
		}
		if got := l.Succ(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Succ(%q) = %v, want %v", step, a, got, want)
		}
	}
}

// TestIndexBytesPerResidentEntry weighs the log's own structures — its
// entry slice and its run index — per resident entry, with the entries
// themselves allocated beforehand and kept alive outside. The stream has the
// benchmark's shape (runs of 8 tasks, committed in batches) and goes through
// a horizon that trails the head by 12 288 entries and moves every 64, as an
// in-memory service forgets. With an instance-ID map beside the run index
// the figure was 106 B; the run index alone stays under 48 (35 measured).
func TestIndexBytesPerResidentEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	const window, every, batch = 12288, 64, 16
	entries := make([]*Entry, 4*window)
	for i := range entries {
		entries[i] = &Entry{Run: fmt.Sprintf("run-%d", i/8), Task: wf.TaskID(fmt.Sprintf("t%d", i%8)), Visit: 1}
		entries[i].CacheID()
	}

	before := liveHeap()
	l := New()
	for i := 0; i < len(entries); i += batch {
		if _, err := l.AppendBatch(entries[i : i+batch]); err != nil {
			t.Fatal(err)
		}
		if head := l.Len(); head%every == 0 && head > window {
			l.TruncateBefore(head - window)
		}
	}
	after := liveHeap()
	resident := l.Len() - l.Base()
	perEntry := float64(after-before) / float64(resident)
	runtime.KeepAlive(l)
	runtime.KeepAlive(entries)
	t.Logf("%.1f B per resident entry (%d resident)", perEntry, resident)
	if perEntry > 48 {
		t.Fatalf("the log's indexes hold %.1f B per resident entry, want at most 48", perEntry)
	}
}

// liveHeap returns HeapAlloc after two forced collections (the second one
// finishes what the first one's sweep left).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkGet looks up every instance of a log in turn. "runs-of-8" is the
// benchmark's shape (every bench/ workload: 8-task specs, no cycles);
// "cyclic-1000" is the worst case of a lookup through the run, one run of
// two tasks looped 1 000 times (2 000 entries).
func BenchmarkGet(b *testing.B) {
	for _, shape := range []struct {
		name        string
		runs, tasks int
		visits      int
	}{{"runs-of-8", 256, 8, 1}, {"cyclic-1000", 1, 2, 1000}} {
		b.Run(shape.name, func(b *testing.B) {
			l := New()
			var all []InstanceID
			for r := 0; r < shape.runs; r++ {
				for v := 1; v <= shape.visits; v++ {
					for k := 0; k < shape.tasks; k++ {
						e := &Entry{Run: fmt.Sprintf("run-%d", r), Task: wf.TaskID(fmt.Sprintf("t%d", k)), Visit: v}
						if _, err := l.Append(e); err != nil {
							b.Fatal(err)
						}
						all = append(all, e.ID())
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := l.Get(all[i%len(all)]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
