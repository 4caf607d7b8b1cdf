package deps

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// idMapBytesPerEntry is what this test measured for the graph that kept its
// edges in one container keyed by instance ID, a list per source, rebuilt
// once a quarter of its sources had gone: 138.5 to 150.5 B over five runs
// (linux/amd64, Go 1.24), of which the lowest is kept.
const idMapBytesPerEntry = 138

// TestBytesPerResidentEntry folds a seeded stream shaped like the heal-storm
// workload's — 800 keys, one or two reads and one write per entry — through
// a horizon that trails the head by 12 288 entries and moves every 64, as an
// in-memory service forgets, and weighs the graph: the live heap it adds,
// after a collection, per entry it still holds. It must stay under half of
// the ID-keyed container's figure.
func TestBytesPerResidentEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates every allocation")
	}
	const keys, window, every = 800, 12288, 64
	rng := rand.New(rand.NewSource(11))
	entries := make([]*wlog.Entry, 4*window)
	last := make([]string, keys)
	for i := range entries {
		e := &wlog.Entry{LSN: i + 1, Run: fmt.Sprintf("run-%d", i/4), Task: wf.TaskID(fmt.Sprintf("t%d", i%4)), Visit: 1}
		reads := map[data.Key]wlog.ReadObs{}
		for j := 1 + rng.Intn(2); j > 0; j-- {
			k := rng.Intn(keys)
			reads[data.Key(fmt.Sprintf("k%d", k))] = wlog.ReadObs{Writer: last[k]}
		}
		w := rng.Intn(keys)
		e.Reads = wlog.ReadsOf(reads)
		e.Writes = []wlog.Write{{Key: data.Key(fmt.Sprintf("k%d", w)), Value: data.Value(i)}}
		last[w] = string(e.CacheID())
		entries[i] = e
	}

	before := liveHeap()
	ig := newIncremental(Frontier{})
	for i, e := range entries {
		ig.Append(e)
		if head := i + 1; head%every == 0 && head > window {
			f, err := ig.FrontierAt(head - window)
			if err != nil {
				t.Fatal(err)
			}
			if err := ig.Rebase(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := liveHeap()
	resident := ig.end - ig.base
	perEntry := float64(after-before) / float64(resident)
	runtime.KeepAlive(ig)
	runtime.KeepAlive(entries)
	t.Logf("%.1f B per resident entry (%d resident); the ID-keyed container took %d", perEntry, resident, idMapBytesPerEntry)
	if perEntry > idMapBytesPerEntry/2 {
		t.Fatalf("the graph holds %.1f B per resident entry, more than half of the ID-keyed container's %d", perEntry, idMapBytesPerEntry)
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
