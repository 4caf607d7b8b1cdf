package shard

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// footprintBudget is the live heap the service may retain per committed task
// instance, in bytes: ~15 % above the 1 452 B measured when the budget was set
// (2 056 B while an entry held its reads and writes in two maps and a run its
// visit counters in a third; 2 827 B before the single-copy dependence graph,
// the flat writer index and the shared instance-ID string; EXPERIMENTS.md
// "Live heap per committed instance"). Everything counted here stays resident
// for the whole history — recovery can be asked about any committed instance
// — so this is the slope of the service's memory.
const footprintBudget = 1670

// tombstoneBudget is the live heap a durable service may keep per run a
// checkpoint retired, in bytes: the 24 B tombstone and its 16 B key in a
// slot of the executor's map, the map's spare slots and the ID string come
// to ~100 B measured; the rest is headroom for the map's power-of-two growth
// steps. Nothing else of a retired run — its spec, its document, its entries
// — may survive the checkpoint.
const tombstoneBudget = 160

// TestRunStateSize: every submitted run keeps its runState until a durable
// checkpoint retires it — for the whole history on an in-memory service —
// and 64 B is a size class: one more int moves it to 80 B (+0.46 MB on the
// benchmark's steady-mem). State only one mode reads lives elsewhere: the
// durable executor keeps the retirement LSN of a run not yet durable in its
// undurable FIFO, not in the run's record.
func TestRunStateSize(t *testing.T) {
	if got := unsafe.Sizeof(runState{}); got != 64 {
		t.Fatalf("runState is %d B, want 64", got)
	}
}

// TestTombstoneSize: a tombstone is kept per retired run forever, stored by
// value in the executor's map, so its size is paid per run ever registered.
func TestTombstoneSize(t *testing.T) {
	if got := unsafe.Sizeof(tombstone{}); got != 24 {
		t.Fatalf("tombstone is %d B, want 24", got)
	}
}

// TestResidentHeapBoundedByHorizon is ROADMAP aim 3 for the durable
// service: what a checkpoint covers leaves the heap. N runs of the
// footprint guard's shape are committed and checkpointed, then 10N more and
// checkpointed again; between the two readings the live heap may grow by
// tombstoneBudget per run the second checkpoint retired and by nothing per
// instance beneath its horizon.
func TestResidentHeapBoundedByHorizon(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	const tenants, first, rounds = 16, 12, 11 * 12 // N = 192 runs, then 10N
	docs := make([][]*wfjson.SpecJSON, tenants)
	for i := range docs {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		cfg := wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: fmt.Sprintf("a%d_", i)}
		for j := 0; j < rounds; j++ {
			bp := wf.GenerateBlueprint(fmt.Sprintf("a%d-r%d", i, j), cfg, rng)
			docs[i] = append(docs[i], wfjson.FromBlueprint(bp))
		}
	}
	svc := startDurable(t, t.TempDir(), Config{Shards: 4}, durable.Options{NoSync: true})
	commit := func(from, to int) {
		for j := from; j < to; j++ {
			for i := range docs {
				if err := svc.SubmitRunSpec(docs[i][j].Name, docs[i][j]); err != nil {
					t.Fatal(err)
				}
			}
			waitIdle(t, svc)
		}
		if err := svc.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	commit(0, first)
	before, horizon := liveHeap(), svc.Log().Len()
	commit(first, rounds)
	after := liveHeap()
	runtime.KeepAlive(docs) // live at both readings, so not in the difference

	retired := tenants * (rounds - first)
	instances := svc.Log().Len() - horizon
	growth := float64(after) - float64(before)
	t.Logf("%d more runs, %d instances beneath the horizon: the live heap grew %.0f B, %.0f B per retired run (budget %d)",
		retired, instances, growth, growth/float64(retired), tombstoneBudget)
	if svc.Log().Len() != svc.Log().Base() {
		t.Fatalf("the idle service still holds log entries %d..%d beneath its checkpoint", svc.Log().Base()+1, svc.Log().Len())
	}
	if growth > float64(tombstoneBudget*retired) {
		t.Fatalf("the live heap grew %.0f B over %d retired runs and %d instances beneath the horizon; budget %d B per retired run, 0 per instance",
			growth, retired, instances, tombstoneBudget)
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

// TestFootprintPerInstance is ROADMAP aim 3 ("nothing grows without bound")
// as a test: 2 000 runs of the benchmark's shape (16 sequential tenants over
// private 6-key pools, wf.GenerateBlueprint with 8 tasks) are committed
// through the service, and the heap they leave behind, per committed
// instance, must stay under footprintBudget. On failure the message breaks
// the figure down by rebuilding each history structure on its own.
func TestFootprintPerInstance(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	const tenants, perTenant = 16, 125
	docs := make([][]*wfjson.SpecJSON, tenants)
	for i := range docs {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		cfg := wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: fmt.Sprintf("a%d_", i)}
		for j := 0; j < perTenant; j++ {
			bp := wf.GenerateBlueprint(fmt.Sprintf("a%d-r%d", i, j), cfg, rng)
			docs[i] = append(docs[i], wfjson.FromBlueprint(bp))
		}
	}

	svc := startService(t, Config{Shards: 4})
	before := liveHeap()
	for j := 0; j < perTenant; j++ {
		for i := range docs {
			if err := svc.SubmitRunSpec(docs[i][j].Name, docs[i][j]); err != nil {
				t.Fatal(err)
			}
		}
		waitIdle(t, svc) // a tenant's next run starts after its previous one
	}
	after := liveHeap()
	runtime.KeepAlive(docs) // live at both readings, so not in the difference

	instances := svc.Log().Len()
	per := float64(after-before) / float64(instances)
	t.Logf("%d runs, %d instances: %.0f B of live heap per committed instance (budget %d)",
		tenants*perTenant, instances, per, footprintBudget)
	if per <= footprintBudget {
		return
	}

	// Breakdown: rebuild each structure from the service's final state and
	// charge it the heap its copy occupies.
	measure := func(build func() any) float64 {
		base := liveHeap()
		v := build()
		d := (float64(liveHeap()) - float64(base)) / float64(instances)
		runtime.KeepAlive(v)
		return d
	}
	graphB := measure(func() any { return deps.NewIncremental(svc.Log()) })
	storeB := measure(func() any {
		s, err := data.NewStoreFromChains(svc.Store().ChainsCopy())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	logB := measure(func() any {
		l := wlog.New()
		for _, e := range svc.Log().Entries() {
			cp := &wlog.Entry{Run: e.Run, Task: e.Task, Visit: e.Visit, Forged: e.Forged, Chosen: e.Chosen,
				Reads: slices.Clone(e.Reads), Writes: slices.Clone(e.Writes)}
			if _, err := l.Append(cp); err != nil {
				t.Fatal(err)
			}
		}
		return l
	})
	runsB := measure(func() any {
		eng := engine.New(data.NewStore(), wlog.New())
		var runs []*engine.Run
		for id, rs := range svc.exec.runs { // idle service: nothing else touches the runs
			r, err := eng.RestoreRun(id, rs.run.Spec, rs.run.Current(), rs.run.VisitCounts(), rs.run.Done(), rs.run.Failed())
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, r)
		}
		return runs
	})
	t.Fatalf("live heap per committed instance %.0f B exceeds the budget of %d B\n"+
		"  wlog (entries, read/write slices, indexes) %.0f B\n"+
		"  deps (adjacency, entry list, frontier)     %.0f B\n"+
		"  data (version chains, writer index)        %.0f B\n"+
		"  engine (per-run state: visit counters)     %.0f B\n"+
		"  service (specs, run records) and slack     %.0f B",
		per, footprintBudget, logB, graphB, storeB, runsB, per-logB-graphB-storeB-runsB)
}
