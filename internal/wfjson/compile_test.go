package wfjson

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

// benchShaped returns n wire documents of the end-to-end benchmark's
// workflow shape — 8 tasks over a 6-key tenant-private pool, at most 2 reads
// and 2 writes per task, branch probability 0.3 — spread over 128 tenants
// the way the benchmark spreads its runs, each tenant from its own seeded
// stream.
func benchShaped(n int) []*SpecJSON {
	const tenants = 128
	rngs := make([]*rand.Rand, tenants)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(1_000_003 + i)))
	}
	docs := make([]*SpecJSON, n)
	for i := range docs {
		tenant := i % tenants
		cfg := wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3,
			Prefix: fmt.Sprintf("a%d_", tenant)}
		docs[i] = FromBlueprint(wf.GenerateBlueprint(fmt.Sprintf("a%d-r%d", tenant, i/tenants), cfg, rngs[tenant]))
	}
	return docs
}

// TestCompiledBodyMatchesClosures: a compiled task's body is data, and
// evaluating it writes, key by key, what SumCompute over its bias and write
// list writes, and takes the successor ThresholdChoose over its branch
// picks — for every task of bench-shaped specs, over read values on both
// sides of every threshold. An off-by-one in the per-write index or a
// swapped low/high successor fails it.
func TestCompiledBodyMatchesClosures(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tab := wf.NewInterner()
	checked, branches := 0, 0
	for _, doc := range benchShaped(512) {
		spec, _, err := BuildIn(tab, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, tj := range doc.Tasks {
			task := spec.Task(wf.TaskID(tj.ID))
			if task == nil {
				t.Fatalf("%s: task %s not compiled", doc.Name, tj.ID)
			}
			if task.Compute != nil || task.Choose != nil {
				t.Fatalf("%s: task %s compiled to a closure", doc.Name, tj.ID)
			}
			writes := make([]data.Key, len(tj.Writes))
			for i, k := range tj.Writes {
				writes[i] = data.Key(k)
			}
			compute := wf.SumCompute(data.Value(tj.Bias), writes...)
			var choose wf.ChooseFunc
			if c := tj.Choose; c != nil {
				choose = wf.ThresholdChoose(data.Key(c.Key), data.Value(c.Threshold), wf.TaskID(c.Low), wf.TaskID(c.High))
				branches++
			}
			for trial := 0; trial < 8; trial++ {
				reads := make(map[data.Key]data.Value, len(tj.Reads))
				for _, k := range tj.Reads {
					reads[data.Key(k)] = data.Value(rng.Intn(80) - 20)
				}
				if c := tj.Choose; c != nil && trial < 2 {
					// Straddle the threshold exactly: below, then at it.
					reads[data.Key(c.Key)] = data.Value(c.Threshold) - 1 + data.Value(trial)
				}
				want := compute(reads)
				got := make(map[data.Key]data.Value, len(writes))
				n := 0
				next := task.Eval(reads, func(k data.Key, v data.Value) {
					if k != writes[n] {
						t.Fatalf("%s/%s: write %d is %s, want %s", doc.Name, tj.ID, n, k, writes[n])
					}
					got[k] = v
					n++
				})
				if n != len(writes) {
					t.Fatalf("%s/%s: %d writes, want %d", doc.Name, tj.ID, n, len(writes))
				}
				for k, v := range want {
					if got[k] != v {
						t.Fatalf("%s/%s reads %v: wrote %s=%d, SumCompute writes %d", doc.Name, tj.ID, reads, k, got[k], v)
					}
				}
				var wantNext wf.TaskID
				switch {
				case choose != nil:
					wantNext = choose(reads)
				case len(tj.Next) == 1:
					wantNext = wf.TaskID(tj.Next[0])
				}
				if next != wantNext {
					t.Fatalf("%s/%s reads %v: took %q, want %q", doc.Name, tj.ID, reads, next, wantNext)
				}
				checked++
			}
		}
	}
	if branches == 0 {
		t.Fatal("no compiled task had a threshold branch")
	}
	t.Logf("%d evaluations over %d branching tasks and the rest", checked, branches)
}

// TestBytesPerCompiledSpec bounds the live heap one compiled spec costs: 4 096
// bench-shaped specs compiled through one service's table, held alive, cost
// at most 1 450 B each, the table's growth included. A spec compiled to a
// task map with a closure per body measured about 1 730 B this way; the one
// task array with bodies as fields measures about 1 270 B.
func TestBytesPerCompiledSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	const n = 4096
	docs := benchShaped(n)
	tab := wf.NewInterner()
	specs := make([]*wf.Spec, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, doc := range docs {
		spec, _, err := BuildIn(tab, doc)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(specs)
	runtime.KeepAlive(docs)
	t.Logf("%.0f B per compiled spec (%d specs, one table)", per, n)
	if per > 1450 {
		t.Fatalf("a compiled spec costs %.0f B of live heap, want at most 1450", per)
	}
}
