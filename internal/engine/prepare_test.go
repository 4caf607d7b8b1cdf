package engine_test

import (
	"context"
	"errors"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/engine"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Prepare+CommitBatch over runs with disjoint keys must produce exactly the
// state and log a serial Step loop produces.
func TestPrepareCommitBatchMatchesSteps(t *testing.T) {
	wf1, wf2 := wf.Fig1Specs()

	ref := engine.New(seedStore(), wlog.New())
	rr1, _ := ref.NewRun("r1", wf1)
	rr2, _ := ref.NewRun("r2", wf2)

	eng := engine.New(seedStore(), wlog.New())
	r1, _ := eng.NewRun("r1", wf1)
	r2, _ := eng.NewRun("r2", wf2)

	// Reference: alternate r1, r2 serially.
	for !rr1.Done() || !rr2.Done() {
		for _, r := range []*engine.Run{rr1, rr2} {
			if !r.Done() {
				if _, err := ref.Step(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Batched: prepare both runs' next steps, group-commit them in the
	// same order the serial loop used.
	for !r1.Done() || !r2.Done() {
		var batch []*engine.Prepared
		for _, r := range []*engine.Run{r1, r2} {
			if r.Done() {
				continue
			}
			p, err := eng.Prepare(r)
			if err != nil {
				t.Fatal(err)
			}
			if p != nil {
				batch = append(batch, p)
			}
		}
		if err := eng.CommitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	if ref.Log().Len() != eng.Log().Len() {
		t.Fatalf("log lengths differ: %d vs %d", ref.Log().Len(), eng.Log().Len())
	}
	for _, e := range ref.Log().Entries() {
		g, ok := eng.Log().Get(e.ID())
		if !ok {
			t.Fatalf("batched log missing %s", e.ID())
		}
		if g.LSN != e.LSN {
			t.Fatalf("%s: LSN %d vs %d", e.ID(), g.LSN, e.LSN)
		}
	}
	if !data.Equal(ref.Store(), eng.Store()) {
		t.Fatalf("stores differ:\n%s", data.Diff(ref.Store(), eng.Store()))
	}
}

func seedStore() *data.Store {
	st := data.NewStore()
	st.Init("e", 0)
	return st
}

// A duplicate instance in a batch must commit nothing and leave the runs'
// frontiers unadvanced (the prepared steps can be retried or discarded).
func TestCommitBatchAtomicOnDuplicate(t *testing.T) {
	wf1, _ := wf.Fig1Specs()
	eng := engine.New(seedStore(), wlog.New())
	r1, _ := eng.NewRun("r1", wf1)

	p1, err := eng.Prepare(r1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Commit(p1); err != nil {
		t.Fatal(err)
	}
	// Re-submitting the same committed entry in a batch must fail whole.
	p2, err := eng.Prepare(r1)
	if err != nil {
		t.Fatal(err)
	}
	before := r1.Current()
	if err := eng.CommitBatch([]*engine.Prepared{p2, p2}); err == nil {
		t.Fatal("want duplicate error")
	}
	if r1.Current() != before {
		t.Fatalf("frontier advanced despite failed batch: %s", r1.Current())
	}
	if err := eng.CommitBatch([]*engine.Prepared{p2}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRunSentinelErrors(t *testing.T) {
	eng := engine.New(data.NewStore(), wlog.New())
	wf1, _ := wf.Fig1Specs()
	if _, err := eng.NewRun("", wf1); !errors.Is(err, engine.ErrBadSpec) {
		t.Fatalf("empty run ID: err = %v, want ErrBadSpec", err)
	}
	bad := &wf.Spec{Name: "bad", Start: "missing", Tasks: map[wf.TaskID]*wf.Task{}}
	if _, err := eng.NewRun("r", bad); !errors.Is(err, engine.ErrBadSpec) {
		t.Fatalf("invalid spec: err = %v, want ErrBadSpec", err)
	}
}

func TestInterleaveHonorsContext(t *testing.T) {
	wf1, _ := wf.Fig1Specs()
	eng := engine.New(seedStore(), wlog.New())
	r1, _ := eng.NewRun("r1", wf1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.RunAll(ctx, r1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r1.Done() {
		t.Fatal("run completed despite cancelled context")
	}
}

// TestStepAllocations bounds the allocations of one committed step —
// Prepare, CommitBatch and the dependence graph's commit hook — for a task
// of the benchmark's widest shape (2 reads, 2 writes). The instance ID is
// formatted once and shared by the log index, the graph and the store, the
// graph holds each edge as one word, and the writer index is one slice: the
// same loop measured 48 allocations before those changes and 21 after. An
// entry's reads and writes as two slices in place of two maps (a header and
// a group each), and a batch's entry list on the stack, make it 18; the
// transient maps wf.Compute takes and returns are most of what is left.
func TestStepAllocations(t *testing.T) {
	spec := &wf.Spec{Name: "loop", Start: "s", Tasks: map[wf.TaskID]*wf.Task{
		"s": {ID: "s", Next: []wf.TaskID{"t"}},
		"t": {ID: "t", Next: []wf.TaskID{"t", "end"}, Reads: []data.Key{"a", "b"}, Writes: []data.Key{"a", "b"},
			Compute: wf.SumCompute(1, "a", "b"),
			Choose:  func(map[data.Key]data.Value) wf.TaskID { return "t" }}, // loops for as long as the test steps it
		"end": {ID: "end"},
	}}
	log := wlog.New()
	deps.NewIncremental(log)
	eng := engine.New(data.NewStore(), log)
	run, err := eng.NewRun("r", spec)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(2000, func() {
		p, err := eng.Prepare(run)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.CommitBatch([]*engine.Prepared{p}); err != nil {
			t.Fatal(err)
		}
	})
	if got > 18 {
		t.Fatalf("one committed step costs %.0f allocations, want at most 18", got)
	}
}
