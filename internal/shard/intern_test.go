package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// TestRunsOfOneTenantShareSpecFacts: runs a service compiled through its
// intern table share what they repeat. Two runs of one shape share every
// task's ID, Reads, Writes and Next arrays and their footprint; a third run
// of the same tenant, of another shape, shares every key string.
func TestRunsOfOneTenantShareSpecFacts(t *testing.T) {
	svc := startService(t, Config{Shards: 2})
	cfg := wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: "a0_"}
	shape := func(name string, seed int64) *wfjson.SpecJSON {
		return wfjson.FromBlueprint(wf.GenerateBlueprint(name, cfg, rand.New(rand.NewSource(seed))))
	}
	for _, doc := range []*wfjson.SpecJSON{shape("r1", 1), shape("r2", 1), shape("r3", 2)} {
		if err := svc.SubmitRunSpec(doc.Name, doc); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, svc)
	svc.mu.Lock()
	r1, r2, r3 := svc.m.Spec("r1"), svc.m.Spec("r2"), svc.m.Spec("r3")
	svc.mu.Unlock()

	same := func(what string, a, b unsafe.Pointer) {
		t.Helper()
		if a != b {
			t.Errorf("%s: the two runs hold separate copies", what)
		}
	}
	fa, fb := r1.Footprint(), r2.Footprint()
	same("footprint", unsafe.Pointer(unsafe.SliceData(fa)), unsafe.Pointer(unsafe.SliceData(fb)))
	for i, a := range r1.Tasks {
		id, b := a.ID, r2.Tasks[i]
		same(fmt.Sprintf("task %s ID", id), unsafe.Pointer(unsafe.StringData(string(a.ID))), unsafe.Pointer(unsafe.StringData(string(b.ID))))
		same(fmt.Sprintf("task %s Reads", id), unsafe.Pointer(unsafe.SliceData(a.Reads)), unsafe.Pointer(unsafe.SliceData(b.Reads)))
		same(fmt.Sprintf("task %s Writes", id), unsafe.Pointer(unsafe.SliceData(a.Writes)), unsafe.Pointer(unsafe.SliceData(b.Writes)))
		same(fmt.Sprintf("task %s Next", id), unsafe.Pointer(unsafe.SliceData(a.Next)), unsafe.Pointer(unsafe.SliceData(b.Next)))
	}

	copies := make(map[data.Key]*byte)
	for _, sp := range []*wf.Spec{r1, r2, r3} {
		for _, task := range sp.Tasks {
			for _, k := range append(append([]data.Key(nil), task.Reads...), task.Writes...) {
				p := unsafe.StringData(string(k))
				if q, ok := copies[k]; ok && q != p {
					t.Errorf("key %s: two copies of its string among the tenant's runs", k)
				}
				copies[k] = p
			}
		}
	}
	if len(copies) == 0 || len(copies) > cfg.Keys {
		t.Fatalf("the tenant's runs name %d distinct keys, want 1..%d", len(copies), cfg.Keys)
	}
}

// TestInternedListsSurviveRepairs is the guard on the table's read-only
// contract: an episode of runs, forged tasks with their alerts and repairs
// (and, durable, checkpoints that retain only the live specs) leaves every
// interned list equal to its table entry — no recovery, resync or restore
// path writes into a list every run shares. A durable service whose every
// run a last checkpoint retired keeps an empty table.
func TestInternedListsSurviveRepairs(t *testing.T) {
	for _, mode := range []string{"memory", "durable"} {
		t.Run(mode, func(t *testing.T) {
			var svc *Service
			if mode == "durable" {
				svc = startDurable(t, t.TempDir(), Config{Shards: 2}, durable.Options{NoSync: true})
			} else {
				svc = startService(t, Config{Shards: 2})
			}
			checkpoint := func() {
				t.Helper()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := svc.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(3))
			gen := wf.GenConfig{Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3}
			for op := 0; op < 40; op++ {
				gen.Prefix = fmt.Sprintf("t%d_", rng.Intn(3))
				switch r := rng.Intn(10); {
				case r < 6:
					name := fmt.Sprintf("r%d", op)
					doc := wfjson.FromBlueprint(wf.GenerateBlueprint(name, gen, rng))
					if err := svc.SubmitRunSpec(name, doc); err != nil && !errors.Is(err, ErrQueueFull) {
						t.Fatalf("op %d: %v", op, err)
					}
				case r < 9 || mode == "memory":
					k := gen.PoolKey(rng.Intn(gen.Keys))
					inst, err := svc.InjectForged("intruder", wf.TaskID(fmt.Sprintf("f%d", op)),
						[]data.Key{k}, map[data.Key]data.Value{k: data.Value(-1 - op)})
					if err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					if err := svc.Report([]wlog.InstanceID{inst}); err != nil && !errors.Is(err, ErrQueueFull) {
						t.Fatalf("op %d: %v", op, err)
					}
				default:
					waitIdle(t, svc)
					drainRecovery(t, svc)
					checkpoint()
				}
				if op%8 == 7 {
					waitIdle(t, svc)
					drainRecovery(t, svc)
					if err := svc.m.Tab().Check(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			waitIdle(t, svc)
			drainRecovery(t, svc)
			waitIdle(t, svc)
			m := svc.Metrics()
			if m.UnitsExecuted == 0 || m.Redone+m.Undone == 0 {
				t.Fatalf("the episode repaired nothing (%+v)", m)
			}
			if err := svc.m.Tab().Check(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d repairs, %d undone, %d redone", m.UnitsExecuted, m.Undone, m.Redone)
			if mode == "durable" {
				checkpoint()
				if s, l := svc.m.Tab().Size(); s+l != 0 {
					t.Fatalf("every run is retired, and the table still holds %d strings, %d lists", s, l)
				}
			}
		})
	}
}
