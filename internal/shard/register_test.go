package shard

import (
	"errors"
	"fmt"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/wfjson"
)

// TestRefusedRegistrationLeavesNoTrace: a submission refused as a duplicate
// (409) or for a full deferred queue (429) seeds none of the initial values
// its document declares, with or without a WAL — refusals come before the
// registration's commit-pipeline job.
func TestRefusedRegistrationLeavesNoTrace(t *testing.T) {
	for _, durableSvc := range []bool{false, true} {
		name := "memory"
		if durableSvc {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 2}
			var svc *Service
			if durableSvc {
				svc = newDurableSvc(t, t.TempDir(), cfg)
			} else {
				svc = startService(t, cfg)
			}
			// Held shards keep a and b active on one shard each, so a run
			// reading both conflicts across shards.
			svc.exec.gate.PauseAll()
			for _, run := range []string{"a", "b"} {
				if err := svc.SubmitRunSpec(run, durableDoc(run, 2)); err != nil {
					t.Fatal(err)
				}
			}
			dup := durableDoc("a", 2)
			dup.Init = map[string]int64{"ghost": 7}
			if err := svc.SubmitRunSpec("a", dup); !errors.Is(err, engine.ErrRunExists) {
				t.Fatalf("duplicate submission = %v, want ErrRunExists", err)
			}
			cross := func(run string, init map[string]int64) *wfjson.SpecJSON {
				return &wfjson.SpecJSON{Name: run, Start: "t1", Init: init, Tasks: []wfjson.TaskJSON{
					{ID: "t1", Reads: []string{"a.k1", "b.k1"}, Writes: []string{run + ".k1"}, Bias: 1},
				}}
			}
			for i := 0; i < deferMax; i++ {
				run := fmt.Sprintf("c%d", i)
				if err := svc.SubmitRunSpec(run, cross(run, nil)); err != nil {
					t.Fatalf("submission %s within the deferred bound: %v", run, err)
				}
			}
			if err := svc.SubmitRunSpec("d", cross("d", map[string]int64{"phantom": 9})); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submission past a full deferred queue = %v, want ErrQueueFull", err)
			}
			svc.exec.gate.ReleaseAll()
			waitIdle(t, svc)
			for _, k := range []data.Key{"ghost", "phantom"} {
				if v, ok := svc.Store().Get(k); ok {
					t.Errorf("refused submission seeded %s = %d", k, v.Value)
				}
			}
			if _, err := svc.RunInfo("d"); !errors.Is(err, engine.ErrUnknownRun) {
				t.Errorf("refused run d: RunInfo error %v, want ErrUnknownRun", err)
			}
			if n, want := svc.Metrics().RunsSubmitted, 2+deferMax; n != want {
				t.Errorf("%d runs counted submitted, want %d", n, want)
			}
		})
	}
}
