package selfheal_test

import (
	"context"
	"math/rand"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/selfheal"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// TestPropertyRuntimeMidRunRecovery drives the full runtime over random
// single-run workloads: execute a random number of steps, report the attack
// the moment it is committed, let recovery reroute the in-flight run, finish
// normally, and compare with the attack-free twin.
func TestPropertyRuntimeMidRunRecovery(t *testing.T) {
	healed := 0
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		spec, init, target := buildRandomWorkloadFixed(seed)
		attackInst := wlog.FormatInstance("r", target, 1)

		// Clean twin through a bare engine.
		cleanStore := data.NewStore()
		for k, v := range init {
			cleanStore.Init(k, v)
		}
		cleanEng := engine.New(cleanStore, wlog.New())
		cleanRun, err := cleanEng.NewRun("r", spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := cleanEng.RunAll(context.Background(), cleanRun); err != nil {
			t.Fatal(err)
		}

		// Attacked run through the runtime.
		st := data.NewStore()
		for k, v := range init {
			st.Init(k, v)
		}
		sys, err := selfheal.New(selfheal.Config{AlertBuf: 8, RecoveryBuf: 8}, st)
		if err != nil {
			t.Fatal(err)
		}
		writes := append([]data.Key(nil), spec.Task(target).Writes...)
		sys.Engine().AddAttack(engine.Attack{
			Run: "r", Task: target,
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				out := make(map[data.Key]data.Value, len(writes))
				for _, k := range writes {
					out[k] = 4242
				}
				return out
			},
		})
		if err := sys.StartRun("r", spec); err != nil {
			t.Fatal(err)
		}

		// Execute a random prefix, then look for the committed attack.
		prefix := 1 + rng.Intn(12)
		for i := 0; i < prefix; i++ {
			if err := sys.Tick(); err != nil {
				break // idle: run completed early
			}
		}
		if _, committed := sys.Log().Get(attackInst); committed {
			sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{attackInst}})
			if err := sys.DrainRecovery(context.Background(), 50); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if err := sys.RunToCompletion(context.Background(), 500); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Catch-up report in case the attack committed after the prefix.
		if _, committed := sys.Log().Get(attackInst); committed {
			sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{attackInst}})
			if err := sys.DrainRecovery(context.Background(), 50); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			healed++
		}

		if err := recovery.CheckStrictCorrectness(cleanEng.Store(), sys.Store()); err != nil {
			t.Errorf("seed %d (attack %s, prefix %d): %v", seed, attackInst, prefix, err)
		}
	}
	if healed < 30 {
		t.Errorf("only %d/120 seeds exercised recovery (want ≥30); workload generator too tame", healed)
	}
}

// buildRandomWorkloadFixed wraps buildRandomWorkload with correct two-digit
// task naming for small indices.
func buildRandomWorkloadFixed(seed int64) (*wf.Spec, map[data.Key]data.Value, wf.TaskID) {
	rng := rand.New(rand.NewSource(seed))
	cfg := wf.GenConfig{Tasks: 12, Keys: 8, MaxReads: 3, BranchProb: 0.4}
	spec := wf.Generate("w", cfg, rng)
	init := make(map[data.Key]data.Value, cfg.Keys)
	for i := 0; i < cfg.Keys; i++ {
		init[wf.GenKey(i)] = data.Value(rng.Intn(20))
	}
	target := spec.Tasks[rng.Intn(len(spec.Tasks))].ID
	return spec, init, target
}
