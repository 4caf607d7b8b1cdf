package recovery_test

import (
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/recovery"
	"selfheal/internal/scenario"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// TestPropertySingleRunGolden is the golden-oracle property: for single-run
// workloads (where the clean execution is unique), repairing an attacked
// history must reproduce exactly the state of the attack-free execution of
// the same workload — the strict-correctness criterion of Definition 2.
func TestPropertySingleRunGolden(t *testing.T) {
	cfg := scenario.RandomConfig{
		Runs:    1,
		Gen:     wf.GenConfig{Tasks: 14, Keys: 9, MaxReads: 3, BranchProb: 0.4},
		Attacks: 2,
		Forged:  1,
	}
	for seed := int64(0); seed < 150; seed++ {
		attacked, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clean, err := scenario.Random(seed, cfg, false)
		if err != nil {
			t.Fatalf("seed %d clean: %v", seed, err)
		}
		res, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: repair: %v", seed, err)
		}
		if err := recovery.CheckStrictCorrectness(clean.Store(), res.Store); err != nil {
			t.Errorf("seed %d: %v\nbad=%v undone=%v redone=%v new=%v",
				seed, err, attacked.Bad, res.Undone, res.Redone, res.NewExecuted)
		}
		if errs := recovery.AuditSchedule(res); len(errs) != 0 {
			t.Errorf("seed %d: audit: %v", seed, errs)
		}
	}
}

// TestPropertyMultiRunIntrinsic verifies multi-run workloads (shared keys,
// interleaved commits) with the intrinsic corrected-history checker: a clean
// twin is not a valid oracle there because the interleaving of independent
// runs is not unique, but validity of the corrected history is.
func TestPropertyMultiRunIntrinsic(t *testing.T) {
	cfg := scenario.RandomConfig{
		Runs:    3,
		Gen:     wf.GenConfig{Tasks: 10, Keys: 7, MaxReads: 3, BranchProb: 0.35},
		Attacks: 3,
		Forged:  1,
	}
	for seed := int64(0); seed < 150; seed++ {
		attacked, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: repair: %v", seed, err)
		}
		if errs := recovery.VerifyResult(res, attacked.Log(), attacked.Specs); len(errs) != 0 {
			for _, e := range errs {
				t.Errorf("seed %d: %v", seed, e)
			}
			t.Fatalf("seed %d: corrected history invalid (bad=%v)", seed, attacked.Bad)
		}
		if errs := recovery.AuditSchedule(res); len(errs) != 0 {
			t.Errorf("seed %d: audit: %v", seed, errs)
		}
	}
}

// TestPropertyNoAttackNoChange: reporting nothing on any workload leaves
// the store untouched and produces an empty recovery.
func TestPropertyNoAttackNoChange(t *testing.T) {
	cfg := scenario.DefaultRandomConfig()
	for seed := int64(0); seed < 40; seed++ {
		s, err := scenario.Random(seed, cfg, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := recovery.Repair(s.Store(), s.Log(), s.Specs, nil, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Undone)+len(res.Redone)+len(res.NewExecuted) != 0 {
			t.Errorf("seed %d: no-op repair produced work: %d/%d/%d",
				seed, len(res.Undone), len(res.Redone), len(res.NewExecuted))
		}
		if !data.Equal(s.Store(), res.Store) {
			t.Errorf("seed %d: store changed", seed)
		}
	}
}

// TestPropertyRepairIdempotent: repairing, then reporting the same bad set
// against the original log again, converges to the same store.
func TestPropertyRepairIdempotent(t *testing.T) {
	cfg := scenario.RandomConfig{
		Runs:    1,
		Gen:     wf.GenConfig{Tasks: 12, Keys: 8, MaxReads: 3, BranchProb: 0.4},
		Attacks: 2,
	}
	for seed := int64(0); seed < 40; seed++ {
		attacked, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r1, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: second repair: %v", seed, err)
		}
		if !data.Equal(r1.Store, r2.Store) {
			t.Errorf("seed %d: repair not deterministic:\n%s", seed, data.Diff(r1.Store, r2.Store))
		}
		if len(r1.Undone) != len(r2.Undone) || len(r1.Redone) != len(r2.Redone) {
			t.Errorf("seed %d: undo/redo sets differ across identical repairs", seed)
		}
	}
}

// TestPropertyUndoSupersetOfBad: every reported malicious instance is in the
// final undo set, and the undo set is closed under the log's flow relation.
func TestPropertyUndoSupersetOfBad(t *testing.T) {
	cfg := scenario.DefaultRandomConfig()
	for seed := int64(0); seed < 60; seed++ {
		attacked, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		undone := idSet(res.Undone)
		for _, b := range attacked.Bad {
			if !undone[b] {
				t.Errorf("seed %d: reported bad %s not undone", seed, b)
			}
		}
		// Closure: any logged instance that read a version written by an
		// undone instance must itself be undone.
		for _, e := range attacked.Log().Entries() {
			for _, obs := range e.Reads {
				if obs.Writer != "" && undone[wfInstance(obs.Writer)] && !undone[e.ID()] {
					t.Errorf("seed %d: %s read %s from undone %s but was kept",
						seed, e.ID(), obs.Key, obs.Writer)
				}
			}
		}
	}
}

// wfInstance converts a writer string recorded in a ReadObs back to an
// instance ID.
func wfInstance(writer string) wlog.InstanceID { return wlog.InstanceID(writer) }

// TestPropertyCyclicSingleRunGolden extends the golden-oracle property to
// workflows with guarded cycles: loop counts may differ between attacked
// and corrected executions, exercising the walker's instance insertion,
// surplus-iteration dropping and repositioning generically.
func TestPropertyCyclicSingleRunGolden(t *testing.T) {
	cfg := scenario.RandomConfig{
		Runs: 1,
		Gen: wf.GenConfig{
			Tasks: 12, Keys: 8, MaxReads: 3, BranchProb: 0.35,
			Cycles: 2, CycleBound: 3,
		},
		Attacks: 2,
		Forged:  1,
	}
	for seed := int64(0); seed < 120; seed++ {
		attacked, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clean, err := scenario.Random(seed, cfg, false)
		if err != nil {
			t.Fatalf("seed %d clean: %v", seed, err)
		}
		res, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: repair: %v", seed, err)
		}
		if err := recovery.CheckStrictCorrectness(clean.Store(), res.Store); err != nil {
			t.Errorf("seed %d: %v\nbad=%v undone=%v redone=%v new=%v dropped=%v",
				seed, err, attacked.Bad, res.Undone, res.Redone, res.NewExecuted, res.DroppedNotRedone)
		}
	}
}

// TestPropertyCyclicMultiRunIntrinsic: cyclic workflows interleaved across
// runs, validated with the intrinsic checker.
func TestPropertyCyclicMultiRunIntrinsic(t *testing.T) {
	cfg := scenario.RandomConfig{
		Runs: 2,
		Gen: wf.GenConfig{
			Tasks: 10, Keys: 7, MaxReads: 2, BranchProb: 0.3,
			Cycles: 2, CycleBound: 2,
		},
		Attacks: 2,
	}
	for seed := int64(0); seed < 100; seed++ {
		attacked, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			t.Fatalf("seed %d: repair: %v", seed, err)
		}
		if errs := recovery.VerifyResult(res, attacked.Log(), attacked.Specs); len(errs) != 0 {
			for _, e := range errs {
				t.Errorf("seed %d: %v", seed, e)
			}
			t.Fatalf("seed %d: corrected history invalid (bad=%v)", seed, attacked.Bad)
		}
	}
}
