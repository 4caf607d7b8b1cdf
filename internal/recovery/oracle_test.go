package recovery_test

import (
	"strings"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/recovery"
	"selfheal/internal/scenario"
)

// The tests in this file are mutation tests for the oracles: they inject
// specific violations into otherwise-valid repair results and assert that
// VerifyResult, AuditSchedule and CheckStrictCorrectness actually catch
// them. An oracle that cannot fail proves nothing.

func repairedFig1(t *testing.T) (*scenario.Scenario, *recovery.Result) {
	t.Helper()
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := recovery.Repair(s.Store(), s.Log(), s.Specs, s.Bad, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func requireFinding(t *testing.T, errs []error, substr string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return
		}
	}
	t.Errorf("verifier missed the injected violation (want finding containing %q, got %v)", substr, errs)
}

// TestVerifyCatchesSurvivingUndoneVersion: completeness — a version written
// by an undone instance sneaks back into the store.
func TestVerifyCatchesSurvivingUndoneVersion(t *testing.T) {
	s, res := repairedFig1(t)
	// Resurrect the wrong-path t3's output as if the undo missed it.
	res.Store.Write("c", 42, 5, "r1/t3#1", false)
	errs := recovery.VerifyResult(res, s.Log(), s.Specs)
	requireFinding(t, errs, "undone instance")
}

// TestVerifyCatchesCorruptSurvivingValue: "no incorrect data" — a stored
// version that benign recomputation cannot reproduce.
func TestVerifyCatchesCorruptSurvivingValue(t *testing.T) {
	s, res := repairedFig1(t)
	// Tamper with the repaired value of f (t6's output).
	res.Store.DeleteWrites("r1/t6#1", []data.Key{"f"})
	res.Store.Write("f", -777, 8, "r1/t6#1", true)
	errs := recovery.VerifyResult(res, s.Log(), s.Specs)
	requireFinding(t, errs, "benign recomputation")
}

// TestVerifyCatchesMissingWrite: an instance in the corrected history whose
// declared write vanished.
func TestVerifyCatchesMissingWrite(t *testing.T) {
	s, res := repairedFig1(t)
	res.Store.DeleteWrites("r2/t9#1", []data.Key{"i"}) // kept instance's write removed
	errs := recovery.VerifyResult(res, s.Log(), s.Specs)
	requireFinding(t, errs, "wrote no version")
}

// TestVerifyCatchesUnknownWriter: a version written by something outside the
// corrected history.
func TestVerifyCatchesUnknownWriter(t *testing.T) {
	s, res := repairedFig1(t)
	res.Store.Write("a", 123, 99, "ghost/task#1", false)
	errs := recovery.VerifyResult(res, s.Log(), s.Specs)
	requireFinding(t, errs, "not part of the corrected history")
}

// TestVerifyCatchesSpecViolation: the corrected sequence leaves the workflow
// graph.
func TestVerifyCatchesSpecViolation(t *testing.T) {
	s, res := repairedFig1(t)
	// Corrupt the schedule: pretend t9 ran where t8 should have.
	for i := range res.Schedule {
		if res.Schedule[i].Inst == "r2/t8#1" && res.Schedule[i].Kind != recovery.ActUndo {
			res.Schedule[i].Task = "t9"
		}
	}
	errs := recovery.VerifyResult(res, s.Log(), s.Specs)
	requireFinding(t, errs, "expected")
}

// TestAuditCatchesOrderViolation: a redo moved before its undo.
func TestAuditCatchesOrderViolation(t *testing.T) {
	_, res := repairedFig1(t)
	// Move the first redo action to the front, before all undos.
	for i, a := range res.Schedule {
		if a.Kind == recovery.ActRedo {
			moved := append([]recovery.Action{a}, append(append([]recovery.Action{}, res.Schedule[:i]...), res.Schedule[i+1:]...)...)
			res.Schedule = moved
			break
		}
	}
	errs := recovery.AuditSchedule(res)
	if len(errs) == 0 {
		t.Error("audit missed undo-before-redo violation")
	}
}

// TestAuditCatchesRedoWithoutUndo: a redo for an instance that was never
// undone.
func TestAuditCatchesRedoWithoutUndo(t *testing.T) {
	_, res := repairedFig1(t)
	res.Schedule = append(res.Schedule, recovery.Action{
		Kind: recovery.ActRedo, Inst: "r2/t9#1", Run: "r2", Task: "t9", Visit: 1, Epos: 7,
	})
	errs := recovery.AuditSchedule(res)
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "redo without undo") {
			found = true
		}
	}
	if !found {
		t.Errorf("audit missed redo-without-undo: %v", errs)
	}
}

// TestGoldenCatchesValueDrift: the strict-correctness comparison fails on a
// single drifted value.
func TestGoldenCatchesValueDrift(t *testing.T) {
	clean, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	_, res := repairedFig1(t)
	res.Store.Write("f", 999, 50, "late", false)
	if err := recovery.CheckStrictCorrectness(clean.Store(), res.Store); err == nil {
		t.Error("golden check missed a drifted final value")
	}
	// And a missing key.
	other := data.NewStore()
	other.Init("a", 1)
	if err := recovery.CheckStrictCorrectness(clean.Store(), other); err == nil {
		t.Error("golden check missed missing keys")
	}
}
