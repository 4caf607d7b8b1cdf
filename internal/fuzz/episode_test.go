package fuzz

import (
	"encoding/json"
	"testing"
	"time"

	"selfheal/internal/shard"
)

func inprocFactory(opts InProcOptions) TargetFactory {
	return func() (Target, error) { return NewInProcTarget(opts) }
}

func runner() *Runner { return &Runner{Timeout: 20 * time.Second} }

// Healthy services must pass every oracle on generated schedules: forges
// corrupt state, alerts trigger repair, and the drained store converges to
// the attack-free execution.
func TestEpisodeHealthyServicePasses(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sch := GenSchedule(seed, DefaultParams())
		rep, err := runner().runOn(inprocFactory(InProcOptions{}), sch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: unexpected violation %s", seed, v)
		}
	}
}

// The triage and strict configurations change interleaving semantics but
// not the soundness claims.
func TestEpisodeHealthyVariantsPass(t *testing.T) {
	for name, opts := range map[string]InProcOptions{
		"triage": {Triage: true},
		"strict": {Strict: true},
	} {
		sch := GenSchedule(7, DefaultParams())
		rep, err := runner().runOn(inprocFactory(opts), sch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s: unexpected violation %s", name, v)
		}
	}
}

// A durable target passes episodes that interleave checkpoints and
// restarts: acknowledged state survives replay and repair still converges.
func TestEpisodeDurableRestartPasses(t *testing.T) {
	p := DefaultParams()
	p.Checkpoints = 1
	p.Restarts = 2
	sch := GenSchedule(11, p)
	factory := func() (Target, error) {
		return NewInProcTarget(InProcOptions{Dir: t.TempDir()})
	}
	rep, err := runner().runOn(factory, sch)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("unexpected violation %s", v)
	}
}

// An in-memory target passes episodes that interleave checkpoints: each one
// forgets the history beneath the head, and later forges are still repaired
// to the attack-free state.
func TestEpisodeMemoryCheckpointPasses(t *testing.T) {
	p := DefaultParams()
	p.Checkpoints = 2
	for _, seed := range []int64{11, 12, 13} {
		sch := GenSchedule(seed, p)
		rep, err := runner().runOn(inprocFactory(InProcOptions{}), sch)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Ops != len(sch.Ops) {
			t.Fatalf("seed %d: %d of %d ops executed", seed, rep.Ops, len(sch.Ops))
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: unexpected violation %s", seed, v)
		}
	}
}

// The mutation smoke: with the skip-repair fault injected, the benign-store
// oracle must fire, and shrinking must produce a smaller schedule that
// still reproduces it — the end-to-end proof the fuzzer can find real
// soundness bugs.
func TestMutationSmokeFindsAndShrinks(t *testing.T) {
	factory := inprocFactory(InProcOptions{Fault: shard.FaultInjection{SkipRepair: true}})
	res, err := runner().Campaign(factory, []int64{1}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("fuzzer missed the injected fault: %d failures", len(res.Failures))
	}
	f := res.Failures[0]
	if f.Violations[0].Oracle != "benign-store" {
		t.Errorf("expected benign-store violation first, got %s", f.Violations[0])
	}
	if f.ShrinkSteps == 0 {
		t.Error("shrinker made no progress on a generated schedule")
	}
	orig := GenSchedule(1, DefaultParams())
	if len(f.Shrunk.Ops) >= len(orig.Ops) {
		t.Errorf("shrunk schedule has %d ops, original %d", len(f.Shrunk.Ops), len(orig.Ops))
	}
	// The shrunk repro still fails the original oracle on a fresh target.
	rep, err := runner().runOn(factory, f.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		found = found || v.Oracle == "benign-store"
	}
	if !found {
		t.Errorf("shrunk repro no longer fails benign-store: %v", rep.Violations)
	}
	// And the fix (no fault) makes the repro pass — the corpus regression
	// contract.
	rep, err = runner().runOn(inprocFactory(InProcOptions{}), f.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Errorf("shrunk repro fails on a healthy service: %v", rep.Violations)
	}
}

// Shrinking is deterministic: the same failing schedule shrinks to the same
// reproducer when the predicate is pure.
func TestShrinkDeterministic(t *testing.T) {
	sch := GenSchedule(5, DefaultParams())
	// A pure structural predicate: "fails" while a forge on run atk0 and at
	// least one submit survive — no service in the loop, so the test is
	// fast and exact.
	pred := func(cand *Schedule) (bool, error) {
		hasForge, hasSubmit := false, false
		for _, op := range cand.Ops {
			hasForge = hasForge || (op.Kind == OpForge && op.Run == "atk0")
			hasSubmit = hasSubmit || op.Kind == OpSubmit
		}
		return hasForge && hasSubmit, nil
	}
	a, stepsA, err := Shrink(sch, pred)
	if err != nil {
		t.Fatal(err)
	}
	b, stepsB, err := Shrink(sch, pred)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) || stepsA != stepsB {
		t.Errorf("shrink not deterministic:\n%s\nvs\n%s", ja, jb)
	}
	if ok, _ := pred(a); !ok {
		t.Error("shrunk schedule no longer satisfies the predicate")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("shrunk schedule invalid: %v", err)
	}
	if len(a.Ops) >= len(sch.Ops) {
		t.Errorf("no reduction: %d ops vs %d", len(a.Ops), len(sch.Ops))
	}
}
