package privacy_test

import (
	"errors"
	"reflect"
	"testing"

	"selfheal/internal/privacy"
	"selfheal/internal/recovery"
	"selfheal/internal/scenario"
	"selfheal/internal/wf"
)

func TestProjectionValidates(t *testing.T) {
	wf1, wf2 := wf.Fig1Specs()
	for _, s := range []*wf.Spec{wf1, wf2} {
		p := privacy.Project(s)
		if err := p.Validate(); err != nil {
			t.Errorf("projection of %s invalid: %v", s.Name, err)
		}
	}
}

func TestProjectionPreservesStructure(t *testing.T) {
	wf1, _ := wf.Fig1Specs()
	p := privacy.Project(wf1)
	if p.Start != wf1.Start || len(p.Tasks) != len(wf1.Tasks) {
		t.Fatal("projection changed the graph skeleton")
	}
	for i, orig := range wf1.Tasks {
		id, proj := orig.ID, p.Tasks[i]
		if !reflect.DeepEqual(proj.Next, orig.Next) {
			t.Errorf("%s: edges differ", id)
		}
		if !reflect.DeepEqual(proj.Reads, orig.Reads) || !reflect.DeepEqual(proj.Writes, orig.Writes) {
			t.Errorf("%s: read/write sets differ", id)
		}
	}
	// Control dependence — the relation the analysis needs — is intact.
	if !p.ControlDep("t2", "t3") || p.ControlDep("t2", "t6") {
		t.Error("projection broke control dependence")
	}
}

func TestProjectionIsolatedFromOriginal(t *testing.T) {
	wf1, _ := wf.Fig1Specs()
	p := privacy.Project(wf1)
	p.Task("t1").Next[0] = "t6"
	if wf1.Task("t1").Next[0] != "t2" {
		t.Error("projection shares edge slices with the original")
	}
}

// TestAnalysisOnProjection: the full Theorem 1/2 damage assessment over
// dependence-only views matches the assessment over the real specifications.
func TestAnalysisOnProjection(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	full := recovery.Analyze(s.Log(), s.Specs, s.Bad)
	proj := recovery.Analyze(s.Log(), privacy.ProjectAll(s.Specs), s.Bad)

	if !reflect.DeepEqual(full.DefiniteUndo, proj.DefiniteUndo) {
		t.Errorf("undo sets differ: %v vs %v", full.DefiniteUndo, proj.DefiniteUndo)
	}
	if !reflect.DeepEqual(full.DefiniteRedo, proj.DefiniteRedo) {
		t.Errorf("redo sets differ: %v vs %v", full.DefiniteRedo, proj.DefiniteRedo)
	}
	if !reflect.DeepEqual(full.CandidateUndo, proj.CandidateUndo) {
		t.Errorf("candidates differ: %v vs %v", full.CandidateUndo, proj.CandidateUndo)
	}
	if !reflect.DeepEqual(full.Cond4, proj.Cond4) {
		t.Errorf("cond-4 candidates differ: %v vs %v", full.Cond4, proj.Cond4)
	}
	if len(full.Orders) != len(proj.Orders) {
		t.Errorf("order edge counts differ: %d vs %d", len(full.Orders), len(proj.Orders))
	}
}

// TestRepairRefusesProjection: re-execution must not be possible from the
// analysis-only view — the stub panics with ErrOpaque.
func TestRepairRefusesProjection(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("repair over a projection succeeded; bodies leaked")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %v is not an error", r)
		}
		var opaque *privacy.ErrOpaque
		if !errors.As(err, &opaque) {
			t.Fatalf("panic = %v, want *ErrOpaque", err)
		}
	}()
	_, _ = recovery.Repair(s.Store(), s.Log(), privacy.ProjectAll(s.Specs), s.Bad, recovery.Options{})
}
