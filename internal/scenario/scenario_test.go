package scenario

import (
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

func TestFig1AttackedVsClean(t *testing.T) {
	attacked, err := Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	if attacked.Log().Len() != 9 {
		t.Errorf("attacked log %d entries, want 9 (L1)", attacked.Log().Len())
	}
	if clean.Log().Len() != 8 {
		t.Errorf("clean log %d entries, want 8", clean.Log().Len())
	}
	if len(attacked.Bad) != 1 || attacked.Bad[0] != "r1/t1#1" {
		t.Errorf("bad = %v", attacked.Bad)
	}
	if len(clean.Bad) != 0 {
		t.Errorf("clean scenario reports attacks: %v", clean.Bad)
	}
	if data.Equal(attacked.Store(), clean.Store()) {
		t.Error("attack left no trace in the store")
	}
	if len(attacked.Specs) != 2 {
		t.Errorf("specs = %v", attacked.Specs)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	cfg := DefaultRandomConfig()
	a, err := Random(5, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(5, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Log().Len() != b.Log().Len() {
		t.Fatal("same seed produced different logs")
	}
	ea, eb := a.Log().Entries(), b.Log().Entries()
	for i := range ea {
		if ea[i].ID() != eb[i].ID() {
			t.Fatalf("entry %d differs: %s vs %s", i, ea[i].ID(), eb[i].ID())
		}
	}
	if !data.Equal(a.Store(), b.Store()) {
		t.Error("same seed produced different stores")
	}
}

func TestRandomCleanTwinAlignment(t *testing.T) {
	// The clean twin must execute the same workflows over the same
	// initial values — only the corruption differs.
	cfg := DefaultRandomConfig()
	for seed := int64(0); seed < 10; seed++ {
		attacked, err := Random(seed, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := Random(seed, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(attacked.Specs) != len(clean.Specs) {
			t.Fatalf("seed %d: spec counts differ", seed)
		}
		for run, sa := range attacked.Specs {
			sc, ok := clean.Specs[run]
			if !ok {
				t.Fatalf("seed %d: run %s missing in clean twin", seed, run)
			}
			if len(sa.Tasks) != len(sc.Tasks) {
				t.Fatalf("seed %d run %s: task counts differ", seed, run)
			}
			for _, ta := range sa.Tasks {
				id, tc := ta.ID, sc.Task(ta.ID)
				if tc == nil || len(ta.Next) != len(tc.Next) {
					t.Fatalf("seed %d run %s task %s: structure differs", seed, run, id)
				}
			}
		}
		if len(clean.Bad) != 0 {
			t.Errorf("seed %d: clean twin has attacks", seed)
		}
	}
}

func TestRandomAttacksCommitted(t *testing.T) {
	// Reported instances must exist in the log, and forged entries must
	// be flagged.
	cfg := DefaultRandomConfig()
	foundForged := false
	for seed := int64(0); seed < 20; seed++ {
		s, err := Random(seed, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range s.Bad {
			e, ok := s.Log().Get(b)
			if !ok {
				t.Fatalf("seed %d: reported %s not in log", seed, b)
			}
			if e.Forged {
				foundForged = true
			}
		}
	}
	if !foundForged {
		t.Error("no forged instance reported across 20 seeds")
	}
}

func TestRandomValidatesSpecs(t *testing.T) {
	cfg := RandomConfig{
		Runs:    2,
		Gen:     wf.GenConfig{Tasks: 6, Keys: 4, MaxReads: 2, BranchProb: 0.5},
		Attacks: 1,
	}
	s, err := Random(3, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	for run, spec := range s.Specs {
		if err := spec.Validate(); err != nil {
			t.Errorf("run %s: %v", run, err)
		}
	}
}
