package wf

import (
	"selfheal/internal/data"
	"strings"
	"testing"
)

func lintMsgs(ws []Warning) string {
	var sb strings.Builder
	for _, w := range ws {
		sb.WriteString(w.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestLintCleanSpecs(t *testing.T) {
	wf1, wf2 := Fig1Specs()
	// Fig 1's specs read a few cross-workflow keys (a, g written by the
	// other workflow), so per-spec linting reports initial-only reads;
	// nothing else.
	for _, s := range []*Spec{wf1, wf2} {
		for _, w := range Lint(s) {
			if !strings.Contains(w.Msg, "initial value only") &&
				!strings.Contains(w.Msg, "never read") {
				t.Errorf("%s: unexpected warning: %s", s.Name, w)
			}
		}
	}
}

func TestLintChoiceWithoutWrites(t *testing.T) {
	s, err := NewBuilder("l", "c").
		Task("c").Reads("k").Then("a", "b").
		ChooseBy(ThresholdChoose("k", 1, "a", "b")).End().
		Task("a").Writes("o").End().
		Task("b").Writes("o").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := Lint(s)
	if !strings.Contains(lintMsgs(ws), "decision leaves no data trail") {
		t.Errorf("missing choice-without-writes warning:\n%s", lintMsgs(ws))
	}
}

func TestLintDeadWrites(t *testing.T) {
	s, err := NewBuilder("l", "a").
		Task("a").Writes("unused").Then("b").End().
		Task("b").Writes("final").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := lintMsgs(Lint(s))
	if !strings.Contains(ws, `a: writes are never read`) {
		t.Errorf("missing dead-write warning:\n%s", ws)
	}
	// End-node writes are outputs, not dead data.
	if strings.Contains(ws, "b: writes are never read") {
		t.Errorf("end node flagged for dead writes:\n%s", ws)
	}
}

func TestLintInitialOnlyRead(t *testing.T) {
	s, err := NewBuilder("l", "a").
		Task("a").Reads("ghost").Writes("o").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lintMsgs(Lint(s)), `reads "ghost"`) {
		t.Error("missing initial-only-read warning")
	}
}

func TestLintInescapableCycle(t *testing.T) {
	s := &Spec{
		Name:  "trap",
		Start: "a",
		Tasks: []Task{
			{ID: "a", Next: []TaskID{"b"}, Writes: data_k("x")},
			{ID: "b", Next: []TaskID{"c"}, Reads: data_k("x"), Writes: data_k("x")},
			{ID: "c", Next: []TaskID{"b", "end"}, Reads: data_k("x"), Writes: data_k("x"),
				Choose: ThresholdChoose("x", 3, "b", "end")},
			// d-e form an inescapable loop reachable from end? Keep it
			// simple: make end → d → e → d.
			{ID: "d", Next: []TaskID{"e"}, Writes: data_k("y")},
			{ID: "e", Next: []TaskID{"d"}, Reads: data_k("y"), Writes: data_k("y")},
			{ID: "end", Next: []TaskID{"d"}, Reads: data_k("x")},
		},
	}
	// d/e loop has no exit at all, so the spec has no reachable end node —
	// Validate rejects it; Lint reports that as its single finding.
	ws := Lint(s)
	if len(ws) != 1 || !strings.Contains(ws[0].Msg, "invalid specification") {
		t.Fatalf("want invalid-spec finding, got:\n%s", lintMsgs(ws))
	}
}

func TestLintChoicelessCycle(t *testing.T) {
	// A loop whose members are all single-successor, with the exit choice
	// OUTSIDE the loop, still traps execution once entered.
	s, err := NewBuilder("trap2", "gate").
		Task("gate").Reads("k").Writes("g").Then("loop1", "out").
		ChooseBy(ThresholdChoose("k", 1, "loop1", "out")).End().
		Task("loop1").Reads("g").Writes("g").Then("loop2").End().
		Task("loop2").Reads("g").Writes("g").Then("loop1").End().
		Task("out").Reads("g").Writes("o").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lintMsgs(Lint(s)), "can never leave") {
		t.Errorf("choiceless cycle not flagged:\n%s", lintMsgs(Lint(s)))
	}
	// The same loop with an interior choice node is escapable: no warning.
	s, err = NewBuilder("trap3", "gate").
		Task("gate").Reads("k").Writes("g").Then("loop1", "out").
		ChooseBy(ThresholdChoose("k", 1, "loop1", "out")).End().
		Task("loop1").Reads("g").Writes("g").Then("loop2").End().
		Task("loop2").Reads("g").Writes("g").Then("loop1", "out").
		ChooseBy(ThresholdChoose("g", 5, "loop1", "out")).End().
		Task("out").Reads("g").Writes("o").End().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// This loop HAS a choice node → no cycle warning.
	if strings.Contains(lintMsgs(Lint(s)), "can never leave") {
		t.Error("escapable cycle flagged")
	}
}

func data_k(keys ...string) []data.Key {
	out := make([]data.Key, len(keys))
	for i, k := range keys {
		out[i] = data.Key(k)
	}
	return out
}
