package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCleanSpec(t *testing.T) {
	if err := run(io.Discard, "testdata/fig1.json", "", 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAttackAndRecovery(t *testing.T) {
	if err := run(io.Discard, "testdata/fig1.json", "t1", 100, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithDump(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "snap.json")
	if err := run(io.Discard, "testdata/fig1.json", "t1", 100, dump); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"format"`) {
		t.Error("snapshot missing format header")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "testdata/missing.json", "", 0, ""); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run(io.Discard, "testdata/fig1.json", "ghost", 1, ""); err == nil {
		t.Error("unknown attack target accepted")
	}
}

// The printed trace of the paper's Fig. 1 workflow under an attack on t1 is
// pinned: the system-log lines list reads and writes as sorted k=v pairs,
// whatever wlog.Entry holds them in.
func TestFig1OutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig1_attack_t1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, "testdata/fig1.json", "t1", 100, ""); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("wfrun output changed:\n%s\nwant:\n%s", got.String(), want)
	}
}
