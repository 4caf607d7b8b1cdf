package fuzz

import (
	"testing"

	"selfheal/internal/shard"
)

// TestCorpusRegression replays every committed reproducer in
// testdata/corpus against a healthy in-process service, durable and in
// memory (where a checkpoint forgets without a snapshot). Each entry is the
// shrunk schedule of a bug the fuzzer once found; after the fix it must
// report zero violations, forever. Runs under -race with the normal test
// suite.
func TestCorpusRegression(t *testing.T) {
	corpus, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("committed corpus is empty; expected at least the seeded reproducers")
	}
	r := &Runner{}
	for name, entry := range corpus {
		entry := entry
		t.Run(name, func(t *testing.T) {
			for mode, dir := range map[string]string{"durable": t.TempDir(), "memory": ""} {
				t.Run(mode, func(t *testing.T) {
					tgt, err := NewInProcTarget(InProcOptions{Dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					defer tgt.Close()
					rep, err := r.RunEpisode(tgt, entry.Schedule)
					if err != nil {
						t.Fatalf("harness: %v", err)
					}
					for _, v := range rep.Violations {
						t.Errorf("regression: %s", v)
					}
				})
			}
		})
	}
}

// TestCorpusEntryStillBitesFaultyTarget guards against vacuous corpus
// entries: the skip-repair reproducer must still fail when the fault it was
// minimized against is re-injected.
func TestCorpusEntryStillBitesFaultyTarget(t *testing.T) {
	corpus, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := corpus["skip-repair-fault.json"]
	if !ok {
		t.Fatal("skip-repair-fault.json missing from testdata/corpus")
	}
	tgt, err := NewInProcTarget(InProcOptions{
		Dir:   t.TempDir(),
		Fault: shard.FaultInjection{SkipRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	r := &Runner{}
	rep, err := r.RunEpisode(tgt, entry.Schedule)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if !rep.Failed() {
		t.Fatal("shrunk reproducer no longer fails on the faulty target")
	}
	if rep.Violations[0].Oracle != "benign-store" {
		t.Fatalf("first violation %s, want benign-store", rep.Violations[0])
	}
}
