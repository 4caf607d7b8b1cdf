package wlogio

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/scenario"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

func TestRoundTripFig1(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s.Log(), s.Store()); err != nil {
		t.Fatal(err)
	}
	log2, store2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Len() != s.Log().Len() {
		t.Fatalf("log length %d, want %d", log2.Len(), s.Log().Len())
	}
	for i, e := range log2.Entries() {
		o := s.Log().Entries()[i]
		if e.ID() != o.ID() || e.LSN != o.LSN || e.Chosen != o.Chosen || e.Forged != o.Forged {
			t.Errorf("entry %d differs: %+v vs %+v", i, e, o)
		}
		if !reflect.DeepEqual(e.Reads, o.Reads) {
			t.Errorf("entry %d reads: %+v vs %+v", i, e.Reads, o.Reads)
		}
		if !reflect.DeepEqual(e.Writes, o.Writes) {
			t.Errorf("entry %d writes: %+v vs %+v", i, e.Writes, o.Writes)
		}
	}
	if !data.Equal(s.Store(), store2) {
		t.Errorf("stores differ:\n%s", data.Diff(s.Store(), store2))
	}
	// Version metadata round trips too.
	for _, k := range s.Store().Keys() {
		a, b := s.Store().Chain(k), store2.Chain(k)
		if len(a) != len(b) {
			t.Fatalf("chain %s length differs", k)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("chain %s version %d: %+v vs %+v", k, i, a[i], b[i])
			}
		}
	}
}

// TestRecoveryAfterReload: the real durability property — a repair computed
// from a reloaded snapshot equals a repair computed from the live state.
func TestRecoveryAfterReload(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s.Log(), s.Store()); err != nil {
		t.Fatal(err)
	}
	log2, store2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live, err := recovery.Repair(s.Store(), s.Log(), s.Specs, s.Bad, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := recovery.Repair(store2, log2, s.Specs, s.Bad, recovery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !data.Equal(live.Store, reloaded.Store) {
		t.Errorf("reloaded repair diverged:\n%s", data.Diff(live.Store, reloaded.Store))
	}
	if len(live.Undone) != len(reloaded.Undone) {
		t.Errorf("undo sets differ: %d vs %d", len(live.Undone), len(reloaded.Undone))
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"not json", "{"},
		{"wrong format", `{"format": 99, "entries": [], "chains": {}}`},
		{"non-dense lsn", `{"format":1,"entries":[{"lsn":2,"task":"t","visit":1}],"chains":{}}`},
		{"duplicate instance", `{"format":1,"entries":[
			{"lsn":1,"run":"r","task":"t","visit":1},
			{"lsn":2,"run":"r","task":"t","visit":1}],"chains":{}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Decode(strings.NewReader(c.in)); err == nil {
				t.Errorf("accepted %q", c.in)
			}
		})
	}
}

func TestEncodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	s, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	// Encode only the store of a fresh scenario with an empty log.
	if err := Encode(&buf, s.Log(), s.Store()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
	if _, _, err := Decode(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestRestartMidWorkload is the full durability story: a workload stops
// mid-flight, its log and store are snapshotted, a fresh process reloads
// them, resumes the in-flight runs at their frontiers, and finishes — ending
// in exactly the state of the uninterrupted execution.
func TestRestartMidWorkload(t *testing.T) {
	wf1, wf2 := wf.Fig1Specs()
	specs := map[string]*wf.Spec{"r1": wf1, "r2": wf2}

	mkEngine := func() (*engine.Engine, []*engine.Run) {
		st := data.NewStore()
		st.Init("e", 0)
		eng := engine.New(st, wlog.New())
		r1, err := eng.NewRun("r1", wf1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := eng.NewRun("r2", wf2)
		if err != nil {
			t.Fatal(err)
		}
		return eng, []*engine.Run{r1, r2}
	}

	// Uninterrupted reference.
	refEng, refRuns := mkEngine()
	if err := refEng.RunAll(context.Background(), refRuns...); err != nil {
		t.Fatal(err)
	}

	// Interrupted: three steps, snapshot, "restart", resume, finish.
	eng, runs := mkEngine()
	for _, idx := range []int{0, 1, 0} {
		if _, err := eng.Step(runs[idx]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Encode(&buf, eng.Log(), eng.Store()); err != nil {
		t.Fatal(err)
	}

	log2, store2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := engine.New(store2, log2)
	resumed, err := eng2.ResumeRuns(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 2 {
		t.Fatalf("resumed %d runs, want 2", len(resumed))
	}
	for _, r := range resumed {
		if r.Done() {
			t.Errorf("run %s resumed as done", r.ID)
		}
	}
	if err := eng2.RunAll(context.Background(), resumed...); err != nil {
		t.Fatal(err)
	}
	if !data.Equal(refEng.Store(), eng2.Store()) {
		t.Errorf("restarted execution diverged:\n%s", data.Diff(refEng.Store(), eng2.Store()))
	}
	if eng2.Log().Len() != refEng.Log().Len() {
		t.Errorf("log lengths differ: %d vs %d", eng2.Log().Len(), refEng.Log().Len())
	}
}

// TestCheckpointFlagRoundTrip: a compacted store keeps its checkpoint
// boundaries across Encode/Decode. The old per-version Write rebuild dropped
// the Checkpoint bit, so reloading a compacted snapshot produced a store
// whose compaction horizon was silently forgotten.
func TestCheckpointFlagRoundTrip(t *testing.T) {
	s, err := scenario.Fig1(true)
	if err != nil {
		t.Fatal(err)
	}
	s.Store().CompactBefore(2)
	var buf bytes.Buffer
	if err := Encode(&buf, s.Log(), s.Store()); err != nil {
		t.Fatal(err)
	}
	_, store2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawCheckpoint := false
	for _, k := range s.Store().Keys() {
		a, b := s.Store().Chain(k), store2.Chain(k)
		if len(a) != len(b) {
			t.Fatalf("chain %s length %d vs %d", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("chain %s version %d: %+v vs %+v", k, i, a[i], b[i])
			}
			sawCheckpoint = sawCheckpoint || a[i].Checkpoint
		}
	}
	if !sawCheckpoint {
		t.Fatal("compaction left no checkpoint version; test exercises nothing")
	}
	if err := store2.CheckIndex(); err != nil {
		t.Errorf("reloaded store index: %v", err)
	}
}

// TestResumeCompletedRuns: complete runs come back Done and re-running them
// is a no-op.
func TestResumeCompletedRuns(t *testing.T) {
	s, err := scenario.Fig1(false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s.Log(), s.Store()); err != nil {
		t.Fatal(err)
	}
	log2, store2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := engine.New(store2, log2)
	resumed, err := eng2.ResumeRuns(s.Specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resumed {
		if !r.Done() {
			t.Errorf("completed run %s resumed as in-flight", r.ID)
		}
	}
	before := log2.Len()
	if err := eng2.RunAll(context.Background(), resumed...); err != nil {
		t.Fatal(err)
	}
	if log2.Len() != before {
		t.Error("re-running completed runs committed new work")
	}
}

// Randomized logs survive Encode∘Decode entry for entry, re-encode to the
// same bytes, and a snapshot whose JSON objects list their members out of
// key order decodes to entries in key order.
func TestRoundTripRandomEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	log := wlog.New()
	for i := 0; i < 200; i++ {
		reads := make(map[data.Key]wlog.ReadObs)
		for n := rng.Intn(5); len(reads) < n; {
			obs := wlog.ReadObs{WriterPos: wlog.MissingPos}
			if rng.Intn(4) > 0 {
				obs = wlog.ReadObs{Value: data.Value(rng.Int63n(2000) - 1000), Writer: fmt.Sprintf("w/t#%d", rng.Intn(9)+1), WriterPos: float64(rng.Intn(100)) + 0.5}
			}
			reads[data.Key(fmt.Sprintf("k%d", rng.Intn(12)))] = obs
		}
		writes := make(map[data.Key]data.Value)
		for n := rng.Intn(5); len(writes) < n; {
			writes[data.Key(fmt.Sprintf("k%d", rng.Intn(12)))] = data.Value(rng.Int63n(2000) - 1000)
		}
		e := &wlog.Entry{Run: fmt.Sprintf("r%d", rng.Intn(3)), Task: "t", Visit: i + 1, Forged: rng.Intn(5) == 0,
			Reads: wlog.ReadsOf(reads), Writes: wlog.WritesOf(writes)}
		if _, err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	var first bytes.Buffer
	if err := Encode(&first, log, data.NewStore()); err != nil {
		t.Fatal(err)
	}
	text := first.String()
	log2, store2, err := Decode(&first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log2.Entries(), log.Entries()) {
		t.Fatal("decoded entries differ from the encoded ones")
	}
	var second bytes.Buffer
	if err := Encode(&second, log2, store2); err != nil {
		t.Fatal(err)
	}
	if second.String() != text {
		t.Fatal("re-encoding a decoded snapshot changed its bytes")
	}

	unsorted := `{"format":1,"chains":{},"entries":[{"lsn":1,"task":"t","visit":1,` +
		`"reads":{"z":{"value":1,"writerPos":0},"a":{"value":2,"writer":"w/t#1","writerPos":3},"m":{"value":0,"writerPos":-1}},` +
		`"writes":{"y":1,"b":2,"q":3}}]}`
	log3, _, err := Decode(strings.NewReader(unsorted))
	if err != nil {
		t.Fatal(err)
	}
	want := &wlog.Entry{LSN: 1, Task: "t", Visit: 1,
		Reads: []wlog.Read{
			{Key: "a", ReadObs: wlog.ReadObs{Value: 2, Writer: "w/t#1", WriterPos: 3}},
			{Key: "m", ReadObs: wlog.ReadObs{WriterPos: wlog.MissingPos}},
			{Key: "z", ReadObs: wlog.ReadObs{Value: 1}},
		},
		Writes: []wlog.Write{{Key: "b", Value: 2}, {Key: "q", Value: 3}, {Key: "y", Value: 1}},
	}
	want.CacheID()
	if got := log3.Entries()[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted JSON objects decode to %+v, want %+v", got, want)
	}
}
