package triage_test

import (
	"fmt"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// buildTwoChains commits two key-disjoint three-task chains (runs "a" and
// "b"): each task reads its predecessor's key and writes its own, so flow
// damage propagates down each chain but never across.
func buildTwoChains(t *testing.T) (*wlog.Log, *deps.IncrementalGraph) {
	t.Helper()
	l := wlog.New()
	g := deps.NewIncremental(l)
	for _, run := range []string{"a", "b"} {
		var lastWriter string
		var lastPos float64
		for i := 1; i <= 3; i++ {
			e := &wlog.Entry{Run: run, Task: wf.TaskID(fmt.Sprintf("t%d", i)), Visit: 1}
			if i > 1 {
				e.Reads = wlog.ReadsOf(map[data.Key]wlog.ReadObs{
					data.Key(fmt.Sprintf("%s.k%d", run, i-1)): {Writer: lastWriter, WriterPos: lastPos},
				})
			}
			e.Writes = wlog.WritesOf(map[data.Key]data.Value{data.Key(fmt.Sprintf("%s.k%d", run, i)): data.Value(i)})
			lsn, err := l.Append(e)
			if err != nil {
				t.Fatal(err)
			}
			lastWriter, lastPos = string(e.ID()), float64(lsn)
		}
	}
	return l, g
}

func id(run string, task int) wlog.InstanceID {
	return wlog.FormatInstance(run, wf.TaskID(fmt.Sprintf("t%d", task)), 1)
}

func TestPartitionSplitsDisjointCones(t *testing.T) {
	_, g := buildTwoChains(t)
	cones := triage.Partition(g.Snapshot(), []triage.Alert{
		{Bad: []wlog.InstanceID{id("a", 1)}},
		{Bad: []wlog.InstanceID{id("b", 1)}},
		{Bad: []wlog.InstanceID{id("a", 2)}}, // inside a1's cone
	})
	if len(cones) != 2 {
		t.Fatalf("cones = %d, want 2: %+v", len(cones), cones)
	}
	// Deterministic order: sorted by smallest bad instance ("a/..." < "b/...").
	if cones[0].Alerts != 2 || len(cones[0].Bad) != 2 {
		t.Errorf("chain-a cone = %+v, want 2 alerts folding {a/t1#1,a/t2#1}", cones[0])
	}
	if cones[1].Alerts != 1 || len(cones[1].Bad) != 1 || cones[1].Bad[0] != id("b", 1) {
		t.Errorf("chain-b cone = %+v", cones[1])
	}
}

// TestPartitionMergesThroughSharedClosure: two alerts that name disjoint
// instances still share a cone when one's closure reaches the other's.
func TestPartitionMergesThroughSharedClosure(t *testing.T) {
	_, g := buildTwoChains(t)
	cones := triage.Partition(g.Snapshot(), []triage.Alert{
		{Bad: []wlog.InstanceID{id("a", 1)}}, // closure: a1,a2,a3
		{Bad: []wlog.InstanceID{id("a", 3)}}, // closure: a3
	})
	if len(cones) != 1 || cones[0].Alerts != 2 {
		t.Fatalf("cones = %+v, want one cone of 2 alerts", cones)
	}
}

// TestPartitionDeduplicatesWithinCone: duplicate reports of the same bad
// set fold into one cone with the union's multiplicity removed.
func TestPartitionDeduplicatesWithinCone(t *testing.T) {
	_, g := buildTwoChains(t)
	bad := []wlog.InstanceID{id("a", 1)}
	cones := triage.Partition(g.Snapshot(), []triage.Alert{{Bad: bad}, {Bad: bad}, {Bad: bad}})
	if len(cones) != 1 || cones[0].Alerts != 3 || len(cones[0].Bad) != 1 {
		t.Fatalf("cones = %+v, want one cone, 3 alerts, 1 bad instance", cones)
	}
}

func TestPartitionEpochPinned(t *testing.T) {
	l, g := buildTwoChains(t)
	snap := g.Snapshot()
	// A later commit bridges the chains: "bridge" reads a.k3 and writes
	// b.k1. The pinned snapshot must not see it.
	a3 := id("a", 3)
	e := &wlog.Entry{Run: "bridge", Task: "x", Visit: 1,
		Reads:  wlog.ReadsOf(map[data.Key]wlog.ReadObs{"a.k3": {Writer: string(a3), WriterPos: 3}}),
		Writes: wlog.WritesOf(map[data.Key]data.Value{"bridge.out": 1})}
	if _, err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	alerts := []triage.Alert{
		{Bad: []wlog.InstanceID{a3}},
		{Bad: []wlog.InstanceID{e.ID()}},
	}
	if got := len(triage.Partition(snap, alerts)); got != 2 {
		t.Errorf("pinned snapshot cones = %d, want 2 (bridge entry is past the epoch)", got)
	}
	if got := len(triage.Partition(g.Snapshot(), alerts)); got != 1 {
		t.Errorf("fresh snapshot cones = %d, want 1 (bridge entry joins them)", got)
	}
}

func TestCoverageArmCoveredRelease(t *testing.T) {
	c := triage.NewCoverage()
	closure := []wlog.InstanceID{id("a", 1), id("a", 2), id("a", 3)}
	if c.Covered(closure[:1]) {
		t.Fatal("empty coverage covered an alert")
	}
	release := c.Arm(closure)
	if c.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", c.InFlight())
	}
	if !c.Covered([]wlog.InstanceID{id("a", 2), id("a", 3)}) {
		t.Error("subset of armed closure not covered")
	}
	if c.Covered([]wlog.InstanceID{id("a", 2), id("b", 1)}) {
		t.Error("alert escaping the closure reported covered")
	}
	if c.Covered(nil) {
		t.Error("empty bad set reported covered")
	}

	// Overlapping signatures refcount: the shared instance stays covered
	// until both units complete.
	release2 := c.Arm(closure[:2])
	release()
	release() // idempotent
	if !c.Covered(closure[:2]) {
		t.Error("instances of the still-armed unit uncovered after sibling release")
	}
	if c.Covered(closure[2:]) {
		t.Error("instance only the released unit covered is still covered")
	}
	release2()
	if c.InFlight() != 0 || c.Covered(closure[:1]) {
		t.Error("coverage did not re-arm after all units completed")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := triage.Key([]wlog.InstanceID{"r/t2#1", "r/t1#1"})
	b := triage.Key([]wlog.InstanceID{"r/t1#1", "r/t2#1"})
	if a != b {
		t.Errorf("order-sensitive keys: %q vs %q", a, b)
	}
	if a == triage.Key([]wlog.InstanceID{"r/t1#1"}) {
		t.Error("distinct sets share a key")
	}
}

func TestOptions(t *testing.T) {
	if (triage.Options{}).Enabled() {
		t.Error("zero Options enabled")
	}
	if all := triage.All(); !all.Coalesce || !all.Prefilter || !all.Dedupe || !all.Enabled() {
		t.Errorf("All() = %+v", all)
	}
}
