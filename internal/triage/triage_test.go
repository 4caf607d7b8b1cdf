package triage_test

import (
	"fmt"
	"slices"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/obs"
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

// TestPartitionDropsEmptyAlerts: an alert with an empty bad set names no
// damage, so it joins no cone; two empty cones would have no first bad
// instance to order them by.
func TestPartitionDropsEmptyAlerts(t *testing.T) {
	_, g := buildTwoChains(t)
	if cones := triage.Partition(g.Snapshot(), []triage.Alert{{}, {}}); len(cones) != 0 {
		t.Fatalf("cones = %+v, want none", cones)
	}
	alerts := []triage.Alert{{}, {Bad: []wlog.InstanceID{id("b", 1)}}, {Bad: []wlog.InstanceID{}}}
	cones := triage.Partition(g.Snapshot(), alerts)
	if len(cones) != 1 || cones[0].Alerts != 1 || !slices.Equal(cones[0].Bad, []wlog.InstanceID{id("b", 1)}) {
		t.Fatalf("cones = %+v, want the one cone of b/t1#1", cones)
	}
	if len(alerts) != 3 || alerts[1].Bad[0] != id("b", 1) {
		t.Fatalf("Partition rewrote its argument: %+v", alerts)
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

// TestStage drives the analyzer stage every runtime shares over the two
// chains (a's closures nest a1 ⊃ a2 ⊃ a3; b is disjoint from a). Each step
// reports its alerts, drains the ones no queued twin absorbed into one
// Analyze call, checks the units' bad sets and then marks units done, by
// their number across the case. Every case checks that each unit had
// exactly one analysis, of its own cone.
func TestStage(t *testing.T) {
	a1, a2, a3, b1 := id("a", 1), id("a", 2), id("a", 3), id("b", 1)
	type ids = []wlog.InstanceID
	type step struct {
		alerts, cones []ids
		done          []int
	}
	cases := []struct {
		name  string
		opts  triage.Options
		steps []step
		want  triage.Counts
	}{{
		name: "per-alert cones",
		steps: []step{
			{alerts: []ids{{a1}, {b1}, {a3}, {a1}}, cones: []ids{{a1}, {b1}, {a3}, {a1}}},
		},
		want: triage.Counts{Analyzed: 4, Cones: 4},
	}, {
		name: "coalesced cones",
		opts: triage.Options{Coalesce: true},
		steps: []step{
			{alerts: []ids{{a1}, {b1}, {a3}, {a1}}, cones: []ids{{a1, a3}, {b1}}},
		},
		want: triage.Counts{Analyzed: 4, Cones: 2},
	}, {
		name: "dedupe absorbs a queued twin, and releases it when drained",
		opts: triage.Options{Dedupe: true},
		steps: []step{
			{alerts: []ids{{a1}, {a1}, {b1, a1}, {a1, b1}}, cones: []ids{{a1}, {a1, b1}}},
			{alerts: []ids{{a1}}, cones: []ids{{a1}}},
		},
		want: triage.Counts{Analyzed: 3, Cones: 3, Deduped: 2},
	}, {
		name: "prefilter drops covered alerts until every covering unit is done",
		opts: triage.Options{Prefilter: true},
		steps: []step{
			// Both survive: the batch is checked before either unit arms.
			{alerts: []ids{{a1}, {a3}}, cones: []ids{{a1}, {a3}}},
			{alerts: []ids{{a2}, {a2, b1}}, cones: []ids{{a2, b1}}, done: []int{0}},
			// a3 stays covered by unit 1 (and 2), a2 by unit 2 alone.
			{alerts: []ids{{a3}, {a1}}, cones: []ids{{a1}}, done: []int{1, 2, 1, 3}},
			{alerts: []ids{{a3}, {b1}}, cones: []ids{{a3}, {b1}}},
		},
		want: triage.Counts{Analyzed: 6, Cones: 6, Prefiltered: 2},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, g := buildTwoChains(t)
			reg := obs.NewRegistry()
			s := triage.NewStage(tc.opts)
			s.Observe(reg)
			var units []*triage.Unit
			for i, st := range tc.steps {
				var batch []triage.Alert
				for _, bad := range st.alerts {
					if !s.Absorbs(bad) {
						s.Queued(bad)
						batch = append(batch, triage.Alert{Bad: bad})
					}
				}
				got := s.Analyze(g.Snapshot(), l, nil, batch)
				if len(got) != len(st.cones) {
					t.Fatalf("step %d: %d units, want %d", i, len(got), len(st.cones))
				}
				for j, u := range got {
					want := append(ids(nil), st.cones[j]...)
					slices.Sort(want)
					if !slices.Equal(u.Bad, want) || !slices.Equal(u.Analysis.Bad, want) {
						t.Errorf("step %d unit %d: cone %v analyzed as %v, want %v", i, j, u.Bad, u.Analysis.Bad, want)
					}
				}
				units = append(units, got...)
				for _, n := range st.done {
					units[n].Done()
				}
			}
			if got := s.Counts(); got != tc.want {
				t.Errorf("counts %+v, want %+v", got, tc.want)
			}
			snap := reg.Snapshot()
			if n := snap[obs.MAnalyzeSeconds+"_count"]; int(n) != len(units) || snap[obs.MTriageCones] != n {
				t.Errorf("%v analyses timed and %v counted for %d units", n, snap[obs.MTriageCones], len(units))
			}
		})
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
