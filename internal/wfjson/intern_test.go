package wfjson

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

// build compiles doc through tab under a new name, failing the test on error.
func build(t *testing.T, tab *wf.Interner, doc *SpecJSON, name string) *wf.Spec {
	t.Helper()
	cp := *doc
	cp.Name = name
	spec, _, err := BuildIn(tab, &cp)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// evalAll runs a task's body over reads: what it writes, and its successor
// under the key "next".
func evalAll(t *wf.Task, reads map[data.Key]data.Value) map[data.Key]data.Value {
	out := make(map[data.Key]data.Value)
	next := t.Eval(reads, func(k data.Key, v data.Value) { out[k] = v })
	out["next:"+data.Key(next)] = 1
	return out
}

func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func sameString[T ~string](a, b T) bool {
	return a == b && unsafe.StringData(string(a)) == unsafe.StringData(string(b))
}

// sharesAll reports the first fact of spec b not shared with spec a, which
// has the same shape: task IDs, keys, the three lists and the footprint.
func sharesAll(a, b *wf.Spec) error {
	if !sameArray(a.Footprint(), b.Footprint()) {
		return fmt.Errorf("footprints %v and %v are separate copies", a.Footprint(), b.Footprint())
	}
	for i := range a.Tasks {
		ta, tb := &a.Tasks[i], &b.Tasks[i]
		id := ta.ID
		switch {
		case !sameString(ta.ID, tb.ID):
			return fmt.Errorf("task %s: two ID strings", id)
		case !sameArray(ta.Next, tb.Next), !sameArray(ta.Reads, tb.Reads), !sameArray(ta.Writes, tb.Writes):
			return fmt.Errorf("task %s: a list is copied per spec", id)
		}
		for i := range ta.Reads {
			if !sameString(ta.Reads[i], tb.Reads[i]) {
				return fmt.Errorf("task %s: read key %s is copied per spec", id, ta.Reads[i])
			}
		}
	}
	return nil
}

// TestBuildInSharesSpecFacts: two specs of one shape compiled through one
// table share every string, list and footprint; compiled without a table
// they share nothing, and the two compile to the same workflow either way.
func TestBuildInSharesSpecFacts(t *testing.T) {
	var doc SpecJSON
	if err := json.Unmarshal([]byte(fig1JSON), &doc); err != nil {
		t.Fatal(err)
	}
	tab := wf.NewInterner()
	a, b := build(t, tab, &doc, "r1"), build(t, tab, &doc, "r2")
	if err := sharesAll(a, b); err != nil {
		t.Fatal(err)
	}
	strs, lists := tab.Size()
	// One more spec of the same shape adds nothing to the table.
	build(t, tab, &doc, "r3")
	if s2, l2 := tab.Size(); s2 != strs || l2 != lists {
		t.Fatalf("a third spec of the same shape grew the table from %d/%d to %d/%d", strs, lists, s2, l2)
	}

	x, y := build(t, nil, &doc, "r1"), build(t, nil, &doc, "r2")
	if err := sharesAll(x, y); err == nil {
		t.Fatal("specs compiled without a table share their facts")
	}
	reads := map[data.Key]data.Value{"a": 3, "b": 4, "c": 5, "e": 6}
	for i := range a.Tasks {
		ta, tx := &a.Tasks[i], &x.Tasks[i]
		if !reflect.DeepEqual(*ta, *tx) {
			t.Fatalf("task %s compiles to %+v through the table, %+v without", ta.ID, *ta, *tx)
		}
		got, want := evalAll(ta, reads), evalAll(tx, reads)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("task %s computes %v through the table, %v without", ta.ID, got, want)
		}
	}
	if !reflect.DeepEqual(a.Footprint(), x.Footprint()) {
		t.Fatalf("footprint %v through the table, %v without", a.Footprint(), x.Footprint())
	}
}

// TestSealedFootprintMatchesScan: the footprint a spec computes once at
// compilation, through a table or not, equals the sorted set of keys a scan
// of the blueprint's tasks finds.
func TestSealedFootprintMatchesScan(t *testing.T) {
	tab := wf.NewInterner()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		cfg := wf.GenConfig{Tasks: 2 + rng.Intn(8), Keys: 1 + rng.Intn(7), MaxReads: 3, MaxWrites: 3, BranchProb: 0.3, Prefix: "p_"}
		bp := wf.GenerateBlueprint(fmt.Sprintf("bp%d", i), cfg, rng)
		set := make(map[data.Key]bool)
		for _, bt := range bp.Tasks {
			for _, k := range append(append([]data.Key(nil), bt.Reads...), bt.Writes...) {
				set[k] = true
			}
		}
		var want []data.Key
		for k := range set {
			want = append(want, k)
		}
		slices.Sort(want)
		for _, tb := range []*wf.Interner{tab, nil} {
			sealed, _, err := BuildIn(tb, FromBlueprint(bp))
			if err != nil {
				t.Fatal(err)
			}
			if got := sealed.Footprint(); !reflect.DeepEqual(got, want) {
				t.Fatalf("blueprint %d: sealed footprint %v, scanned %v", i, got, want)
			}
		}
	}
}

// TestRetainForgets: after Retain the table holds exactly what the live
// specs reference — as much as a fresh table that compiled only them — a
// later spec shares the live specs' copies, and a forgotten spec's facts are
// compiled afresh.
func TestRetainForgets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gen := func(prefix string) *SpecJSON {
		cfg := wf.GenConfig{Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: prefix}
		return FromBlueprint(wf.GenerateBlueprint(prefix+"run", cfg, rng))
	}
	liveDoc, goneDoc := gen("live_"), gen("gone_")
	tab := wf.NewInterner()
	live, gone := build(t, tab, liveDoc, "live"), build(t, tab, goneDoc, "gone")

	tab.Retain(map[string]*wf.Spec{"live": live})
	alone := wf.NewInterner()
	build(t, alone, liveDoc, "live")
	s1, l1 := tab.Size()
	if s2, l2 := alone.Size(); s1 != s2 || l1 != l2 {
		t.Fatalf("retained table holds %d/%d strings/lists, a table of the live spec alone %d/%d", s1, l1, s2, l2)
	}
	if err := sharesAll(live, build(t, tab, liveDoc, "live2")); err != nil {
		t.Fatalf("a spec compiled after Retain: %v", err)
	}
	if err := sharesAll(gone, build(t, tab, goneDoc, "gone2")); err == nil {
		t.Fatal("a spec compiled after Retain shares the facts of a forgotten one")
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	tab.Retain(nil)
	if s, l := tab.Size(); s+l != 0 {
		t.Fatalf("a table retaining no spec holds %d strings, %d lists", s, l)
	}
}

// TestCheckCatchesInPlaceMutation: an interned list modified in place —
// which would silently rewrite every spec sharing it — fails Check.
func TestCheckCatchesInPlaceMutation(t *testing.T) {
	var doc SpecJSON
	if err := json.Unmarshal([]byte(fig1JSON), &doc); err != nil {
		t.Fatal(err)
	}
	tab := wf.NewInterner()
	spec := build(t, tab, &doc, "r1")
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	spec.Task("t4").Reads[0] = "z"
	if err := tab.Check(); err == nil {
		t.Fatal("Check passed a key list modified in place")
	}
}
