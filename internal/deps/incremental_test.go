package deps_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/scenario"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// edgeSet turns an edge list into a multiset keyed by (from,to,key).
func edgeSet(edges []deps.Edge) map[deps.Edge]int {
	out := make(map[deps.Edge]int, len(edges))
	for _, e := range edges {
		out[e]++
	}
	return out
}

// edgeGolden digests one seed's derived views as the implementation that
// stored the edge lists and the flow set (the parent of the single-copy
// graph) produced them: per relation, the edge count and the sha256 of the
// "from to key" lines in list order; and the sha256 of the HasFlow matrix
// over every ordered pair of logged instances. testdata/edges_golden.json
// was written by that implementation over the seeds and configuration of
// TestIncrementalMatchesBatchProperty.
type edgeGolden struct {
	Seed    int64  `json:"seed"`
	Flow    string `json:"flow"`
	Anti    string `json:"anti"`
	Output  string `json:"output"`
	HasFlow string `json:"has_flow"`
}

func edgesDigest(edges []deps.Edge) string {
	h := sha256.New()
	for _, e := range edges {
		fmt.Fprintf(h, "%s %s %s\n", e.From, e.To, e.Key)
	}
	return fmt.Sprintf("%d:%x", len(edges), h.Sum(nil))
}

func digestOf(seed int64, g *deps.Graph, log *wlog.Log) edgeGolden {
	entries := log.Entries()
	bits := make([]byte, 0, len(entries)*len(entries))
	for _, a := range entries {
		for _, b := range entries {
			if g.HasFlow(a.ID(), b.ID()) {
				bits = append(bits, '1')
			} else {
				bits = append(bits, '0')
			}
		}
	}
	return edgeGolden{
		Seed:    seed,
		Flow:    edgesDigest(g.Flow()),
		Anti:    edgesDigest(g.Anti()),
		Output:  edgesDigest(g.Output()),
		HasFlow: fmt.Sprintf("%x", sha256.Sum256(bits)),
	}
}

func loadGolden(t *testing.T) map[int64]edgeGolden {
	t.Helper()
	raw, err := os.ReadFile("testdata/edges_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var list []edgeGolden
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]edgeGolden, len(list))
	for _, g := range list {
		out[g.Seed] = g
	}
	return out
}

// successorsOf collects what one of the graph's successor walks delivers.
func successorsOf(walk func(wlog.InstanceID, func(wlog.InstanceID)), from wlog.InstanceID) []wlog.InstanceID {
	var out []wlog.InstanceID
	walk(from, func(to wlog.InstanceID) { out = append(out, to) })
	return out
}

// checkAdjacency ties the two readings of the one adjacency container
// together: per source and relation, the successor walk (what analysis and
// repair use) delivers exactly the To sides of the derived edge list, in
// list order, multiplicity included.
func checkAdjacency(t *testing.T, label string, g *deps.Graph) {
	t.Helper()
	for _, rel := range []struct {
		name  string
		edges []deps.Edge
		walk  func(wlog.InstanceID, func(wlog.InstanceID))
	}{
		{"flow", g.Flow(), g.FlowSuccessors},
		{"anti", g.Anti(), g.AntiSuccessors},
		{"output", g.Output(), g.OutputSuccessors},
	} {
		want := make(map[wlog.InstanceID][]wlog.InstanceID)
		for _, e := range rel.edges {
			want[e.From] = append(want[e.From], e.To)
			want[e.To] = want[e.To] // sinks are probed too: they may have no successors
		}
		for from, tos := range want {
			if got := successorsOf(rel.walk, from); !reflect.DeepEqual(got, tos) {
				t.Fatalf("%s: %s successors of %s = %v, edge list says %v", label, rel.name, from, got, tos)
			}
		}
	}
}

// appendCopy commits a struct copy of e to l, as a second log would receive
// it (the copy carries e's cached instance ID along).
func appendCopy(t *testing.T, l *wlog.Log, e *wlog.Entry) {
	t.Helper()
	cp := *e
	if _, err := l.Append(&cp); err != nil {
		t.Fatal(err)
	}
}

// replayLog re-appends the entries of src, one by one, into a fresh log that
// g observes, exercising the hook-driven incremental path exactly as the
// engine drives it at commit time.
func replayLog(t *testing.T, src *wlog.Log) (*wlog.Log, *deps.IncrementalGraph) {
	t.Helper()
	dst := wlog.New()
	g := deps.NewIncremental(dst)
	for _, e := range src.Entries() {
		appendCopy(t, dst, e)
	}
	return dst, g
}

// TestIncrementalMatchesBatchProperty: an IncrementalGraph fed entry-by-entry
// over randomized workloads produces edge sets, closures and HasFlow answers
// identical to batch Build over the same log.
func TestIncrementalMatchesBatchProperty(t *testing.T) {
	golden := loadGolden(t)
	for seed := int64(0); seed < 40; seed++ {
		cfg := scenario.RandomConfig{
			Runs:    3,
			Gen:     wf.GenConfig{Tasks: 14, Keys: 8, MaxReads: 3, BranchProb: 0.4},
			Attacks: 2,
			Forged:  1,
		}
		s, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		batch := deps.Build(s.Log())
		_, ig := replayLog(t, s.Log())
		incr := ig.Snapshot()

		if got, want := edgeSet(incr.Flow()), edgeSet(batch.Flow()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: flow edge sets differ:\n got %v\nwant %v", seed, got, want)
		}
		if got, want := edgeSet(incr.Anti()), edgeSet(batch.Anti()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: anti edge sets differ:\n got %v\nwant %v", seed, got, want)
		}
		if got, want := edgeSet(incr.Output()), edgeSet(batch.Output()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: output edge sets differ:\n got %v\nwant %v", seed, got, want)
		}
		if incr.Epoch() != batch.Epoch() {
			t.Fatalf("seed %d: epoch %d vs %d", seed, incr.Epoch(), batch.Epoch())
		}
		for name, g := range map[string]*deps.Graph{"batch": batch, "incremental": incr} {
			if got := digestOf(seed, g, s.Log()); got != golden[seed] {
				t.Fatalf("seed %d: %s views differ from the stored-edge-list implementation:\n got %+v\nwant %+v", seed, name, got, golden[seed])
			}
			checkAdjacency(t, fmt.Sprintf("seed %d %s", seed, name), g)
		}

		// HasFlow parity over every flow edge plus a reversed (absent) pair.
		for _, e := range batch.Flow() {
			if !incr.HasFlow(e.From, e.To) {
				t.Fatalf("seed %d: incremental HasFlow misses %v", seed, e)
			}
			if incr.HasFlow(e.To, e.From) != batch.HasFlow(e.To, e.From) {
				t.Fatalf("seed %d: reverse HasFlow diverges for %v", seed, e)
			}
		}

		// Closure parity seeded from every malicious instance.
		for _, b := range s.Bad {
			seedSet := map[wlog.InstanceID]bool{b: true}
			if got, want := incr.ReadersClosure(seedSet), batch.ReadersClosure(seedSet); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: closures of %s differ:\n got %v\nwant %v", seed, b, got, want)
			}
		}
	}
}

// TestSnapshotEpochIsolation: a snapshot taken mid-log never sees edges or
// closure members from entries committed after it, and matches a batch build
// over the same prefix.
func TestSnapshotEpochIsolation(t *testing.T) {
	s, err := scenario.Random(7, scenario.DefaultRandomConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	entries := s.Log().Entries()
	cut := len(entries) / 2

	live := wlog.New()
	g := deps.NewIncremental(live)
	prefix := wlog.New()
	for i, e := range entries {
		appendCopy(t, live, e)
		if i < cut {
			appendCopy(t, prefix, e)
		}
		if i == cut-1 {
			break
		}
	}
	snap := g.Snapshot() // pinned at the prefix
	// Feed the rest of the log; snap must not move.
	for _, e := range entries[cut:] {
		appendCopy(t, live, e)
	}

	want := deps.Build(prefix)
	if snap.Epoch() != want.Epoch() {
		t.Fatalf("snapshot epoch %d, want %d", snap.Epoch(), want.Epoch())
	}
	if !reflect.DeepEqual(edgeSet(snap.Flow()), edgeSet(want.Flow())) {
		t.Fatal("snapshot flow edges leaked past the epoch")
	}
	if !reflect.DeepEqual(edgeSet(snap.Anti()), edgeSet(want.Anti())) {
		t.Fatal("snapshot anti edges leaked past the epoch")
	}
	if !reflect.DeepEqual(edgeSet(snap.Output()), edgeSet(want.Output())) {
		t.Fatal("snapshot output edges leaked past the epoch")
	}
	for _, e := range prefix.Entries() {
		seedSet := map[wlog.InstanceID]bool{e.ID(): true}
		if got, wantCl := snap.ReadersClosure(seedSet), want.ReadersClosure(seedSet); !reflect.DeepEqual(got, wantCl) {
			t.Fatalf("closure of %s differs at the snapshot epoch:\n got %v\nwant %v", e.ID(), got, wantCl)
		}
	}
	// The live graph has moved on.
	if got := g.Snapshot().Epoch(); got != len(entries) {
		t.Fatalf("live epoch %d, want %d", got, len(entries))
	}
}

// TestIncrementalSelfReadWrite: a task that reads and writes the same key
// anti-depends on the next writer, never on itself — the masking subtlety of
// resolving writes before enqueueing the entry's own reads.
func TestIncrementalSelfReadWrite(t *testing.T) {
	l := wlog.New()
	g := deps.NewIncremental(l)
	mk := func(task string, reads map[data.Key]wlog.ReadObs, writes map[data.Key]data.Value) {
		if _, err := l.Append(&wlog.Entry{Run: "r", Task: wf.TaskID(task), Visit: 1, Reads: wlog.ReadsOf(reads), Writes: wlog.WritesOf(writes)}); err != nil {
			t.Fatal(err)
		}
	}
	mk("inc", map[data.Key]wlog.ReadObs{"k": {WriterPos: wlog.MissingPos}}, map[data.Key]data.Value{"k": 1})
	mk("next", nil, map[data.Key]data.Value{"k": 2})
	snap := g.Snapshot()
	anti := snap.Anti()
	if len(anti) != 1 || anti[0].From != "r/inc#1" || anti[0].To != "r/next#1" {
		t.Fatalf("anti edges = %v, want exactly inc →_a next", anti)
	}
	out := snap.Output()
	if len(out) != 1 || out[0].From != "r/inc#1" || out[0].To != "r/next#1" {
		t.Fatalf("output edges = %v, want exactly inc →_o next", out)
	}
}

// restrict keeps the edges keep accepts, in order.
func restrict(edges []deps.Edge, keep func(deps.Edge) bool) []deps.Edge {
	var out []deps.Edge
	for _, e := range edges {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// TestSuffixGraphsMatchFullFold: an edge's source may be an instance the
// graph never folded. A frontier-seeded graph over a log suffix (the durable
// restore) yields exactly the full fold's edges whose successor lies in the
// suffix; a graph over a bare partial log (no frontier: the benchmark's
// re-append of the last live entries) yields the flow edges into the suffix
// — their sources are named by the recorded reads, logged or not — and the
// anti/output edges with both ends inside it.
func TestSuffixGraphsMatchFullFold(t *testing.T) {
	crossing := 0 // flow edges whose source lies beneath the cut, over all seeds
	for seed := int64(0); seed < 12; seed++ {
		s, err := scenario.Random(seed, scenario.DefaultRandomConfig(), true)
		if err != nil {
			t.Fatal(err)
		}
		entries := s.Log().Entries()
		cut := len(entries) / 2
		full := deps.Build(s.Log())
		lsn := make(map[wlog.InstanceID]int, len(entries))
		for _, e := range entries {
			lsn[e.ID()] = e.LSN
		}
		intoSuffix := func(e deps.Edge) bool { return lsn[e.To] > cut }
		withinSuffix := func(e deps.Edge) bool { return lsn[e.From] > cut && lsn[e.To] > cut }

		prefix := wlog.New()
		pg := deps.NewIncremental(prefix)
		seeded, bare := wlog.NewAt(cut), wlog.New()
		for i, e := range entries {
			if i < cut {
				appendCopy(t, prefix, e)
			} else {
				appendCopy(t, seeded, e)
				appendCopy(t, bare, e)
			}
		}

		sg := deps.NewIncrementalFrom(seeded, pg.Frontier()).Snapshot()
		if sg.Epoch() != full.Epoch() {
			t.Fatalf("seed %d: seeded epoch %d, want %d", seed, sg.Epoch(), full.Epoch())
		}
		bg := deps.NewIncremental(bare).Snapshot()
		for _, c := range []struct {
			name      string
			got, want []deps.Edge
		}{
			{"seeded flow", sg.Flow(), restrict(full.Flow(), intoSuffix)},
			{"seeded anti", sg.Anti(), restrict(full.Anti(), intoSuffix)},
			{"seeded output", sg.Output(), restrict(full.Output(), intoSuffix)},
			{"bare flow", bg.Flow(), restrict(full.Flow(), intoSuffix)},
			{"bare anti", bg.Anti(), restrict(full.Anti(), withinSuffix)},
			{"bare output", bg.Output(), restrict(full.Output(), withinSuffix)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s edges differ from the full fold's restriction:\n got %v\nwant %v", seed, c.name, c.got, c.want)
			}
		}
		checkAdjacency(t, fmt.Sprintf("seed %d seeded", seed), sg)
		checkAdjacency(t, fmt.Sprintf("seed %d bare", seed), bg)
		crossing += len(restrict(full.Flow(), func(e deps.Edge) bool { return intoSuffix(e) && lsn[e.From] <= cut }))
	}
	if crossing < 12 {
		t.Fatalf("only %d flow edges cross the cuts; the test is near-vacuous", crossing)
	}
}

// TestRebaseEqualsSeededGraph: a live graph rebased at a cut — the durable
// checkpoint's horizon step — holds exactly what a graph seeded from the
// frontier at that cut holds after folding the same suffix (the restart's
// construction), keeps folding new commits the same way, and leaves a view
// taken before the rebase reading the prefix it pinned.
func TestRebaseEqualsSeededGraph(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		s, err := scenario.Random(seed, scenario.DefaultRandomConfig(), true)
		if err != nil {
			t.Fatal(err)
		}
		entries := s.Log().Entries()
		cut, later := len(entries)/3, 2*len(entries)/3

		prefix := wlog.New()
		pg := deps.NewIncremental(prefix)
		live := wlog.New()
		g := deps.NewIncremental(live)
		for i, e := range entries[:later] {
			if i < cut {
				appendCopy(t, prefix, e)
			}
			appendCopy(t, live, e)
		}
		before := g.Snapshot()
		beforeFlow := before.Flow()

		if err := g.Rebase(deps.Frontier{Epoch: later + 1}); err == nil {
			t.Fatalf("seed %d: rebase beyond the folded range accepted", seed)
		}
		live.TruncateBefore(cut)
		if err := g.Rebase(pg.Frontier()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, e := range entries[later:] {
			appendCopy(t, live, e)
		}

		seeded := wlog.NewAt(cut)
		for _, e := range entries[cut:] {
			appendCopy(t, seeded, e)
		}
		want := deps.NewIncrementalFrom(seeded, pg.Frontier())
		got, wantG := g.Snapshot(), want.Snapshot()
		if got.Epoch() != wantG.Epoch() || !reflect.DeepEqual(g.Frontier(), want.Frontier()) {
			t.Fatalf("seed %d: rebased graph at epoch %d, seeded at %d, or frontiers differ", seed, got.Epoch(), wantG.Epoch())
		}
		for _, c := range []struct {
			name      string
			got, want []deps.Edge
		}{
			{"flow", got.Flow(), wantG.Flow()},
			{"anti", got.Anti(), wantG.Anti()},
			{"output", got.Output(), wantG.Output()},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: rebased %s edges differ from the seeded graph's:\n got %v\nwant %v", seed, c.name, c.got, c.want)
			}
		}
		checkAdjacency(t, fmt.Sprintf("seed %d rebased", seed), got)
		if !reflect.DeepEqual(before.Flow(), beforeFlow) {
			t.Fatalf("seed %d: a view taken before the rebase changed", seed)
		}
	}
	t.Run("chain", rebaseChain)
}

// pinnedView is a graph view with the edges it showed when it was taken, and
// the graph a restart seeded at the view's base would build over the entries
// it holds.
type pinnedView struct {
	label              string
	g                  *deps.Graph
	flow, anti, output []deps.Edge
	seeded             *deps.Graph
	held               []*wlog.Entry
}

func pin(label string, g, seeded *deps.Graph, held []*wlog.Entry) pinnedView {
	return pinnedView{label, g, g.Flow(), g.Anti(), g.Output(), seeded, held}
}

// check requires the view to show the same edges and successor walks as when
// it was taken, and to answer every query as the seeded graph does.
func (v pinnedView) check(t *testing.T, when string) {
	t.Helper()
	if !reflect.DeepEqual(v.g.Flow(), v.flow) || !reflect.DeepEqual(v.g.Anti(), v.anti) || !reflect.DeepEqual(v.g.Output(), v.output) {
		t.Fatalf("%s: the view %s changed", when, v.label)
	}
	checkAdjacency(t, when+": view "+v.label, v.g)
	sameAnswers(t, when+": view "+v.label, v.g, v.seeded, v.held)
}

// sameAnswers requires got to answer as want does, for every held entry and
// every source of an edge into one: the flow, anti and output successors, in
// order, and the readers closure.
func sameAnswers(t *testing.T, label string, got, want *deps.Graph, held []*wlog.Entry) {
	t.Helper()
	ids := make(map[wlog.InstanceID]bool, len(held))
	for _, e := range held {
		ids[e.ID()] = true
	}
	for _, edges := range [][]deps.Edge{want.Flow(), want.Anti(), want.Output()} {
		for _, e := range edges {
			ids[e.From] = true
		}
	}
	for id := range ids {
		for _, rel := range []struct {
			name      string
			got, want func(wlog.InstanceID, func(wlog.InstanceID))
		}{
			{"flow", got.FlowSuccessors, want.FlowSuccessors},
			{"anti", got.AntiSuccessors, want.AntiSuccessors},
			{"output", got.OutputSuccessors, want.OutputSuccessors},
		} {
			if g, w := successorsOf(rel.got, id), successorsOf(rel.want, id); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: %s successors of %s = %v, the seeded graph's %v", label, rel.name, id, g, w)
			}
		}
		seed := map[wlog.InstanceID]bool{id: true}
		if g, w := got.ReadersClosure(seed), want.ReadersClosure(seed); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: readers closure of %s has %d members, the seeded graph's %d", label, id, len(g), len(w))
		}
	}
}

// seededAt is the graph a restart builds at cut: seeded from the frontier of
// a graph over entries[:cut] and fed entries[cut:head].
func seededAt(t *testing.T, entries []*wlog.Entry, cut, head int) (*deps.IncrementalGraph, deps.Frontier) {
	t.Helper()
	prefix := wlog.New()
	pg := deps.NewIncremental(prefix)
	for _, e := range entries[:cut] {
		appendCopy(t, prefix, e)
	}
	seeded := wlog.NewAt(cut)
	for _, e := range entries[cut:head] {
		appendCopy(t, seeded, e)
	}
	return deps.NewIncrementalFrom(seeded, pg.Frontier()), pg.Frontier()
}

// assertSameGraph requires got to hold exactly what want holds.
func assertSameGraph(t *testing.T, label string, got, want *deps.IncrementalGraph) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if gs.Epoch() != ws.Epoch() || !reflect.DeepEqual(got.Frontier(), want.Frontier()) {
		t.Fatalf("%s: graph at epoch %d, seeded at %d, or frontiers differ", label, gs.Epoch(), ws.Epoch())
	}
	for _, c := range []struct {
		name      string
		got, want []deps.Edge
	}{
		{"flow", gs.Flow(), ws.Flow()},
		{"anti", gs.Anti(), ws.Anti()},
		{"output", gs.Output(), ws.Output()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s edges differ from the seeded graph's:\n got %v\nwant %v", label, c.name, c.got, c.want)
		}
	}
	checkAdjacency(t, label, gs)
}

// rebaseChain is TestRebaseEqualsSeededGraph for a horizon that trails the
// head tick by tick: 50 small rebases, commits landing between them, each
// leave the graph a restart seeded at its cut would build, and every view
// taken before any of them keeps answering as a graph seeded at its own base
// over the entries it holds — through prefix drops that keep the ordinals
// and share the entry chunks (crossing chunk boundaries), drops that
// outweigh what is kept, and a drop at the head.
func rebaseChain(t *testing.T) {
	cfg := scenario.DefaultRandomConfig()
	cfg.Runs = 200
	for seed := int64(0); seed < 3; seed++ {
		s, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		entries := s.Log().Entries()
		n := len(entries)
		if n < 600 {
			t.Fatalf("seed %d: %d entries, want at least 600 to cross entry chunks", seed, n)
		}
		live := wlog.New()
		g := deps.NewIncremental(live)
		const steps = 50
		head, prev := 0, 0
		var views []pinnedView
		for step := 0; step <= steps; step++ {
			next := n/4 + (n-n/4)*step/steps
			for _, e := range entries[head:next] {
				appendCopy(t, live, e)
			}
			head = next
			label := fmt.Sprintf("seed %d step %d", seed, step)
			seeded, _ := seededAt(t, entries, prev, head)
			views = append(views, pin(label, g.Snapshot(), seeded.Snapshot(), entries[prev:head]))
			// Mostly half the history is kept; now and then much less,
			// so a drop outweighs what is kept.
			cut := max(prev+1, head/2)
			if step%7 == 6 {
				cut = prev + (head-prev)*2/3
			}
			if step == steps {
				cut = head
			}
			want, f := seededAt(t, entries, cut, head)
			live.TruncateBefore(cut)
			if err := g.Rebase(f); err != nil {
				t.Fatalf("%s: rebase at %d: %v", label, cut, err)
			}
			prev = cut
			assertSameGraph(t, fmt.Sprintf("%s: rebased at %d of %d", label, cut, head), g, want)
			checked := views[len(views)-1:]
			if step%10 == 0 || step == steps {
				checked = views
			}
			for _, v := range checked {
				v.check(t, label)
			}
		}
	}
}

// TestRebaseCostFollowsDropped: a rebase that keeps most of the history does
// not refold what it keeps. Dropping the same 64 entries from a graph whose
// kept suffix is ten times longer allocates no more.
func TestRebaseCostFollowsDropped(t *testing.T) {
	const dropped, keys = 64, 16
	allocs := func(kept int) float64 {
		graphs := make([]*deps.IncrementalGraph, 2) // AllocsPerRun warms up once
		fronts := make([]deps.Frontier, len(graphs))
		for i := range graphs {
			l := wlog.New()
			graphs[i] = deps.NewIncremental(l)
			var last [keys]string
			for j := 0; j < dropped+kept; j++ {
				rk, wk := data.Key(fmt.Sprintf("k%d", j%keys)), j*7%keys
				e := &wlog.Entry{Run: fmt.Sprintf("r%d", j), Task: "t", Visit: 1,
					Reads:  []wlog.Read{{Key: rk, ReadObs: wlog.ReadObs{Writer: last[j%keys]}}},
					Writes: []wlog.Write{{Key: data.Key(fmt.Sprintf("k%d", wk)), Value: data.Value(j)}}}
				if _, err := l.Append(e); err != nil {
					t.Fatal(err)
				}
				last[wk] = string(e.ID())
			}
			f, err := graphs[i].FrontierAt(dropped)
			if err != nil {
				t.Fatal(err)
			}
			fronts[i] = f
		}
		i := 0
		return testing.AllocsPerRun(1, func() {
			if err := graphs[i].Rebase(fronts[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	short, long := allocs(10*dropped), allocs(100*dropped)
	t.Logf("one rebase dropping %d entries: %.0f allocations with %d kept, %.0f with %d kept", dropped, short, 10*dropped, long, 100*dropped)
	if long > short {
		t.Fatalf("dropping %d entries allocated %.0f times with %d kept but %.0f times with %d kept: the rebase refolds what it keeps",
			dropped, short, 10*dropped, long, 100*dropped)
	}
}

// TestFrontierAt: the frontier at an older epoch equals the one a graph over
// the log prefix ending there holds, in the first generation and after a
// rebase, and an epoch outside the folded range is refused.
func TestFrontierAt(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		s, err := scenario.Random(seed, scenario.DefaultRandomConfig(), true)
		if err != nil {
			t.Fatal(err)
		}
		entries := s.Log().Entries()
		live := wlog.New()
		g := deps.NewIncremental(live)
		for _, e := range entries {
			appendCopy(t, live, e)
		}
		check := func(label string, epoch int) {
			t.Helper()
			prefix := wlog.New()
			want := deps.NewIncremental(prefix)
			for _, e := range entries[:epoch] {
				appendCopy(t, prefix, e)
			}
			got, err := g.FrontierAt(epoch)
			if err != nil {
				t.Fatalf("seed %d %s: FrontierAt(%d): %v", seed, label, epoch, err)
			}
			if w := want.Frontier(); !reflect.DeepEqual(got, w) {
				t.Fatalf("seed %d %s: FrontierAt(%d) differs from the prefix graph's frontier:\n got %+v\nwant %+v", seed, label, epoch, got, w)
			}
		}
		n := len(entries)
		for _, epoch := range []int{0, 1, n / 3, n / 2, n - 1, n} {
			check("first generation", epoch)
		}
		cut := n / 3
		f, err := g.FrontierAt(cut)
		if err != nil {
			t.Fatal(err)
		}
		live.TruncateBefore(cut)
		if err := g.Rebase(f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, epoch := range []int{cut, cut + 1, (cut + n) / 2, n} {
			check("rebased", epoch)
		}
		for _, epoch := range []int{cut - 1, n + 1} {
			if _, err := g.FrontierAt(epoch); err == nil {
				t.Fatalf("seed %d: FrontierAt(%d) outside the folded range %d..%d accepted", seed, epoch, cut, n)
			}
		}
	}
}

// TestRebaseRacesAppend (run under -race): a rebase runs while the log's
// commit hook keeps appending, and the graph it leaves equals one seeded at
// the rebase epoch and fed the whole suffix — no entry appended around the
// rebase is lost or folded twice.
func TestRebaseRacesAppend(t *testing.T) {
	cfg := scenario.DefaultRandomConfig()
	cfg.Runs = 8
	for seed := int64(0); seed < 8; seed++ {
		s, err := scenario.Random(seed, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		entries := s.Log().Entries()
		n := len(entries)
		cut, start := n/4, n/2
		live := wlog.New()
		g := deps.NewIncremental(live)
		for _, e := range entries[:start] {
			appendCopy(t, live, e)
		}
		f, err := g.FrontierAt(cut)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- g.Rebase(f) }()
		for _, e := range entries[start:] {
			appendCopy(t, live, e)
		}
		if err := <-done; err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		seeded := wlog.NewAt(cut)
		for _, e := range entries[cut:] {
			appendCopy(t, seeded, e)
		}
		want := deps.NewIncrementalFrom(seeded, f)
		got, wantG := g.Snapshot(), want.Snapshot()
		if got.Epoch() != wantG.Epoch() || !reflect.DeepEqual(g.Frontier(), want.Frontier()) {
			t.Fatalf("seed %d: rebased graph at epoch %d, seeded at %d, or frontiers differ", seed, got.Epoch(), wantG.Epoch())
		}
		for _, c := range []struct {
			name      string
			got, want []deps.Edge
		}{
			{"flow", got.Flow(), wantG.Flow()},
			{"anti", got.Anti(), wantG.Anti()},
			{"output", got.Output(), wantG.Output()},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s edges after a rebase racing appends differ from the seeded graph's", seed, c.name)
			}
		}
		checkAdjacency(t, fmt.Sprintf("seed %d rebased under appends", seed), got)
	}
}

// TestSnapshotReadersRaceAppend (run under -race): snapshot readers walk the
// adjacency container while the log's commit hook keeps appending to it, and
// no walk may ever deliver a successor committed after its snapshot's epoch.
func TestSnapshotReadersRaceAppend(t *testing.T) {
	cfg := scenario.DefaultRandomConfig()
	cfg.Runs = 8
	s, err := scenario.Random(3, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	entries := s.Log().Entries()
	lsn := make(map[wlog.InstanceID]int, len(entries))
	ids := make([]wlog.InstanceID, len(entries))
	for i, e := range entries {
		lsn[e.ID()], ids[i] = e.LSN, e.ID() // the copy log assigns the same LSNs
	}

	live := wlog.New()
	g := deps.NewIncremental(live)
	done := make(chan struct{})
	passes := make(chan struct{}, 1) // a reader finished a pass; paces the appender
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last pass over the complete graph
				default:
				}
				snap := g.Snapshot()
				check := func(to wlog.InstanceID) {
					if lsn[to] > snap.Epoch() {
						t.Errorf("snapshot at epoch %d delivered %s (LSN %d)", snap.Epoch(), to, lsn[to])
					}
				}
				for _, id := range ids {
					snap.FlowSuccessors(id, check)
					snap.AntiSuccessors(id, check)
					snap.OutputSuccessors(id, check)
				}
				for id := range snap.ReadersClosure(map[wlog.InstanceID]bool{ids[0]: true}) {
					if id != ids[0] { // the seed is in its closure by contract
						check(id)
					}
				}
				for _, e := range snap.Flow() {
					check(e.To)
				}
				select {
				case passes <- struct{}{}:
				default:
				}
			}
		}()
	}
	for _, e := range entries {
		<-passes // so the walks really interleave with the fold
		appendCopy(t, live, e)
	}
	close(done)
	wg.Wait()
	if got, want := g.Snapshot().Flow(), deps.Build(s.Log()).Flow(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flow edges after the concurrent fold differ from batch Build")
	}
}

// TestFarSuccessors: a chunk keeps an entry's first successors in 16 bits
// each, which reach 1<<14 ordinals; a successor further away, and every one
// after it, is kept beyond them. The walks still deliver every edge in
// commit order, before and after a rebase that drops the source, and
// answer as a graph seeded at the cut does.
func TestFarSuccessors(t *testing.T) {
	var entries []*wlog.Entry
	add := func(run string, read []data.Key, writer wlog.InstanceID, write data.Key) {
		e := &wlog.Entry{LSN: len(entries) + 1, Run: run, Task: "t", Visit: 1,
			Writes: []wlog.Write{{Key: write, Value: 1}}}
		for _, k := range read {
			e.Reads = append(e.Reads, wlog.Read{Key: k, ReadObs: wlog.ReadObs{Writer: string(writer)}})
		}
		entries = append(entries, e)
	}
	src := wlog.InstanceID("src/t#1")
	add("src", nil, "", "hot")
	add("near", []data.Key{"hot"}, src, "near")
	for i := 0; i < 20000; i++ {
		add(fmt.Sprintf("fill%d", i), nil, "", data.Key(fmt.Sprintf("f%d", i)))
	}
	for i := 0; i < 3; i++ {
		add(fmt.Sprintf("far%d", i), []data.Key{"hot"}, src, data.Key(fmt.Sprintf("far%d", i)))
	}
	add("over", nil, "", "hot")

	live := wlog.New()
	g := deps.NewIncremental(live)
	for _, e := range entries {
		appendCopy(t, live, e)
	}
	snap := g.Snapshot()
	want := []wlog.InstanceID{"near/t#1", "far0/t#1", "far1/t#1", "far2/t#1"}
	if got := successorsOf(snap.FlowSuccessors, src); !reflect.DeepEqual(got, want) {
		t.Fatalf("flow successors of %s = %v, want %v", src, got, want)
	}
	if got := successorsOf(snap.OutputSuccessors, src); !reflect.DeepEqual(got, []wlog.InstanceID{"over/t#1"}) {
		t.Fatalf("output successors of %s = %v, want [over/t#1]", src, got)
	}
	if got := len(snap.ReadersClosure(map[wlog.InstanceID]bool{src: true})); got != 5 {
		t.Fatalf("readers closure of %s has %d members, want 5", src, got)
	}
	checkAdjacency(t, "far successors", snap)

	cut, head := 10, len(entries)
	seeded, f := seededAt(t, entries, cut, head)
	live.TruncateBefore(cut)
	if err := g.Rebase(f); err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, "far successors rebased", g, seeded)
	sameAnswers(t, "far successors rebased", g.Snapshot(), seeded.Snapshot(), entries[cut:])
	full := wlog.New()
	for _, e := range entries {
		appendCopy(t, full, e)
	}
	sameAnswers(t, "far successors, a view from before the rebase", snap, deps.Build(full), entries)
}
