package recovery

import (
	"sort"
	"strings"
	"sync"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// component groups runs whose key footprints are transitively connected.
// Because every flow, anti-flow and output dependence — and therefore every
// Theorem-3 constraint edge between non-candidate actions — requires a
// shared data object, the constraint DAG never crosses component boundaries:
// each component's replay is an independent subgraph of the partial order.
type component struct {
	runs []string   // sorted by first appearance in the log
	keys []data.Key // sorted footprint union
}

// buildComponents partitions the logged, specified runs into key-footprint
// components (union-find over run and key nodes). It returns the components
// in deterministic order (by each component's first run in log order) plus
// key → component and run → component lookup tables.
func buildComponents(log *wlog.Log, specs map[string]*wf.Spec) (list []component, keyComp map[data.Key]int, runComp map[string]int) {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			if !ok {
				parent[x] = x
			}
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	const keyPrefix = "k\x00"
	runNode := func(run string) string { return "r\x00" + run }
	keyNode := func(k data.Key) string { return keyPrefix + string(k) }

	var runs []string
	for _, run := range log.Runs() {
		spec, ok := specs[run]
		if !ok {
			continue // forged-only run: no walker, no footprint
		}
		runs = append(runs, run)
		rn := runNode(run)
		find(rn)
		for _, k := range specFootprint(spec) {
			union(rn, keyNode(k))
		}
	}

	keyComp = make(map[data.Key]int)
	runComp = make(map[string]int)
	compOf := make(map[string]int)
	for _, run := range runs {
		root := find(runNode(run))
		ci, ok := compOf[root]
		if !ok {
			ci = len(list)
			compOf[root] = ci
			list = append(list, component{})
		}
		list[ci].runs = append(list[ci].runs, run)
		runComp[run] = ci
	}
	keyNodes := make([]string, 0, len(parent))
	for n := range parent {
		if strings.HasPrefix(n, keyPrefix) {
			keyNodes = append(keyNodes, n)
		}
	}
	sort.Strings(keyNodes)
	for _, n := range keyNodes {
		ci, ok := compOf[find(n)]
		if !ok {
			continue
		}
		k := data.Key(n[len(keyPrefix):])
		list[ci].keys = append(list[ci].keys, k)
		keyComp[k] = ci
	}
	return list, keyComp, runComp
}

// specFootprint returns the sorted set of every key a spec's tasks read or
// write — the run's complete data-object footprint.
func specFootprint(spec *wf.Spec) []data.Key {
	set := make(map[data.Key]bool)
	for _, t := range spec.Tasks {
		for _, k := range t.Reads {
			set[k] = true
		}
		for _, k := range t.Writes {
			set[k] = true
		}
	}
	out := make([]data.Key, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// replayComponents is the component-factored replay pass: it partitions the
// runs by key footprint, marks the components connected to the undo set as
// damaged, optionally (ScopeToDamage) confines the pass to those, and
// replays the active components concurrently over a bounded worker pool —
// the §IV concurrent-recovery executor. Store safety needs no coordination
// beyond the store's own mutex: active components own disjoint key sets, so
// their walkers never observe each other's writes and the merged result is
// independent of goroutine scheduling.
func replayComponents(st *data.Store, log *wlog.Log, specs map[string]*wf.Spec, g *deps.Graph, undo map[wlog.InstanceID]bool, opts Options, it *iterationResult, staged []*wlog.Entry, writers []string, undoStart time.Time) (*iterationResult, error) {
	comps, keyComp, runComp := buildComponents(log, specs)

	damaged := make([]bool, len(comps))
	extraKeys := make(map[data.Key]bool) // undone writes outside every footprint (forged-only keys)
	for _, e := range staged {
		if ci, ok := runComp[e.Run]; ok {
			damaged[ci] = true
		}
		for _, w := range e.Writes {
			if ci, ok := keyComp[w.Key]; ok {
				damaged[ci] = true
			} else {
				extraKeys[w.Key] = true
			}
		}
	}

	var active []int
	for i := range comps {
		if !opts.ScopeToDamage || damaged[i] {
			active = append(active, i)
		}
	}

	// Strip versions written by earlier repairs — globally when replaying
	// everything, but only on the damaged chains when scoped: recovery
	// versions on clean chains have no walker to rebuild them and must
	// pass through untouched. Then perform the staged undos in one batch.
	if opts.ScopeToDamage {
		keySet := make(map[data.Key]bool)
		for _, ci := range active {
			for _, k := range comps[ci].keys {
				keySet[k] = true
			}
		}
		for k := range extraKeys {
			keySet[k] = true
		}
		dk := make([]data.Key, 0, len(keySet))
		for k := range keySet {
			dk = append(dk, k)
		}
		sort.Slice(dk, func(i, j int) bool { return dk[i] < dk[j] })
		it.damagedKeys = dk
		st.DeleteRecoveryVersionsIn(dk)
	} else {
		st.DeleteRecoveryVersions()
	}
	st.DeleteWritesBatch(writers)
	it.undoDur = time.Since(undoStart)
	redoStart := time.Now()

	outs := make([]*iterationResult, len(active))
	errs := make([]error, len(active))
	wrongs := make([][]wlog.InstanceID, len(active))
	runOne := func(slot int) {
		ci := active[slot]
		sub := &iterationResult{store: st, newUndo: make(map[wlog.InstanceID]bool)}
		walkers := make([]*walker, 0, len(comps[ci].runs))
		for _, run := range comps[ci].runs {
			walkers = append(walkers, newWalker(run, specs[run], log, opts))
		}
		if err := replayWalkers(st, log, undo, sub, walkers); err != nil {
			errs[slot] = err
			return
		}
		for _, w := range walkers {
			for _, e := range w.remaining {
				wrongs[slot] = append(wrongs[slot], e.ID())
			}
		}
		outs[slot] = sub
	}
	workers := opts.Parallel
	if workers > len(active) {
		workers = len(active)
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		for slot := range active {
			runOne(slot)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for slot := range idx {
					runOne(slot)
				}
			}()
		}
		for slot := range active {
			idx <- slot
		}
		close(idx)
		wg.Wait()
	}
	it.components = len(active)
	it.workers = workers

	var wrong []wlog.InstanceID
	var merged []Action
	for slot := range active {
		if errs[slot] != nil {
			return nil, errs[slot]
		}
		sub := outs[slot]
		merged = append(merged, sub.schedule...)
		it.redone = append(it.redone, sub.redone...)
		it.newExecuted = append(it.newExecuted, sub.newExecuted...)
		it.keptVerified += sub.keptVerified
		for id := range sub.newUndo {
			it.newUndo[id] = true
		}
		wrong = append(wrong, wrongs[slot]...)
	}
	// Each component's schedule ascends in effective position, so a stable
	// merge by position is a valid linear extension of the union of the
	// per-component partial orders (constraint edges never cross
	// components; see component).
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Epos < merged[j].Epos })
	it.schedule = append(it.schedule, merged...)

	closeNewUndo(g, it, wrong)
	it.redoDur = time.Since(redoStart)
	sortIDs(it.redone)
	sortIDs(it.newExecuted)
	return it, nil
}

// KeyComponents exposes the key-footprint component decomposition to other
// layers: it returns each key's component index (keys outside every logged
// run's footprint are absent) and the component count. The durable restore
// path partitions its parallel chain replay along these components, so the
// unit of replay parallelism matches the unit of repair parallelism.
func KeyComponents(log *wlog.Log, specs map[string]*wf.Spec) (map[data.Key]int, int) {
	list, keyComp, _ := buildComponents(log, specs)
	return keyComp, len(list)
}

// Footprint returns the sorted set of every key a spec's tasks read or
// write — the run's complete data-object footprint. The shard layer's
// durable mode uses it to refuse repairs that would need the truncated
// pre-snapshot history of a spanning run.
func Footprint(spec *wf.Spec) []data.Key {
	return specFootprint(spec)
}
