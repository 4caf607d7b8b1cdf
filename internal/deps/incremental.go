// Incremental dependence maintenance: the same flow/anti/output relations
// Build extracts, maintained as an O(Δ) Append hook at commit time instead
// of an O(log) rescan per analysis. An IncrementalGraph subscribes to the
// system log (wlog.Log.OnAppend) and folds every committed entry into
//
//   - the frontier: per key, the writer chain's tail and the readers since
//     it (output deps and anti-dep resolution need nothing older),
//   - one adjacency container holding every edge exactly once, as a
//     (successor ordinal, relation) word under its source instance,
//   - the list of folded entries, which turns an ordinal back into the
//     successor's instance ID.
//
// Snapshot() returns an immutable *Graph view pinned to the epoch (the LSN
// of the last folded entry): edges and closure results never include work
// committed after the snapshot, so the recovery analyzer reads a consistent
// log prefix while normal processing keeps committing — the on-line
// discipline of §IV without per-alert rescans.
package deps

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"selfheal/internal/data"
	"selfheal/internal/wlog"
)

// relation names one of the three data-dependence relations.
type relation uint8

const (
	relFlow relation = iota
	relAnti
	relOutput
)

// succ is one adjacency record — the whole stored form of an edge: the
// successor's ordinal (its index in its generation's entries, which for a
// log-fed graph is its LSN offset by the generation's seed epoch) shifted over
// the relation. An edge is created by its successor's commit, so a source's
// records are in ascending ordinal order and "beyond the snapshot" is
// "ordinal ≥ snapshot length".
type succ uint64

func (s succ) ord() int      { return int(s >> 2) }
func (s succ) rel() relation { return relation(s & 3) }

// IncrementalGraph maintains the dependence relations of a growing log.
// Safe for concurrent use: Append (driven by the log's commit hook) and
// Rebase take the write lock, snapshot reads take the read lock.
type IncrementalGraph struct {
	mu sync.RWMutex
	// folded is the current generation: Append grows it, Rebase replaces it.
	*folded
	// cur is the fold state after the last entry (cur.Epoch is the graph's
	// epoch).
	cur Frontier
}

// folded is one generation of the graph: the entries folded since its seed
// and the edges they closed. A view pins the generation it was taken from,
// so a Rebase never moves an ordinal under a reader.
type folded struct {
	lock *sync.RWMutex // the owning graph's mu
	// entries are the folded entries in commit order; an entry's index is
	// the ordinal adjacency records name it by.
	entries []*wlog.Entry
	// adj holds every edge once, under its source. Sources are keyed by
	// instance ID because a source may predate the generation (a
	// frontier-seeded graph after a restore or a Rebase, a graph over a
	// partial log) and so have no ordinal; successors were folded by
	// definition.
	adj map[wlog.InstanceID][]succ
	// seed is the fold state before the first entry, from which the
	// edge-list views re-fold.
	seed Frontier
}

// NewIncremental returns an IncrementalGraph subscribed to log: entries
// already committed are folded in immediately and every future commit is
// folded at Append time, atomically and in LSN order.
func NewIncremental(log *wlog.Log) *IncrementalGraph {
	return NewIncrementalFrom(log, Frontier{})
}

// Frontier is the minimal resumable state of an IncrementalGraph: the fold
// epoch plus the per-key writer-chain tails and pending-reader sets. A graph
// seeded from a frontier and fed the log suffix after Epoch produces exactly
// the edges that suffix generates — including flow/anti/output edges whose
// From side lies below the epoch — which is what durable snapshots persist
// so a restart never has to re-fold the compacted log prefix.
type Frontier struct {
	// Epoch is the LSN of the last entry folded into the frontier.
	Epoch int
	// LastWriter is the tail of each key's writer chain at the epoch.
	LastWriter map[data.Key]wlog.InstanceID
	// Pending holds, per key, the readers since the last write (in commit
	// order): the instances the key's next writer anti-depends on.
	Pending map[data.Key][]wlog.InstanceID
}

// clone returns a deep copy of the frontier.
func (f Frontier) clone() Frontier {
	c := Frontier{
		Epoch:      f.Epoch,
		LastWriter: make(map[data.Key]wlog.InstanceID, len(f.LastWriter)),
		Pending:    make(map[data.Key][]wlog.InstanceID, len(f.Pending)),
	}
	for k, w := range f.LastWriter {
		c.LastWriter[k] = w
	}
	for k, rs := range f.Pending {
		c.Pending[k] = slices.Clone(rs)
	}
	return c
}

// fold advances the frontier over one committed entry and reports every
// dependence edge the entry closes (the entry is each edge's successor).
// Keys are visited in the entry's own order, which is sorted (wlog.Entry),
// so the emitted sequence is a deterministic function of the entry sequence:
// batch Build, a live hook-fed graph and the re-folded edge-list views all
// see the same edges in the same order.
func (f *Frontier) fold(e *wlog.Entry, emit func(rel relation, from wlog.InstanceID, k data.Key)) {
	id := e.ID()

	// Flow: the entry read a version written by a logged instance; the
	// recorded writer makes the masked dependence exact (Definition 1).
	for _, r := range e.Reads {
		if r.Writer != "" { // else: initial version or missing key
			emit(relFlow, wlog.InstanceID(r.Writer), r.Key)
		}
	}

	// Writes: each written key extends its writer chain, emitting an output
	// dep from the chain tail (consecutive writers only — masking) and
	// closing an anti dep from every reader since that tail. Writes are
	// resolved before the entry's own reads join the pending set, so a task
	// that reads and writes the same key anti-depends on the *next* writer,
	// never on itself.
	for _, w := range e.Writes {
		k := w.Key
		if prev, ok := f.LastWriter[k]; ok {
			emit(relOutput, prev, k)
		}
		for _, r := range f.Pending[k] {
			emit(relAnti, r, k)
		}
		delete(f.Pending, k)
		f.LastWriter[k] = id
	}

	for _, r := range e.Reads {
		f.Pending[r.Key] = append(f.Pending[r.Key], id)
	}
	f.Epoch = e.LSN
}

// Frontier returns a deep copy of the graph's resumable state.
func (ig *IncrementalGraph) Frontier() Frontier {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return ig.cur.clone()
}

// FrontierAt returns the frontier at an older epoch: the generation's seed
// folded over its entries up to epoch, exactly what NewIncremental over the
// log prefix ending at epoch would hold. Folded entries never change, so the
// fold runs outside the lock and commits keep landing meanwhile. An epoch
// outside the folded range is refused.
func (ig *IncrementalGraph) FrontierAt(epoch int) (Frontier, error) {
	ig.mu.RLock()
	gen, cur := ig.folded, ig.cur.Epoch
	if epoch == cur {
		defer ig.mu.RUnlock()
		return ig.cur.clone(), nil
	}
	n := sort.Search(len(gen.entries), func(i int) bool { return gen.entries[i].LSN > epoch })
	prefix := gen.entries[:n]
	ig.mu.RUnlock()
	if epoch < gen.seed.Epoch || epoch > cur {
		return Frontier{}, fmt.Errorf("deps: frontier at epoch %d outside the folded range %d..%d", epoch, gen.seed.Epoch, cur)
	}
	f := gen.seed.clone()
	for _, e := range prefix {
		f.fold(e, func(relation, wlog.InstanceID, data.Key) {})
	}
	f.Epoch = epoch
	return f, nil
}

// NewIncrementalFrom returns an IncrementalGraph seeded from a frontier and
// subscribed to log: entries already committed (the restored log suffix) are
// folded immediately and every future commit is folded at Append time. The
// log's entries must all carry LSNs above f.Epoch — the durable restore path
// guarantees this by rebuilding the log at base = snapshot epoch.
func NewIncrementalFrom(log *wlog.Log, f Frontier) *IncrementalGraph {
	g := newIncremental(f)
	log.OnAppend(g.Append)
	return g
}

func newIncremental(f Frontier) *IncrementalGraph {
	ig := &IncrementalGraph{cur: f.clone()}
	ig.folded = &folded{lock: &ig.mu, adj: make(map[wlog.InstanceID][]succ), seed: f.clone()}
	return ig
}

// Append folds one committed entry into the graph: O(Δ) in the entry's
// read/write set sizes, independent of total log length. Entries must be
// appended in LSN order (the log's OnAppend hook guarantees this).
func (ig *IncrementalGraph) Append(e *wlog.Entry) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	ig.appendLocked(e)
}

func (ig *IncrementalGraph) appendLocked(e *wlog.Entry) {
	to := succ(len(ig.entries)) << 2
	ig.entries = append(ig.entries, e)
	ig.cur.fold(e, func(rel relation, from wlog.InstanceID, _ data.Key) {
		ig.adj[from] = append(ig.adj[from], to|succ(rel))
	})
}

// Epoch returns the LSN of the last folded entry.
func (ig *IncrementalGraph) Epoch() int {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return ig.cur.Epoch
}

// Snapshot returns an immutable view of the graph at the current epoch.
// Taking a snapshot is O(1); the view stays consistent (it never sees edges
// from entries committed later) while the graph keeps growing.
func (ig *IncrementalGraph) Snapshot() *Graph {
	ig.mu.RLock()
	defer ig.mu.RUnlock()
	return &Graph{g: ig.folded, epoch: ig.cur.Epoch, n: len(ig.entries)}
}

// Rebase forgets the folded entries at or below f.Epoch — the log prefix a
// snapshot or a horizon covers — and continues from f, the frontier at that
// epoch: the entries above it are folded again into a fresh generation, so
// the graph ends up exactly as NewIncrementalFrom(f) over the same suffix
// would build it, at a cost proportional to the suffix. The refold runs
// outside the lock, so commits keep folding meanwhile; only the entries they
// appended in between are folded under it, at the swap. Views taken before
// keep reading the generation they pinned. A frontier outside the graph's
// folded range is refused; one at the current seed is a no-op.
func (ig *IncrementalGraph) Rebase(f Frontier) error {
	ig.mu.RLock()
	gen, cur, folded := ig.folded, ig.cur.Epoch, ig.entries
	ig.mu.RUnlock()
	if f.Epoch < gen.seed.Epoch || f.Epoch > cur {
		return fmt.Errorf("deps: rebase at epoch %d outside the folded range %d..%d", f.Epoch, gen.seed.Epoch, cur)
	}
	if f.Epoch == gen.seed.Epoch {
		return nil
	}
	next := newIncremental(f)
	next.lock = &ig.mu
	i := sort.Search(len(folded), func(i int) bool { return folded[i].LSN > f.Epoch })
	for _, e := range folded[i:] {
		next.appendLocked(e)
	}
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.folded != gen {
		return fmt.Errorf("deps: concurrent rebase at epoch %d", f.Epoch)
	}
	for _, e := range ig.entries[len(folded):] {
		next.appendLocked(e)
	}
	ig.folded, ig.cur = next.folded, next.cur
	return nil
}

// walk invokes fn with the ordinal of every rel-successor of from among the
// first n folded entries, in commit order, one call per edge (per-key
// multiplicity preserved). Callers hold the graph's lock.
func (gen *folded) walk(rel relation, from wlog.InstanceID, n int, fn func(ord int)) {
	for _, s := range gen.adj[from] {
		if s.ord() >= n {
			break // records are in commit order: nothing later qualifies
		}
		if s.rel() == rel {
			fn(s.ord())
		}
	}
}

// succAt is walk under the read lock, delivering instance IDs.
func (gen *folded) succAt(rel relation, from wlog.InstanceID, n int, fn func(to wlog.InstanceID)) {
	gen.lock.RLock()
	defer gen.lock.RUnlock()
	gen.walk(rel, from, n, func(ord int) { fn(gen.entries[ord].ID()) })
}

// edgesAt derives the rel edge list of the first n folded entries by
// re-folding them from the seed frontier — the cold path behind Flow, Anti
// and Output (rendering and tests); analysis and repair walk succAt.
func (gen *folded) edgesAt(rel relation, n int) []Edge {
	gen.lock.RLock()
	defer gen.lock.RUnlock()
	f := gen.seed.clone()
	var out []Edge
	for _, e := range gen.entries[:n] {
		f.fold(e, func(r relation, from wlog.InstanceID, k data.Key) {
			if r == rel {
				out = append(out, Edge{From: from, To: e.ID(), Key: k})
			}
		})
	}
	return out
}
