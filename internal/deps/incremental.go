// Incremental dependence maintenance: the same flow/anti/output relations
// Build extracts, maintained as an O(Δ) Append hook at commit time instead
// of an O(log) rescan per analysis. An IncrementalGraph subscribes to the
// system log (wlog.Log.OnAppend) and folds every committed entry into
//
//   - the frontier: per key, the writer chain's tail and the readers since
//     it (output deps and anti-dep resolution need nothing older),
//   - one adjacency container holding every edge exactly once, as a
//     (successor ordinal, relation) word under its source instance,
//   - the folded entries by ordinal, which turn an ordinal back into the
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
// successor's ordinal (its position in the graph's fold order, counted from
// the chain's origin and never rewritten by a Rebase that drops a prefix)
// shifted over the relation. An edge is created by its successor's commit,
// so a source's records are in ascending ordinal order and "beyond the
// snapshot" is "ordinal ≥ the snapshot's end".
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
	// dropping is what the last FrontierAt learned on its way to an older
	// epoch: the sources of every edge into the entries it folded, which
	// are the edges a Rebase to that epoch drops. One fold serves both.
	dropping struct {
		gen     *folded
		epoch   int
		sources map[wlog.InstanceID]bool
	}
}

// folded is one generation of the graph: the entries folded since its seed
// and the edges they closed. A view pins the generation it was taken from,
// so a Rebase never moves an ordinal under a reader.
//
// A Rebase that keeps most of the history drops a prefix instead of
// refolding (dropPrefix): the next generation continues the same ordinals
// and shares this one's entry chunks and adjacency container, and this one
// keeps, in saved, every adjacency list the drop trimmed, as it saw it. A
// generation's chain is the run of generations linked by next; they share
// one adjacency container, until a drop gives the next generation a fresh
// one.
type folded struct {
	lock *sync.RWMutex // the owning graph's mu
	// base and end bound the generation's ordinals: it holds the entries
	// base..end-1, in commit order.
	base, end int
	// chunks hold the entries by ordinal (entry). A generation shares
	// every chunk it keeps with the one it replaced, so dropping a prefix
	// copies a directory of chunk pointers, never the entries, and at most
	// one chunk of dropped entries stays reachable.
	chunks []*chunk
	// adj holds every edge once, under its source. Sources are keyed by
	// instance ID because a source may predate the generation (a
	// frontier-seeded graph after a restore or a Rebase, a graph over a
	// partial log) and so have no ordinal; successors were folded by
	// definition.
	adj map[wlog.InstanceID][]succ
	// next is the generation a prefix drop replaced this one by, and
	// saved the adjacency lists that drop trimmed, untrimmed: a view of
	// this generation reads them there (list).
	next  *folded
	saved map[wlog.InstanceID][]succ
	// deleted counts the sources prefix drops deleted from the adjacency
	// container since it was built (dropPrefix).
	deleted int
	// seed is the fold state before the first entry, from which the
	// edge-list views re-fold.
	seed Frontier
}

// chunkBits sizes the blocks folded entries are stored in.
const chunkBits = 8

const chunkMask = 1<<chunkBits - 1

type chunk [1 << chunkBits]*wlog.Entry

// entry returns the entry with ordinal ord, which the generation holds.
func (gen *folded) entry(ord int) *wlog.Entry {
	return gen.chunks[ord>>chunkBits-gen.base>>chunkBits][ord&chunkMask]
}

// push stores e at the next ordinal and returns it. Callers hold the write
// lock (or own the generation alone).
func (gen *folded) push(e *wlog.Entry) int {
	ord := gen.end
	if ord&chunkMask == 0 {
		gen.chunks = append(gen.chunks, new(chunk))
	}
	gen.chunks[len(gen.chunks)-1][ord&chunkMask] = e
	gen.end++
	return ord
}

// search returns the first ordinal of the generation whose entry's LSN is
// above lsn (end if none is).
func (gen *folded) search(lsn int) int {
	return gen.base + sort.Search(gen.end-gen.base, func(i int) bool { return gen.entry(gen.base+i).LSN > lsn })
}

// list returns from's adjacency list as the generation saw it: trimmed by no
// later prefix drop of its chain. Callers hold the lock.
func (gen *folded) list(from wlog.InstanceID) []succ {
	for g := gen; g.next != nil; g = g.next {
		if l, ok := g.saved[from]; ok {
			return l
		}
	}
	return gen.adj[from]
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
// fold runs outside the lock and commits keep landing meanwhile. The fold
// also finds the edges a Rebase to epoch drops, which that Rebase then
// reuses. An epoch outside the folded range is refused.
func (ig *IncrementalGraph) FrontierAt(epoch int) (Frontier, error) {
	ig.mu.RLock()
	gen, cur := ig.folded, ig.cur.Epoch
	if epoch == cur {
		defer ig.mu.RUnlock()
		return ig.cur.clone(), nil
	}
	view := *gen // the chunk directory as of now; later pushes land beyond end
	ig.mu.RUnlock()
	if epoch < gen.seed.Epoch || epoch > cur {
		return Frontier{}, fmt.Errorf("deps: frontier at epoch %d outside the folded range %d..%d", epoch, gen.seed.Epoch, cur)
	}
	f := gen.seed.clone()
	sources := view.foldTo(&f, view.search(epoch))
	f.Epoch = epoch
	ig.mu.Lock()
	ig.dropping.gen, ig.dropping.epoch, ig.dropping.sources = gen, epoch, sources
	ig.mu.Unlock()
	return f, nil
}

// foldTo folds the generation's entries from its base up to ordinal n into
// f and returns the sources of the edges into them.
func (gen *folded) foldTo(f *Frontier, n int) map[wlog.InstanceID]bool {
	sources := make(map[wlog.InstanceID]bool)
	for ord := gen.base; ord < n; ord++ {
		f.fold(gen.entry(ord), func(_ relation, from wlog.InstanceID, _ data.Key) { sources[from] = true })
	}
	return sources
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
	to := succ(ig.push(e)) << 2
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
	return &Graph{g: ig.folded, epoch: ig.cur.Epoch, n: ig.end}
}

// Rebase forgets the folded entries at or below f.Epoch — the log prefix a
// snapshot or a horizon covers — and continues from f, the frontier at that
// epoch (FrontierAt, or a snapshot's), so the graph ends up exactly as
// NewIncrementalFrom(f) over the same suffix would build it. Its cost follows
// the smaller side of the cut: when most of the history stays (a horizon
// trailing the head) the prefix is dropped (dropPrefix); when most goes (a
// checkpoint at the head) the suffix is refolded into a fresh generation,
// which releases the prefix's adjacency container. Either way the folding
// runs outside the lock, so commits keep folding meanwhile; under it run
// only the swap and, for a dropped prefix, the trims of the lists it names.
// Views taken before keep reading the generation they pinned. The
// graph may keep f as its seed, so the caller must not modify it afterwards.
// A frontier outside the graph's folded range is refused; one at the current
// seed is a no-op.
func (ig *IncrementalGraph) Rebase(f Frontier) error {
	ig.mu.RLock()
	gen, cur, known := ig.folded, ig.cur.Epoch, ig.dropping
	view := *gen // the chunk directory as of now; later pushes land beyond end
	ig.mu.RUnlock()
	if f.Epoch < gen.seed.Epoch || f.Epoch > cur {
		return fmt.Errorf("deps: rebase at epoch %d outside the folded range %d..%d", f.Epoch, gen.seed.Epoch, cur)
	}
	if f.Epoch == gen.seed.Epoch {
		return nil
	}
	cut := view.search(f.Epoch)
	if view.end-cut >= cut-view.base {
		if known.gen == gen && known.epoch == f.Epoch {
			return ig.dropPrefix(gen, cut, f, known.sources)
		}
		seed := gen.seed.clone()
		sources := view.foldTo(&seed, cut)
		seed.Epoch = f.Epoch
		return ig.dropPrefix(gen, cut, seed, sources)
	}
	next := newIncremental(f)
	next.lock = &ig.mu
	for ord := cut; ord < view.end; ord++ {
		next.appendLocked(view.entry(ord))
	}
	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.folded != gen {
		return fmt.Errorf("deps: concurrent rebase at epoch %d", f.Epoch)
	}
	for ord := view.end; ord < gen.end; ord++ {
		next.appendLocked(gen.entry(ord))
	}
	ig.folded, ig.cur, ig.dropping = next.folded, next.cur, next.dropping
	return nil
}

// dropPrefix replaces gen by a generation without the entries beneath
// ordinal cut and without the edges into them, whose sources the fold of the
// dropped entries from gen's seed found (FrontierAt, or Rebase itself). Each
// source's records of them are a prefix of its adjacency list (records are
// in ordinal order), which is resliced off in the shared container after gen
// saved the list for its views. The kept entries are neither refolded nor
// copied, and their ordinals stay. seed, the frontier at the cut, seeds the
// next generation, which keeps it; the current frontier does not move.
//
// A Go map keeps the slots of deleted keys until it grows, and a map that
// keeps losing old keys and gaining new ones grows without growing in
// size. So once a quarter of the container's sources have been deleted
// since it was built, the next generation gets a fresh container instead,
// holding the same lists (the records are not copied) minus what the drop
// trims; gen keeps the old one untouched. That copies the container's
// headers once per quarter of it dropped: a constant per dropped entry.
func (ig *IncrementalGraph) dropPrefix(gen *folded, cut int, seed Frontier, sources map[wlog.InstanceID]bool) error {
	trim := func(l []succ) []succ {
		i := 0
		for i < len(l) && l[i].ord() < cut {
			i++
		}
		return l[i:]
	}

	ig.mu.Lock()
	defer ig.mu.Unlock()
	if ig.folded != gen {
		return fmt.Errorf("deps: concurrent rebase at epoch %d", seed.Epoch)
	}
	ig.dropping.gen, ig.dropping.sources = nil, nil
	next := &folded{
		lock:    gen.lock,
		base:    cut,
		end:     gen.end,
		chunks:  slices.Clone(gen.chunks[cut>>chunkBits-gen.base>>chunkBits:]),
		adj:     gen.adj,
		seed:    seed,
		deleted: gen.deleted,
	}
	if 4*gen.deleted >= len(gen.adj) {
		next.adj, next.deleted = make(map[wlog.InstanceID][]succ, len(gen.adj)), 0
		for from, l := range gen.adj {
			if sources[from] {
				l = trim(l)
			}
			if len(l) > 0 {
				next.adj[from] = l
			}
		}
		ig.folded = next
		return nil
	}
	gen.saved = make(map[wlog.InstanceID][]succ, len(sources))
	for from := range sources {
		l := gen.adj[from]
		gen.saved[from] = l
		if l = trim(l); len(l) == 0 {
			delete(gen.adj, from)
			next.deleted++
		} else {
			gen.adj[from] = l
		}
	}
	gen.next, ig.folded = next, next
	return nil
}

// walk invokes fn with the ordinal of every rel-successor of from before
// ordinal n, in commit order, one call per edge (per-key multiplicity
// preserved). Callers hold the graph's lock.
func (gen *folded) walk(rel relation, from wlog.InstanceID, n int, fn func(ord int)) {
	for _, s := range gen.list(from) {
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
	gen.walk(rel, from, n, func(ord int) { fn(gen.entry(ord).ID()) })
}

// edgesAt derives the rel edge list of the entries before ordinal n by
// re-folding them from the seed frontier — the cold path behind Flow, Anti
// and Output (rendering and tests); analysis and repair walk succAt.
func (gen *folded) edgesAt(rel relation, n int) []Edge {
	gen.lock.RLock()
	defer gen.lock.RUnlock()
	f := gen.seed.clone()
	var out []Edge
	for ord := gen.base; ord < n; ord++ {
		e := gen.entry(ord)
		f.fold(e, func(r relation, from wlog.InstanceID, k data.Key) {
			if r == rel {
				out = append(out, Edge{From: from, To: e.ID(), Key: k})
			}
		})
	}
	return out
}
