// Incremental dependence maintenance: the same flow/anti/output relations
// Build extracts, maintained as an O(Δ) Append hook at commit time instead
// of an O(log) rescan per analysis. An IncrementalGraph subscribes to the
// system log (wlog.Log.OnAppend) and folds every committed entry into
//
//   - the frontier: per key, the writer chain's tail and the readers since
//     it (output deps and anti-dep resolution need nothing older),
//   - the folded entries by ordinal, in chunks that also hold each entry's
//     successor list — every edge stored once, as a pointer-free record
//     under its source — and an index from instance ID to ordinal,
//   - a small table of the lists of sources the graph never folded (the
//     instances of the frontier it was seeded from).
//
// Snapshot() returns an immutable *Graph view pinned to the epoch (the LSN
// of the last folded entry): edges and closure results never include work
// committed after the snapshot, so the recovery analyzer reads a consistent
// log prefix while normal processing keeps committing — the on-line
// discipline of §IV without per-alert rescans.
package deps

import (
	"fmt"
	"hash/maphash"
	"math"
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

// rec is one adjacency record — the whole stored form of an edge: how far
// the successor's ordinal (its position in the graph's fold order, counted
// from the chain's origin and never rewritten by a Rebase) lies beyond the
// list's origin, shifted over the relation stored one up, so no record is 0.
// An edge is created by its successor's commit, so edges point forward and a
// list's records are in ascending ordinal order: "beyond the snapshot" is
// "ordinal ≥ the snapshot's end".
type rec uint32

func newRec(rel relation, origin, to int) rec { return rec(to-origin)<<2 | rec(rel+1) }

// adjList is a source's successor list, counted from origin (the source's
// own ordinal, or the base of the generation that first gave an unfolded
// source a list): the records in head, up to its first 0, then those in
// more. Only a folded entry has a head: its first records, in its chunk,
// each in 16 bits; a record too far for those, and every record after it,
// goes to more.
type adjList struct {
	origin int
	head   []uint16
	more   []rec
}

// all yields every successor in the list, its ordinal and the relation, in
// commit order, until yield returns false.
func (l adjList) all(yield func(to int, rel relation) bool) {
	for _, r := range l.head {
		if r != 0 && !yield(l.origin+int(r>>2), relation(r&3)-1) {
			return
		}
	}
	for _, r := range l.more {
		if !yield(l.origin+int(r>>2), relation(r&3)-1) {
			return
		}
	}
}

// each invokes fn with the ordinal of every rel-successor before ordinal n,
// in commit order, one call per edge (per-key multiplicity preserved).
func (l adjList) each(rel relation, n int, fn func(ord int)) {
	l.all(func(to int, r relation) bool {
		if to < n && r == rel {
			fn(to)
		}
		return to < n // records are in commit order: nothing later qualifies
	})
}

// from returns the list's successors from ordinal cut on, as a list
// beneath, in records of its own.
func (l adjList) from(cut int) adjList {
	out := adjList{origin: l.origin}
	l.all(func(to int, rel relation) bool {
		if to >= cut {
			out.more = append(out.more, newRec(rel, l.origin, to))
		}
		return true
	})
	return out
}

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
// and the edges out of them. A view pins the generation it was taken from,
// so a Rebase never moves an ordinal under a reader: the next generation
// continues the same ordinals and shares the entry chunks it keeps,
// successor lists included.
type folded struct {
	lock *sync.RWMutex // the owning graph's mu
	// base and end bound the generation's ordinals: it holds the entries
	// base..end-1, in commit order.
	base, end int
	// chunks hold the entries by ordinal, each with its successor list. A
	// generation shares every chunk it keeps with the one it replaced but
	// the one its base lies inside, which it copies from the base on: a
	// drop copies a directory of chunk pointers and at most one chunk, and
	// no dropped entry stays reachable.
	chunks []*chunk
	// beneath holds the lists of the sources the generation did not fold:
	// the seed frontier's instances (a restore, a Rebase), and readers'
	// writers a partial log never held. Only those still owed an edge into
	// the generation are kept, so it is bounded by the frontier, not the
	// window.
	beneath map[wlog.InstanceID]adjList
	// seed is the fold state before the first entry, from which the
	// edge-list views re-fold.
	seed Frontier
}

// chunkBits sizes the blocks folded entries are stored in: an entry's slot
// in its chunk fits a byte.
const chunkBits = 8

const chunkMask = 1<<chunkBits - 1

// inlineRecs is how many successor records an entry keeps in its chunk's
// head, in 16 bits each, which holds successors up to 1<<14 ordinals away;
// the rest of a list continues in the chunk's more. It fits nineteen lists
// in twenty on the heal-storm workload (a mean of 3.7 records).
const inlineRecs = 6

// chunk holds 1<<chunkBits consecutive folded entries, each entry's
// successor list (records counted from the entry's ordinal: the head in
// heads, the rest in more under the entry's slot), and an index of their
// instance IDs: an open-addressed table at half load whose slots hold a hash
// tag over the entry's slot (0 is empty).
type chunk struct {
	entries [1 << chunkBits]*wlog.Entry
	heads   [1 << chunkBits][inlineRecs]uint16
	more    map[uint8][]rec
	ids     [2 << chunkBits]uint16
}

// idSeed keys the chunk ID indexes; all of them, so chunks move between
// generations as they are.
var idSeed = maphash.MakeSeed()

// chunkOf returns the chunk holding ordinal ord, which the generation holds.
func (gen *folded) chunkOf(ord int) *chunk {
	return gen.chunks[ord>>chunkBits-gen.base>>chunkBits]
}

// entry returns the entry with ordinal ord, which the generation holds.
func (gen *folded) entry(ord int) *wlog.Entry { return gen.chunkOf(ord).entries[ord&chunkMask] }

// listAt returns the successor list of the folded entry with ordinal ord.
func (gen *folded) listAt(ord int) adjList {
	c := gen.chunkOf(ord)
	return adjList{ord, c.heads[ord&chunkMask][:], c.more[uint8(ord)]}
}

// push stores e at the next ordinal, enters its ID into the chunk's index
// and returns the ordinal. Callers hold the write lock (or own the
// generation alone).
func (gen *folded) push(e *wlog.Entry) int {
	ord := gen.end
	if ord&chunkMask == 0 {
		gen.chunks = append(gen.chunks, &chunk{more: make(map[uint8][]rec)})
	}
	c := gen.chunks[len(gen.chunks)-1]
	c.entries[ord&chunkMask] = e
	h := maphash.String(idSeed, string(e.ID()))
	for i := h; ; i++ {
		if s := &c.ids[i%uint64(len(c.ids))]; *s == 0 {
			*s = uint16(h>>56|0x80)<<8 | uint16(ord&chunkMask)
			break
		}
	}
	gen.end++
	return ord
}

// from returns a copy of the chunk without its entries beneath slot: the
// first chunk of a generation whose base lies inside it, which so lets go
// of the dropped entries. Their IDs stay in the copied index, matching no
// entry. The copy starts from the chunk's lists; a list that grows later
// grows in the copy's heads or in the overflow map both share, past the
// end of any view of the chunk.
func (c *chunk) from(slot int) *chunk {
	cp := *c
	clear(cp.entries[:slot])
	return &cp
}

// adjacency returns from's successor list: in its chunk if the generation
// folded it (its ID found in a chunk's index, newest chunk first), else
// beneath, where a source without one gets an empty list counted from the
// base. Callers hold the lock.
func (gen *folded) adjacency(from wlog.InstanceID) adjList {
	h := maphash.String(idSeed, string(from))
	tag := uint16(h>>56|0x80) << 8
	for ci := len(gen.chunks) - 1; ci >= 0; ci-- {
		c := gen.chunks[ci]
		for i := h; c.ids[i%uint64(len(c.ids))] != 0; i++ {
			v := c.ids[i%uint64(len(c.ids))]
			if e := c.entries[v&0xff]; v&0xff00 == tag && e != nil && e.ID() == from {
				return gen.listAt((gen.base>>chunkBits+ci)<<chunkBits | int(v&0xff))
			}
		}
	}
	if l, ok := gen.beneath[from]; ok {
		return l
	}
	return adjList{origin: gen.base}
}

// link records the edge from → to, the ordinal being folded. Callers hold
// the write lock (or own the generation alone).
func (gen *folded) link(rel relation, from wlog.InstanceID, to int) {
	l := gen.adjacency(from)
	r := newRec(rel, l.origin, to)
	if l.head == nil {
		l.more = append(l.more, r)
		gen.beneath[from] = l
		return
	}
	if i := slices.Index(l.head, 0); i >= 0 && r <= math.MaxUint16 {
		l.head[i] = uint16(r) // a later record lies further still, so order holds
		return
	}
	gen.chunkOf(l.origin).more[uint8(l.origin)] = append(l.more, r)
}

// search returns the first ordinal of the generation whose entry's LSN is
// above lsn (end if none is).
func (gen *folded) search(lsn int) int {
	return gen.base + sort.Search(gen.end-gen.base, func(i int) bool { return gen.entry(gen.base+i).LSN > lsn })
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
	view := *gen // the chunk directory as of now; later pushes land beyond end
	ig.mu.RUnlock()
	if epoch < gen.seed.Epoch || epoch > cur {
		return Frontier{}, fmt.Errorf("deps: frontier at epoch %d outside the folded range %d..%d", epoch, gen.seed.Epoch, cur)
	}
	f := gen.seed.clone()
	for ord, n := view.base, view.search(epoch); ord < n; ord++ {
		f.fold(view.entry(ord), func(relation, wlog.InstanceID, data.Key) {})
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
	ig.folded = &folded{lock: &ig.mu, beneath: make(map[wlog.InstanceID]adjList), seed: f.clone()}
	return ig
}

// Append folds one committed entry into the graph: O(Δ) in the entry's
// read/write set sizes, each edge's source found by probing the chunk
// indexes newest first (a recent source in the first few, one beneath the
// base after all of them). Entries must be appended in LSN order (the log's
// OnAppend hook guarantees this).
func (ig *IncrementalGraph) Append(e *wlog.Entry) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	to := ig.push(e)
	ig.cur.fold(e, func(rel relation, from wlog.InstanceID, _ data.Key) { ig.link(rel, from, to) })
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
// NewIncrementalFrom(f) over the same suffix would build it. It drops the
// prefix: the next generation keeps the ordinals and the chunks from the
// cut's on (the cut's own copied from the cut), and a dropped source's list
// goes with its chunk unless it still names a kept successor, which moves it
// beneath. Nothing kept is refolded, so the cost, all of it under the lock,
// follows the dropped entries, one chunk and the lists beneath. Views taken
// before keep reading the generation they pinned. The graph keeps f as its
// seed, so the caller must not modify it afterwards. A frontier outside the
// graph's folded range is refused; one at the current seed is a no-op.
func (ig *IncrementalGraph) Rebase(f Frontier) error {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	gen := ig.folded
	if f.Epoch < gen.seed.Epoch || f.Epoch > ig.cur.Epoch {
		return fmt.Errorf("deps: rebase at epoch %d outside the folded range %d..%d", f.Epoch, gen.seed.Epoch, ig.cur.Epoch)
	}
	if f.Epoch == gen.seed.Epoch {
		return nil
	}
	cut := gen.search(f.Epoch)
	next := &folded{
		lock:    gen.lock,
		base:    cut,
		end:     gen.end,
		chunks:  slices.Clone(gen.chunks[cut>>chunkBits-gen.base>>chunkBits:]),
		beneath: make(map[wlog.InstanceID]adjList),
		seed:    f,
	}
	if cut&chunkMask != 0 {
		next.chunks[0] = next.chunks[0].from(cut & chunkMask)
	}
	if cut == gen.end {
		// Nothing is kept, so the fold state is f's: a copy of it also
		// sheds what the old state's maps grew to.
		ig.cur = f.clone()
	}
	keep := func(from wlog.InstanceID, l adjList) {
		if l = l.from(cut); len(l.more) > 0 {
			next.beneath[from] = l
		}
	}
	for from, l := range gen.beneath {
		keep(from, l)
	}
	for ord := gen.base; ord < cut; ord++ {
		keep(gen.entry(ord).ID(), gen.listAt(ord))
	}
	ig.folded = next
	return nil
}

// succAt invokes fn with every rel-successor of from before ordinal n, under
// the read lock.
func (gen *folded) succAt(rel relation, from wlog.InstanceID, n int, fn func(to wlog.InstanceID)) {
	gen.lock.RLock()
	defer gen.lock.RUnlock()
	gen.adjacency(from).each(rel, n, func(ord int) { fn(gen.entry(ord).ID()) })
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
