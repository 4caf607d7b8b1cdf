// Package data implements the versioned object store that underlies the
// workflow system log. Every write creates a new version tagged with the
// writer's effective position (the commit LSN for original executions, a
// fractional position for recovery-time re-executions). Undoing a task is
// deleting its versions, which exposes the last version before the attack —
// exactly the undo(t) primitive of §III.A of the paper. Positional reads
// (GetBefore) give recovery re-executions a consistent view of the corrected
// history without blocking on anti-flow and output dependencies, the
// multi-version effect discussed in §III.D.
//
// The store keeps a writer → key index alongside the chains, so the undo
// primitive (DeleteWrites, VersionsBy) costs O(versions by that writer)
// instead of a scan over every chain in the store — the difference between
// an undo set staging in microseconds and one that stalls the repair on a
// large store.
package data

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Key names a data object in the store.
type Key string

// Value is the content of a data object version. Workflow tasks compute
// integer values; richer payloads are encoded by the application.
type Value int64

// InitPos is the effective position of initial (pre-history) versions.
const InitPos = 0.0

// Version is one committed value of a data object.
type Version struct {
	// Pos is the effective position of the write in the corrected
	// history: the commit LSN for original task executions, fractional
	// for recovery writes inserted between original positions.
	Pos float64
	// Writer identifies the task instance that wrote the version; empty
	// for initial versions.
	Writer string
	// Value is the stored content.
	Value Value
	// Recovery marks versions written during attack recovery.
	Recovery bool
	// Checkpoint marks a compaction boundary: the surviving version that
	// carries the key's value as of the horizon. The history beneath it
	// has been discarded, so the version can never be undone —
	// DeleteWrites and DeleteRecoveryVersions preserve it (removing it
	// would expose nothing, corrupting the chain for every later reader).
	Checkpoint bool
}

// Store is a multi-version key/value store. The zero value is not usable;
// call NewStore. Store is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	chains map[Key][]Version // ascending Pos
	// writers[w] lists the key of every version written by w, one element
	// per version. The index makes DeleteWrites/VersionsBy proportional to
	// the writer's own version count. A multiset (a key may repeat) because
	// a replay pass may transiently hold two versions of one writer on one
	// key (an original commit plus its repositioned re-execution). The
	// slices are never modified in place — indexAdd and indexDrop install a
	// fresh one — so Clone shares them with the copy instead of allocating
	// per writer.
	writers map[string][]Key
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		chains:  make(map[Key][]Version),
		writers: make(map[string][]Key),
	}
}

// NewStoreFromChains builds a store directly from prebuilt version chains,
// taking ownership of the map and its slices. Chains must be non-empty and
// strictly ascending by position; the writer index is derived in one pass.
// This is the bulk-install path of the durable restore: replay workers
// materialize chains outside the store (no per-write lock traffic), then the
// whole state is installed at once.
func NewStoreFromChains(chains map[Key][]Version) (*Store, error) {
	s := NewStore()
	for k, chain := range chains {
		if len(chain) == 0 {
			return nil, fmt.Errorf("data: empty chain for %q", k)
		}
		for i, v := range chain {
			if i > 0 && chain[i-1].Pos >= v.Pos {
				return nil, fmt.Errorf("data: chain %q not ascending at index %d (%g after %g)",
					k, i, v.Pos, chain[i-1].Pos)
			}
			s.indexAdd(v.Writer, k)
		}
		s.chains[k] = chain
	}
	return s, nil
}

// ChainsCopy returns a deep copy of every version chain, keyed by object —
// the full store history a durable snapshot persists.
func (s *Store) ChainsCopy() map[Key][]Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Key][]Version, len(s.chains))
	for k, chain := range s.chains {
		cp := make([]Version, len(chain))
		copy(cp, chain)
		out[k] = cp
	}
	return out
}

// indexAdd records one version by writer w on key k. Callers hold mu.
func (s *Store) indexAdd(w string, k Key) {
	if w == "" {
		return
	}
	ks := s.writers[w]
	s.writers[w] = append(ks[:len(ks):len(ks)], k) // clamped: always a fresh array
}

// indexDrop removes n versions by writer w on key k. Callers hold mu.
func (s *Store) indexDrop(w string, k Key, n int) {
	if w == "" || n == 0 {
		return
	}
	ks := s.writers[w]
	var out []Key
	for _, x := range ks {
		if x == k && n > 0 {
			n--
			continue
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		delete(s.writers, w)
	} else {
		s.writers[w] = out
	}
}

// Init installs an initial version (position InitPos, no writer) for key k.
// It panics if k already has versions, which always indicates a harness bug.
func (s *Store) Init(k Key, v Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.chains[k]) != 0 {
		panic(fmt.Sprintf("data: Init on non-empty chain %q", k))
	}
	s.chains[k] = append(s.chains[k], Version{Pos: InitPos, Value: v})
}

// Write appends a version for key k at position pos.
func (s *Store) Write(k Key, v Value, pos float64, writer string, recovery bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chain := s.chains[k]
	ver := Version{Pos: pos, Writer: writer, Value: v, Recovery: recovery}
	// Fast path: appends are almost always in increasing position order.
	if n := len(chain); n == 0 || chain[n-1].Pos < pos {
		s.chains[k] = append(chain, ver)
		s.indexAdd(writer, k)
		return
	}
	i := sort.Search(len(chain), func(i int) bool { return chain[i].Pos >= pos })
	if i < len(chain) && chain[i].Pos == pos {
		panic(fmt.Sprintf("data: duplicate version position %g for %q (writers %q, %q)",
			pos, k, chain[i].Writer, writer))
	}
	chain = append(chain, Version{})
	copy(chain[i+1:], chain[i:])
	chain[i] = ver
	s.chains[k] = chain
	s.indexAdd(writer, k)
}

// Get returns the latest version of k. ok is false when k has no versions.
func (s *Store) Get(k Key) (Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[k]
	if len(chain) == 0 {
		return Version{}, false
	}
	return chain[len(chain)-1], true
}

// GetBefore returns the latest version of k with position strictly less than
// pos: the value a reader at effective position pos observes.
func (s *Store) GetBefore(k Key, pos float64) (Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[k]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].Pos >= pos })
	if i == 0 {
		return Version{}, false
	}
	return chain[i-1], true
}

// CompactBefore discards historical versions older than horizon, keeping
// for every key the latest version at or before the horizon (the current
// value as of that point) plus everything after it. It returns the number
// of versions discarded. Compaction reclaims the space the paper attributes
// to checkpoints (§I) — at the cost of recoverability: an undo that needs a
// pre-horizon version can no longer be performed, which the recovery engine
// detects against the log and refuses (ErrHorizon).
//
// The surviving boundary version is marked Checkpoint (and its Recovery flag
// cleared — a compacted boundary is permanent history): the version beneath
// it is gone, so later DeleteWrites/DeleteRecoveryVersions calls must not
// remove it. Chains that have degenerated into runs of duplicate compaction
// boundaries (possible when differently-compacted stores are merged through
// AdoptChains) collapse to the single latest boundary, and keys whose chains
// empty out are dropped from the store. The writer index is kept consistent
// throughout. What is discarded leaves the heap: a compacted chain moves to
// an array of its new length — the old one would keep its peak capacity and,
// past its length, the dropped versions' writer strings — and the writer
// index is rebuilt, since a Go map keeps its peak size after deletes.
func (s *Store) CompactBefore(horizon float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for k, chain := range s.chains {
		// Find the last version with Pos ≤ horizon; drop everything
		// before it.
		keep := 0
		for i, v := range chain {
			if v.Pos <= horizon {
				keep = i
			} else {
				break
			}
		}
		if keep > 0 {
			for _, v := range chain[:keep] {
				s.indexDrop(v.Writer, k, 1)
			}
			n += keep
			chain = slices.Clone(chain[keep:])
		}
		if len(chain) > 0 && chain[0].Pos <= horizon {
			chain[0].Checkpoint = true
			chain[0].Recovery = false
		}
		// Collapse leading duplicate boundaries: only the latest carries
		// information.
		for len(chain) >= 2 && chain[0].Checkpoint && chain[1].Checkpoint {
			s.indexDrop(chain[0].Writer, k, 1)
			n++
			chain = chain[1:]
		}
		if len(chain) == 0 {
			delete(s.chains, k)
			continue
		}
		s.chains[k] = chain
	}
	if n > 0 {
		writers := make(map[string][]Key, len(s.writers))
		for w, ks := range s.writers {
			writers[w] = ks
		}
		s.writers = writers
	}
	return n
}

// CompactChain compacts a single version chain at horizon with exactly
// Store.CompactBefore's semantics, as a pure function: the input is not
// modified, and a chain that empties out returns nil (CompactBefore deletes
// the key). The durable snapshot encoder uses it to persist chains already
// compacted at the snapshot epoch — the state a restore would produce
// anyway — instead of pre-horizon history that would be discarded at boot.
func CompactChain(chain []Version, horizon float64) []Version {
	keep := 0
	for i, v := range chain {
		if v.Pos <= horizon {
			keep = i
		} else {
			break
		}
	}
	out := append([]Version(nil), chain[keep:]...)
	if len(out) > 0 && out[0].Pos <= horizon {
		out[0].Checkpoint = true
		out[0].Recovery = false
	}
	for len(out) >= 2 && out[0].Checkpoint && out[1].Checkpoint {
		out = out[1:]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// VersionAt returns the version of k at exactly position pos.
func (s *Store) VersionAt(k Key, pos float64) (Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[k]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].Pos >= pos })
	if i < len(chain) && chain[i].Pos == pos {
		return chain[i], true
	}
	return Version{}, false
}

// DeleteWrites removes every version written by the given writer and returns
// how many versions were deleted. This is the undo(t) primitive: deleting a
// task's versions exposes the last version before it, for every object it
// wrote. Checkpoint versions are preserved (the history beneath a compaction
// boundary is gone; removing the boundary would corrupt the chain), and keys
// whose chains empty out are dropped. Cost is proportional to the writer's
// own chains via the writer index, not to the store size.
func (s *Store) DeleteWrites(writer string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteWritesLocked(writer)
}

// DeleteWritesBatch removes the versions of every listed writer in one lock
// acquisition — the undo-group staging path of the recovery executor.
func (s *Store) DeleteWritesBatch(writers []string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, w := range writers {
		n += s.deleteWritesLocked(w)
	}
	return n
}

func (s *Store) deleteWritesLocked(writer string) int {
	var n int
	// The listed slice is immutable (indexDrop installs a new one), so it
	// can be walked while the index changes; a repeated key finds nothing
	// left to remove the second time.
	for _, k := range s.writers[writer] {
		chain := s.chains[k]
		out := chain[:0]
		removed := 0
		for _, v := range chain {
			if v.Writer == writer && !v.Checkpoint {
				removed++
				continue
			}
			out = append(out, v)
		}
		if removed == 0 {
			continue
		}
		n += removed
		s.indexDrop(writer, k, removed)
		if len(out) == 0 {
			delete(s.chains, k)
		} else {
			s.chains[k] = out
		}
	}
	return n
}

// DeleteRecoveryVersions removes every version written during recovery and
// returns how many were deleted. A new repair pass starts from the original
// committed versions and deterministically reconstructs all still-valid
// recovery state, so prior recovery versions never conflict with it.
func (s *Store) DeleteRecoveryVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for k := range s.chains {
		n += s.deleteRecoveryLocked(k)
	}
	return n
}

// DeleteRecoveryVersionsIn is DeleteRecoveryVersions restricted to the given
// keys. A damage-scoped repair pass (recovery.Options.ScopeToDamage) strips
// and rebuilds only the chains of the damaged components; recovery versions
// on untouched keys — left by earlier repairs of unrelated damage — must
// survive, because no walker will reconstruct them.
func (s *Store) DeleteRecoveryVersionsIn(keys []Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, k := range keys {
		n += s.deleteRecoveryLocked(k)
	}
	return n
}

func (s *Store) deleteRecoveryLocked(k Key) int {
	chain, ok := s.chains[k]
	if !ok {
		return 0
	}
	out := chain[:0]
	var n int
	for _, v := range chain {
		if v.Recovery && !v.Checkpoint {
			s.indexDrop(v.Writer, k, 1)
			n++
			continue
		}
		out = append(out, v)
	}
	if n == 0 {
		return 0
	}
	if len(out) == 0 {
		delete(s.chains, k)
	} else {
		s.chains[k] = out
	}
	return n
}

// VersionsBy returns every version written by the given writer, keyed by
// object, in O(versions by that writer) via the writer index.
func (s *Store) VersionsBy(writer string) map[Key]Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Key]Version)
	for _, k := range s.writers[writer] {
		for _, v := range s.chains[k] {
			if v.Writer == writer {
				out[k] = v
			}
		}
	}
	return out
}

// Chain returns a copy of the full version chain for k, ascending by
// position.
func (s *Store) Chain(k Key) []Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Version, len(s.chains[k]))
	copy(out, s.chains[k])
	return out
}

// Keys returns all keys with at least one version, sorted.
func (s *Store) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Key, 0, len(s.chains))
	for k, chain := range s.chains {
		if len(chain) > 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns the final (latest-version) value of every key.
func (s *Store) Snapshot() map[Key]Value {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Key]Value, len(s.chains))
	for k, chain := range s.chains {
		if len(chain) > 0 {
			out[k] = chain[len(chain)-1].Value
		}
	}
	return out
}

// Clone returns a deep copy of the store. Recovery iterations restart from a
// clone of the pristine post-attack store.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := NewStore()
	for k, chain := range s.chains {
		cp := make([]Version, len(chain))
		copy(cp, chain)
		c.chains[k] = cp
	}
	c.writers = maps.Clone(s.writers) // the key slices are immutable, hence shareable
	return c
}

// AdoptChains replaces s's version chains for the given keys with deep
// copies of from's chains (keys absent from from are deleted), keeping the
// writer index consistent. The shard layer's recovery installer uses it to
// merge a repaired store's damaged-component chains into the live store
// while clean shards keep committing to their own keys.
func (s *Store) AdoptChains(from *Store, keys []Key) {
	incoming := make(map[Key][]Version, len(keys))
	from.mu.RLock()
	for _, k := range keys {
		if chain, ok := from.chains[k]; ok {
			cp := make([]Version, len(chain))
			copy(cp, chain)
			incoming[k] = cp
		}
	}
	from.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		for _, v := range s.chains[k] {
			s.indexDrop(v.Writer, k, 1)
		}
		chain, ok := incoming[k]
		if !ok {
			delete(s.chains, k)
			continue
		}
		s.chains[k] = chain
		for _, v := range chain {
			s.indexAdd(v.Writer, k)
		}
	}
}

// CheckIndex verifies the internal invariants — chains sorted ascending by
// position, no empty chains lingering in the map, and the writer index in
// exact agreement with the chains. Tests call it after mutation sequences;
// it is not needed in production paths.
func (s *Store) CheckIndex() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	want := make(map[string]map[Key]int)
	for k, chain := range s.chains {
		if len(chain) == 0 {
			return fmt.Errorf("data: empty chain left in map for %q", k)
		}
		for i, v := range chain {
			if i > 0 && chain[i-1].Pos >= v.Pos {
				return fmt.Errorf("data: chain %q not ascending at index %d", k, i)
			}
			if v.Writer == "" {
				continue
			}
			m := want[v.Writer]
			if m == nil {
				m = make(map[Key]int)
				want[v.Writer] = m
			}
			m[k]++
		}
	}
	if len(want) != len(s.writers) {
		return fmt.Errorf("data: writer index has %d writers, chains have %d", len(s.writers), len(want))
	}
	for w, m := range want {
		got := make(map[Key]int, len(m))
		for _, k := range s.writers[w] {
			got[k]++
		}
		if len(got) != len(m) {
			return fmt.Errorf("data: writer %q indexed on %d keys, chains show %d", w, len(got), len(m))
		}
		for k, n := range m {
			if got[k] != n {
				return fmt.Errorf("data: writer %q on %q indexed %d times, chains show %d", w, k, got[k], n)
			}
		}
	}
	return nil
}

// Equal reports whether the final values of both stores agree on every key.
// Keys missing from one store compare unequal unless missing from both.
func Equal(a, b *Store) bool {
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		return false
	}
	for k, v := range sa {
		if w, ok := sb[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of final-value differences
// between two stores, or "" when they are equal.
func Diff(a, b *Store) string {
	sa, sb := a.Snapshot(), b.Snapshot()
	keys := make(map[Key]struct{}, len(sa)+len(sb))
	for k := range sa {
		keys[k] = struct{}{}
	}
	for k := range sb {
		keys[k] = struct{}{}
	}
	sorted := make([]Key, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sb2 strings.Builder
	for _, k := range sorted {
		va, oka := sa[k]
		vb, okb := sb[k]
		switch {
		case !oka:
			fmt.Fprintf(&sb2, "%s: <missing> != %d\n", k, vb)
		case !okb:
			fmt.Fprintf(&sb2, "%s: %d != <missing>\n", k, va)
		case va != vb:
			fmt.Fprintf(&sb2, "%s: %d != %d\n", k, va, vb)
		}
	}
	return sb2.String()
}
