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
// The store keeps the chains and nothing beside them. The undo primitive
// (DeleteWrites, VersionsBy) takes the writer's keys from the caller — the
// log entry of the undone instance lists exactly the keys it wrote — so it
// costs O(the writer's chains) without a writer → key index that would list
// every committed instance's keys a second time.
package data

import (
	"fmt"
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
	chains map[Key][]Version // strictly ascending Pos
}

// WriterKeys names one writer's versions for an undo: the writer and the
// keys it wrote (its log entry's write set). A key may repeat; the second
// visit finds nothing left to remove.
type WriterKeys struct {
	Writer string
	Keys   []Key
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{chains: make(map[Key][]Version)}
}

// NewStoreFromChains builds a store directly from prebuilt version chains,
// taking ownership of the map and its slices. Chains must be non-empty and
// strictly ascending by position. This is the bulk-install path of the
// durable restore: replay workers materialize chains outside the store (no
// per-write lock traffic), then the whole state is installed at once.
func NewStoreFromChains(chains map[Key][]Version) (*Store, error) {
	for k, chain := range chains {
		if len(chain) == 0 {
			return nil, fmt.Errorf("data: empty chain for %q", k)
		}
		for i, v := range chain {
			if i > 0 && chain[i-1].Pos >= v.Pos {
				return nil, fmt.Errorf("data: chain %q not ascending at index %d (%g after %g)",
					k, i, v.Pos, chain[i-1].Pos)
			}
		}
	}
	if chains == nil {
		chains = make(map[Key][]Version)
	}
	return &Store{chains: chains}, nil
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
// empty out are dropped from the store. What is discarded leaves the heap: a
// compacted chain moves to an array of its new length — the old one would
// keep its peak capacity and, past its length, the dropped versions' writer
// strings.
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
			n++
			chain = chain[1:]
		}
		if len(chain) == 0 {
			delete(s.chains, k)
			continue
		}
		s.chains[k] = chain
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

// DeleteWrites removes every version the given writer wrote on keys and
// returns how many versions were deleted. This is the undo(t) primitive:
// deleting a task's versions exposes the last version before it, for every
// object it wrote. keys is the writer's write set, as its log entry lists
// it; versions on other keys are not looked at. Checkpoint versions are
// preserved (the history beneath a compaction boundary is gone; removing the
// boundary would corrupt the chain), and keys whose chains empty out are
// dropped. Cost is proportional to the listed chains, not to the store size.
func (s *Store) DeleteWrites(writer string, keys []Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteWritesLocked(writer, keys)
}

// DeleteWritesBatch removes the versions of every listed writer in one lock
// acquisition — the undo-group staging path of the recovery executor.
func (s *Store) DeleteWritesBatch(undo []WriterKeys) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, u := range undo {
		n += s.deleteWritesLocked(u.Writer, u.Keys)
	}
	return n
}

func (s *Store) deleteWritesLocked(writer string, keys []Key) int {
	var n int
	for _, k := range keys {
		chain, ok := s.chains[k]
		if !ok {
			continue
		}
		out := chain[:0]
		for _, v := range chain {
			if v.Writer == writer && !v.Checkpoint {
				continue
			}
			out = append(out, v)
		}
		if len(out) == len(chain) {
			continue
		}
		n += len(chain) - len(out)
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

// VersionsBy returns the versions the given writer wrote on keys (the latest
// one per key), keyed by object; keys it never wrote are absent.
func (s *Store) VersionsBy(writer string, keys []Key) map[Key]Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Key]Version)
	for _, k := range keys {
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

// Clone returns a deep copy of the store: its chains, which are all it has.
// Recovery iterations restart from a clone of the pristine post-attack store.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &Store{chains: make(map[Key][]Version, len(s.chains))}
	for k, chain := range s.chains {
		c.chains[k] = slices.Clone(chain)
	}
	return c
}

// AdoptChains replaces s's version chains for the keys of chains with the
// given ones (an empty chain deletes the key) and keeps the slices: the
// caller must not modify them afterwards. Every runtime installs a repair's
// effect through it, merging the repaired chains of the damaged keys into the
// live store while clean runs keep committing to their own keys.
func (s *Store) AdoptChains(chains map[Key][]Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, chain := range chains {
		if len(chain) > 0 {
			s.chains[k] = chain
		} else {
			delete(s.chains, k)
		}
	}
}

// CheckIndex verifies the store's invariants: no empty chain lingers in the
// map, and every chain is strictly ascending by position — ordered, with no
// two versions of a key at one position. Tests and the check-index oracle
// call it after mutation sequences; it is not needed in production paths.
func (s *Store) CheckIndex() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, chain := range s.chains {
		if len(chain) == 0 {
			return fmt.Errorf("data: empty chain left in map for %q", k)
		}
		for i := 1; i < len(chain); i++ {
			switch {
			case chain[i-1].Pos == chain[i].Pos:
				return fmt.Errorf("data: chain %q holds two versions at position %g", k, chain[i].Pos)
			case chain[i-1].Pos > chain[i].Pos:
				return fmt.Errorf("data: chain %q not ascending at index %d", k, i)
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
