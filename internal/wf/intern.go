package wf

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"selfheal/internal/data"
)

// An Interner keeps one canonical copy of every spec fact a service
// compiles: key and task-ID strings, the Reads, Writes and Next lists, and
// each spec's key footprint. §II.A's model is one specification with many
// instances; runs of one tenant repeat the same keys and lists, and
// compiling them through one table makes every run point at the same copy
// instead of holding its own. Task bodies are plain data in the task
// (Task.Body), so the table holds no body.
//
// Everything the table hands out is shared and read-only: no caller may
// modify an interned list in place (Check verifies it). A table belongs to
// one service — never process-global — and forgets with it: Retain keeps
// only what a set of live specs still references. A nil *Interner is valid
// and interns nothing: every call returns fresh copies.
type Interner struct {
	mu   sync.Mutex
	seed maphash.Seed
	strs map[string]string
	keys map[uint64][]data.Key // by listHash
	ids  map[uint64][]TaskID   // by listHash
}

// NewInterner returns an empty table.
func NewInterner() *Interner {
	in := &Interner{seed: maphash.MakeSeed()}
	in.reset()
	return in
}

func (in *Interner) reset() {
	in.strs = make(map[string]string)
	in.keys = make(map[uint64][]data.Key)
	in.ids = make(map[uint64][]TaskID)
}

// listHash is the hash a list is interned under: each element's length, then
// its bytes. The tables key lists by this hash, not by their content, so
// they keep no second copy of each list's bytes; a lookup compares contents,
// and the rare list whose hash another list holds stays uninterned.
func listHash[T ~string](seed maphash.Seed, list []T) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	var n [binary.MaxVarintLen64]byte
	for _, s := range list {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
		h.WriteString(string(s))
	}
	return h.Sum64()
}

// equal reports whether two lists hold the same strings.
func equal[T ~string, S ~string](a []T, b []S) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}

// str returns the canonical copy of s. Callers hold mu.
func (in *Interner) str(s string) string {
	if c, ok := in.strs[s]; ok {
		return c
	}
	in.strs[s] = s
	return s
}

// list returns the canonical list with the elements of src, converted to T.
// Callers hold mu.
func list[T ~string, S ~string](in *Interner, table map[uint64][]T, src []S) []T {
	if len(src) == 0 {
		return nil
	}
	h := listHash(in.seed, src)
	c, taken := table[h]
	if taken && equal(c, src) {
		return c
	}
	c = make([]T, len(src))
	for i, s := range src {
		c[i] = T(in.str(string(s)))
	}
	if !taken {
		table[h] = c
	}
	return c
}

// convert copies src into a fresh list of T: the nil table's answer.
func convert[T ~string, S ~string](src []S) []T {
	if len(src) == 0 {
		return nil
	}
	out := make([]T, len(src))
	for i, s := range src {
		out[i] = T(s)
	}
	return out
}

// Key returns the canonical copy of a data key.
func (in *Interner) Key(s string) data.Key {
	if in == nil {
		return data.Key(s)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return data.Key(in.str(s))
}

// TaskID returns the canonical copy of a task ID.
func (in *Interner) TaskID(s string) TaskID {
	if in == nil {
		return TaskID(s)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return TaskID(in.str(s))
}

// Task compiles one sum-plus-bias task (Body.Sum) through the table: its ID
// and its three lists are the canonical copies. The branch is left to the
// caller (Task.BranchOn).
func (in *Interner) Task(id string, next, reads, writes []string, bias data.Value) Task {
	if in == nil {
		return Task{ID: TaskID(id), Next: convert[TaskID](next),
			Reads: convert[data.Key](reads), Writes: convert[data.Key](writes), Body: Body{Sum: true, Bias: bias}}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return Task{
		ID:     TaskID(in.str(id)),
		Next:   list(in, in.ids, next),
		Reads:  list(in, in.keys, reads),
		Writes: list(in, in.keys, writes),
		Body:   Body{Sum: true, Bias: bias},
	}
}

// Seal records a compiled spec's footprint (Spec.Footprint), computed once
// and interned like any key list. Call it once the spec has validated and
// before it is shared: the spec's tasks must not change afterwards.
func (in *Interner) Seal(spec *Spec) {
	fp := footprintOf(spec)
	if in == nil || len(fp) == 0 {
		spec.footprint = fp
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	spec.footprint = list(in, in.keys, fp)
}

// Retain rebuilds the table from the live specs alone: afterwards it holds
// exactly the strings, lists and footprints they reference, and the
// canonical copies are theirs, so a spec compiled later shares with them.
// The service calls it where it forgets retired runs, next to the maps it
// rebuilds there; a table that never forgot would keep every retired run's
// distinct facts. The new table is built aside and swapped in, so compiling
// never waits for it: a spec compiled while Retain runs is still correct; it
// may only hold copies the rebuilt table does not know, and so share less.
func (in *Interner) Retain(specs map[string]*Spec) {
	next := &Interner{seed: in.seed}
	next.reset()
	for _, sp := range specs {
		adopt(next, next.keys, sp.footprint)
		for i := range sp.Tasks {
			t := &sp.Tasks[i]
			next.str(string(t.ID))
			adopt(next, next.ids, t.Next)
			adopt(next, next.keys, t.Reads)
			adopt(next, next.keys, t.Writes)
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.strs, in.keys, in.ids = next.strs, next.keys, next.ids
}

// adopt makes a live list (and its strings) canonical unless an equal one
// already is. Callers own the table.
func adopt[T ~string](in *Interner, table map[uint64][]T, l []T) {
	if len(l) == 0 {
		return
	}
	if h := listHash(in.seed, l); table[h] == nil {
		table[h] = l
	}
	for _, s := range l {
		in.str(string(s))
	}
}

// Len returns how many facts the table holds: strings and lists.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.strs) + len(in.keys) + len(in.ids)
}

// Check verifies that every interned list still holds what it was interned
// with: a list modified in place would silently change every spec sharing
// it.
func (in *Interner) Check() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for h, keys := range in.keys {
		if listHash(in.seed, keys) != h {
			return fmt.Errorf("wf: interned key list %q was modified in place", keys)
		}
	}
	for h, ids := range in.ids {
		if listHash(in.seed, ids) != h {
			return fmt.Errorf("wf: interned successor list %q was modified in place", ids)
		}
	}
	return nil
}

// Size reports how many distinct strings and lists the table holds.
func (in *Interner) Size() (strs, lists int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.strs), len(in.keys) + len(in.ids)
}

// Footprint returns the sorted set of every key the spec's tasks read or
// write — a run's complete data-object footprint. A sealed spec (Seal)
// returns the footprint it computed once, shared and read-only; any other
// spec computes it on each call.
func (s *Spec) Footprint() []data.Key {
	if s.footprint != nil {
		return s.footprint
	}
	return footprintOf(s)
}

func footprintOf(spec *Spec) []data.Key {
	set := make(map[data.Key]bool)
	for _, t := range spec.Tasks {
		for _, k := range t.Reads {
			set[k] = true
		}
		for _, k := range t.Writes {
			set[k] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]data.Key, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
