package data

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInitAndGet(t *testing.T) {
	s := NewStore()
	s.Init("x", 7)
	v, ok := s.Get("x")
	if !ok || v.Value != 7 || v.Pos != InitPos || v.Writer != "" {
		t.Fatalf("Get = %+v, ok=%v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get on missing key reported ok")
	}
}

func TestInitTwicePanics(t *testing.T) {
	s := NewStore()
	s.Init("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Init("x", 2)
}

func TestWriteOrdering(t *testing.T) {
	s := NewStore()
	s.Init("x", 0)
	s.Write("x", 10, 5, "t5", false)
	s.Write("x", 20, 9, "t9", false)
	// Out-of-order (recovery) insert between them.
	s.Write("x", 15, 7.5, "r1", true)

	chain := s.Chain("x")
	if len(chain) != 4 {
		t.Fatalf("chain length %d, want 4", len(chain))
	}
	for i := 1; i < len(chain); i++ {
		if chain[i-1].Pos >= chain[i].Pos {
			t.Fatalf("chain not sorted: %+v", chain)
		}
	}
	if v, _ := s.Get("x"); v.Value != 20 {
		t.Errorf("latest = %d, want 20", v.Value)
	}
}

func TestWriteDuplicatePositionPanics(t *testing.T) {
	s := NewStore()
	s.Write("x", 1, 3, "a", false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Write("x", 2, 3, "b", false)
}

func TestGetBefore(t *testing.T) {
	s := NewStore()
	s.Init("x", 0)
	s.Write("x", 10, 5, "t5", false)
	s.Write("x", 20, 9, "t9", false)

	cases := []struct {
		pos   float64
		want  Value
		found bool
	}{
		{pos: 0, found: false}, // strictly before the initial version: nothing
		{pos: 0.5, want: 0, found: true},
		{pos: 5, want: 0, found: true}, // strict: a reader at 5 sees pre-5
		{pos: 5.1, want: 10, found: true},
		{pos: 9.5, want: 20, found: true},
		{pos: 100, want: 20, found: true},
	}
	for _, c := range cases {
		v, ok := s.GetBefore("x", c.pos)
		if ok != c.found {
			t.Errorf("GetBefore(%g): found=%v, want %v", c.pos, ok, c.found)
			continue
		}
		if ok && v.Value != c.want {
			t.Errorf("GetBefore(%g) = %d, want %d", c.pos, v.Value, c.want)
		}
	}
}

func TestDeleteWritesExposesPriorVersion(t *testing.T) {
	s := NewStore()
	s.Init("x", 1)
	s.Init("y", 2)
	s.Write("x", 100, 3, "evil", false)
	s.Write("y", 200, 4, "evil", false)
	s.Write("x", 101, 5, "good", false)

	if n := s.DeleteWrites("evil"); n != 2 {
		t.Fatalf("deleted %d versions, want 2", n)
	}
	if v, _ := s.Get("y"); v.Value != 2 {
		t.Errorf("y = %d after undo, want initial 2", v.Value)
	}
	if v, _ := s.Get("x"); v.Value != 101 {
		t.Errorf("x = %d after undo, want 101 (later writer kept)", v.Value)
	}
	if n := s.DeleteWrites("evil"); n != 0 {
		t.Errorf("second delete removed %d, want 0", n)
	}
}

func TestSnapshotAndKeys(t *testing.T) {
	s := NewStore()
	s.Init("b", 2)
	s.Init("a", 1)
	s.Write("a", 11, 1, "t", false)
	snap := s.Snapshot()
	if snap["a"] != 11 || snap["b"] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("keys = %v, want sorted [a b]", keys)
	}
}

func TestCloneIsolation(t *testing.T) {
	s := NewStore()
	s.Init("x", 1)
	c := s.Clone()
	c.Write("x", 2, 1, "t", false)
	if v, _ := s.Get("x"); v.Value != 1 {
		t.Error("Clone shares chains with original")
	}
	if v, _ := c.Get("x"); v.Value != 2 {
		t.Error("clone write lost")
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, b := NewStore(), NewStore()
	a.Init("x", 1)
	b.Init("x", 1)
	if !Equal(a, b) {
		t.Fatal("identical stores compare unequal")
	}
	if d := Diff(a, b); d != "" {
		t.Fatalf("diff of equal stores: %q", d)
	}
	b.Write("x", 2, 1, "t", false)
	b.Init("y", 9)
	if Equal(a, b) {
		t.Fatal("different stores compare equal")
	}
	if d := Diff(a, b); d == "" {
		t.Fatal("empty diff for different stores")
	}
}

// TestUndoRedoRoundTrip is the core recovery-store property: writing a
// corrupt version, deleting it, and re-writing the clean value at the same
// position restores exactly the clean chain state.
func TestUndoRedoRoundTrip(t *testing.T) {
	clean := NewStore()
	attacked := NewStore()
	for _, s := range []*Store{clean, attacked} {
		s.Init("x", 5)
		s.Write("x", 50, 2, "t2", false)
	}
	clean.Write("x", 60, 3, "t3", false)
	attacked.Write("x", -999, 3, "t3", false) // corrupted execution

	attacked.DeleteWrites("t3")
	attacked.Write("x", 60, 3, "t3", true) // redo with the clean value

	if !Equal(clean, attacked) {
		t.Fatalf("round trip failed:\n%s", Diff(clean, attacked))
	}
}

// TestPositionalVisibilityProperty checks GetBefore against a brute-force
// scan over randomly built chains.
func TestPositionalVisibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		type wv struct {
			pos float64
			val Value
		}
		var hist []wv
		used := map[float64]bool{}
		for i := 0; i < 30; i++ {
			pos := float64(rng.Intn(100)) + float64(rng.Intn(4))*0.25
			if used[pos] {
				continue
			}
			used[pos] = true
			v := Value(rng.Intn(1000))
			s.Write("k", v, pos, "w", false)
			hist = append(hist, wv{pos, v})
		}
		for trial := 0; trial < 20; trial++ {
			q := float64(rng.Intn(110)) + rng.Float64()
			got, ok := s.GetBefore("k", q)
			// Brute force.
			best := wv{pos: -1}
			for _, h := range hist {
				if h.pos < q && h.pos > best.pos {
					best = h
				}
			}
			if (best.pos >= 0) != ok {
				return false
			}
			if ok && got.Value != best.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompactBefore(t *testing.T) {
	s := NewStore()
	s.Init("x", 1)
	s.Write("x", 2, 3, "w3", false)
	s.Write("x", 3, 7, "w7", false)
	s.Write("x", 4, 9, "w9", false)
	s.Init("y", 5)

	// Horizon 7: keeps x@7 (the value as of 7) and x@9; drops x@0, x@3.
	if n := s.CompactBefore(7); n != 2 {
		t.Fatalf("discarded %d versions, want 2", n)
	}
	chain := s.Chain("x")
	if len(chain) != 2 || chain[0].Pos != 7 || chain[1].Pos != 9 {
		t.Errorf("chain after compaction: %+v", chain)
	}
	// y's single initial version is the value as of the horizon: kept.
	if _, ok := s.Get("y"); !ok {
		t.Error("y lost by compaction")
	}
	// Latest values unchanged.
	if v, _ := s.Get("x"); v.Value != 4 {
		t.Errorf("x = %d after compaction", v.Value)
	}
	// Idempotent.
	if n := s.CompactBefore(7); n != 0 {
		t.Errorf("second compaction discarded %d", n)
	}
	// Horizon before everything: no-op.
	s2 := NewStore()
	s2.Init("z", 1)
	s2.Write("z", 2, 5, "w", false)
	if n := s2.CompactBefore(-1); n != 0 {
		t.Errorf("pre-history horizon discarded %d", n)
	}
}

func TestCompactChainMatchesStore(t *testing.T) {
	// CompactChain is the pure per-chain twin of Store.CompactBefore (the
	// durable snapshot encoder relies on them agreeing exactly). Randomized
	// chains, every flag combination, horizons on/off version boundaries.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		chain := make([]Version, 0, n)
		pos := 0.0
		for i := 0; i < n; i++ {
			pos += float64(1 + rng.Intn(3))
			chain = append(chain, Version{
				Pos:        pos,
				Writer:     fmt.Sprintf("w%d", i),
				Value:      Value(rng.Intn(50)),
				Recovery:   rng.Intn(3) == 0,
				Checkpoint: rng.Intn(4) == 0,
			})
		}
		horizon := float64(rng.Intn(int(pos)+3)) - 1
		input := append([]Version(nil), chain...)

		// The store gets its own copy: CompactBefore edits chains in place.
		s, err := NewStoreFromChains(map[Key][]Version{"k": append([]Version(nil), chain...)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s.CompactBefore(horizon)
		got := CompactChain(input, horizon)
		if !reflect.DeepEqual(s.Chain("k"), got) {
			t.Fatalf("trial %d (horizon %g):\n chain  %+v\n store  %+v\n pure   %+v",
				trial, horizon, input, s.Chain("k"), got)
		}
		// Purity: the input chain is untouched.
		if !reflect.DeepEqual(input, chain) {
			t.Fatalf("trial %d: CompactChain mutated its input", trial)
		}
	}
}

func TestCompactChainEdges(t *testing.T) {
	if got := CompactChain(nil, 5); got != nil {
		t.Errorf("nil chain compacted to %+v", got)
	}
	// Horizon exactly on a version's Pos: that version is the boundary.
	chain := []Version{{Pos: 1, Writer: "a", Value: 1}, {Pos: 5, Writer: "b", Value: 2}, {Pos: 9, Writer: "c", Value: 3}}
	got := CompactChain(chain, 5)
	if len(got) != 2 || got[0].Pos != 5 || !got[0].Checkpoint || got[1].Pos != 9 {
		t.Errorf("horizon-on-boundary: %+v", got)
	}
	// Horizon below everything: untouched, no boundary promotion.
	got = CompactChain(chain, 0.5)
	if !reflect.DeepEqual(got, chain) {
		t.Errorf("pre-history horizon altered the chain: %+v", got)
	}
	// A recovery version surviving as the boundary becomes permanent
	// history: Checkpoint set, Recovery cleared.
	got = CompactChain([]Version{{Pos: 2, Writer: "r", Value: 7, Recovery: true}}, 3)
	if len(got) != 1 || !got[0].Checkpoint || got[0].Recovery {
		t.Errorf("recovery boundary not promoted: %+v", got)
	}
	// Duplicate boundaries collapse to the latest.
	got = CompactChain([]Version{
		{Pos: 1, Value: 1, Checkpoint: true},
		{Pos: 4, Value: 2, Checkpoint: true},
		{Pos: 8, Value: 3},
	}, 4)
	if len(got) != 2 || got[0].Pos != 4 || got[1].Pos != 8 {
		t.Errorf("duplicate boundaries survived: %+v", got)
	}
	// Idempotence.
	once := CompactChain(chain, 5)
	if twice := CompactChain(once, 5); !reflect.DeepEqual(once, twice) {
		t.Errorf("not idempotent: %+v vs %+v", once, twice)
	}
}

// bruteVersionsBy is VersionsBy by a scan over every chain.
func bruteVersionsBy(s *Store, writer string) (last map[Key]Version, deletable int) {
	last = make(map[Key]Version)
	for _, k := range s.Keys() {
		for _, v := range s.Chain(k) {
			if v.Writer == writer {
				last[k] = v
				if !v.Checkpoint {
					deletable++
				}
			}
		}
	}
	return last, deletable
}

func TestWriterIndexConsistency(t *testing.T) {
	// Random interleavings of every mutating operation — on a store and on
	// the clones taken along the way, which share their index slices with
	// it — must leave every store's writer index in exact agreement with its
	// own chains, and the index-driven VersionsBy/DeleteWrites must agree
	// with a brute-force scan of the chains.
	keys := []Key{"a", "b", "c", "d", "e"}
	writers := []string{"w1", "w2", "w3", "w4", "w5", "w6"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		someKeys := func() []Key {
			out := []Key{keys[rng.Intn(len(keys))]}
			for rng.Intn(2) == 0 {
				out = append(out, keys[rng.Intn(len(keys))])
			}
			return out
		}
		stores := []*Store{NewStore()}
		pos := 1.0
		for step := 0; step < 600; step++ {
			s := stores[rng.Intn(len(stores))]
			w := writers[rng.Intn(len(writers))]
			switch rng.Intn(12) {
			case 0, 1, 2:
				s.Write(keys[rng.Intn(len(keys))], Value(rng.Intn(100)), pos, w, rng.Intn(3) == 0)
				pos++
			case 3, 4: // out of order; the step-derived fraction keeps positions unique
				at := float64(rng.Intn(int(pos))) + float64(step+1)/1000
				s.Write(keys[rng.Intn(len(keys))], Value(rng.Intn(100)), at, w, rng.Intn(2) == 0)
			case 5:
				_, want := bruteVersionsBy(s, w)
				if got := s.DeleteWrites(w); got != want {
					t.Fatalf("seed %d step %d: DeleteWrites(%s) removed %d versions, the chains held %d", seed, step, w, got, want)
				}
			case 6:
				w2 := writers[rng.Intn(len(writers))]
				_, want := bruteVersionsBy(s, w)
				if w2 != w {
					_, n := bruteVersionsBy(s, w2)
					want += n
				}
				if got := s.DeleteWritesBatch([]string{w, w2}); got != want {
					t.Fatalf("seed %d step %d: DeleteWritesBatch removed %d versions, the chains held %d", seed, step, got, want)
				}
			case 7:
				s.DeleteRecoveryVersions()
			case 8:
				s.DeleteRecoveryVersionsIn(someKeys())
			case 9:
				s.CompactBefore(pos - float64(rng.Intn(20)))
			case 10:
				s.AdoptChains(stores[rng.Intn(len(stores))], someKeys())
			case 11: // clones keep being taken, of stores at every age
				if len(stores) < 4 {
					stores = append(stores, s.Clone())
				} else {
					stores[rng.Intn(len(stores))] = s.Clone()
				}
			}
			for i, st := range stores {
				if err := st.CheckIndex(); err != nil {
					t.Fatalf("seed %d step %d store %d: %v", seed, step, i, err)
				}
			}
			for _, w := range writers {
				want, _ := bruteVersionsBy(s, w)
				if got := s.VersionsBy(w); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: VersionsBy(%s) = %v, the chains say %v", seed, step, w, got, want)
				}
			}
		}
	}
}

func TestDeleteWritesBatch(t *testing.T) {
	s := NewStore()
	s.Init("x", 1)
	s.Write("x", 2, 1, "a", false)
	s.Write("x", 3, 2, "b", false)
	s.Write("y", 4, 3, "a", false)
	if n := s.DeleteWritesBatch([]string{"a", "b", "missing"}); n != 3 {
		t.Fatalf("deleted %d versions, want 3", n)
	}
	if v, _ := s.Get("x"); v.Value != 1 {
		t.Errorf("x = %d after batch undo, want initial 1", v.Value)
	}
	// y had only a's write: chain emptied, key dropped.
	if _, ok := s.Get("y"); ok {
		t.Error("y still present after its only writer was undone")
	}
	if err := s.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactThenDeleteWritesKeepsChain(t *testing.T) {
	// Regression: compaction promotes a surviving version to a checkpoint
	// boundary; undoing its writer afterwards must not remove the boundary
	// (the history beneath it is gone — deleting it would corrupt every
	// later positional read on the chain).
	s := NewStore()
	s.Init("x", 1)
	s.Write("x", 10, 3, "w3", false)
	s.Write("x", 20, 7, "w7", true) // recovery write survives as the boundary
	s.Write("x", 30, 9, "w9", false)
	if n := s.CompactBefore(7); n != 2 {
		t.Fatalf("compaction discarded %d, want 2", n)
	}
	boundary := s.Chain("x")[0]
	if !boundary.Checkpoint || boundary.Recovery {
		t.Fatalf("boundary not promoted to permanent checkpoint: %+v", boundary)
	}
	// Undoing the boundary's writer is a no-op on the checkpoint.
	if n := s.DeleteWrites("w7"); n != 0 {
		t.Errorf("DeleteWrites removed %d checkpointed versions", n)
	}
	// Stripping recovery versions preserves it too.
	if n := s.DeleteRecoveryVersions(); n != 0 {
		t.Errorf("DeleteRecoveryVersions removed %d checkpointed versions", n)
	}
	if v, ok := s.GetBefore("x", 9); !ok || v.Value != 20 {
		t.Errorf("GetBefore(x, 9) = %+v, %v; want the checkpoint value 20", v, ok)
	}
	// Undoing a later writer still works and never empties past the boundary.
	s.DeleteWrites("w9")
	if v, _ := s.Get("x"); v.Value != 20 {
		t.Errorf("x = %d after undoing w9, want 20", v.Value)
	}
	if err := s.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactCollapsesDuplicateBoundaries(t *testing.T) {
	// Chains that degenerate into runs of compaction boundaries (merges of
	// differently-compacted stores) collapse to the single latest boundary.
	s := NewStore()
	s.Init("x", 1)
	s.Write("x", 2, 4, "a", false)
	s.CompactBefore(1) // init version becomes a checkpoint
	other := NewStore()
	other.Init("x", 1)
	other.Write("x", 2, 4, "a", false)
	other.Write("x", 3, 6, "b", false)
	other.CompactBefore(4) // a's version becomes a checkpoint
	s.AdoptChains(other, []Key{"x"})
	// s now has checkpoint@0 replaced by other's chain: checkpoint@4, b@6.
	s.Write("x", 9, 8, "c", false)
	if n := s.CompactBefore(6); n != 1 {
		t.Fatalf("compaction discarded %d, want 1 (the stale boundary)", n)
	}
	chain := s.Chain("x")
	if len(chain) != 2 || !chain[0].Checkpoint || chain[0].Pos != 6 {
		t.Fatalf("chain after recompaction: %+v", chain)
	}
	if err := s.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

func TestAdoptChains(t *testing.T) {
	live := NewStore()
	live.Init("x", 1)
	live.Write("x", 2, 1, "a", false)
	live.Init("y", 5)
	live.Write("y", 6, 2, "b", false)
	live.Init("z", 9)

	repaired := NewStore()
	repaired.Init("x", 1)
	repaired.Write("x", 3, 1.0000001, "a", true)
	// Repaired store dropped z entirely.

	live.AdoptChains(repaired, []Key{"x", "z"})
	if v, _ := live.Get("x"); v.Value != 3 {
		t.Errorf("x = %d after adopt, want repaired 3", v.Value)
	}
	if _, ok := live.Get("z"); ok {
		t.Error("z survived adoption from a store without it")
	}
	// y untouched.
	if v, _ := live.Get("y"); v.Value != 6 {
		t.Errorf("y = %d after adopt, want 6", v.Value)
	}
	if err := live.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	// Adoption deep-copies: mutating the source must not alias.
	repaired.Write("x", 99, 5, "c", false)
	if v, _ := live.Get("x"); v.Value != 3 {
		t.Errorf("x = %d after source mutation, want 3", v.Value)
	}
}

func TestDeleteRecoveryVersionsIn(t *testing.T) {
	s := NewStore()
	s.Init("x", 1)
	s.Write("x", 2, 1.5, "a", true)
	s.Init("y", 3)
	s.Write("y", 4, 2.5, "b", true)
	if n := s.DeleteRecoveryVersionsIn([]Key{"x"}); n != 1 {
		t.Fatalf("deleted %d, want 1", n)
	}
	if v, _ := s.Get("x"); v.Value != 1 {
		t.Errorf("x = %d, want 1", v.Value)
	}
	if v, _ := s.Get("y"); v.Value != 4 {
		t.Errorf("y = %d, want recovery version 4 preserved", v.Value)
	}
	if err := s.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}
