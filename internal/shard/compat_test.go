package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
	"selfheal/internal/wlogio"
)

// walWorkload drives the fixed single-shard episode behind testdata/wal_pr17:
// two generated runs, a checkpoint, two more runs, a forged task (three reads
// — one of a missing key — and three writes, one to a non-ASCII key), two
// runs on top of it, the alert and its repair, and a final run. One shard and
// one submission at a time make the record sequence, and so the bytes, a
// function of the seed alone.
func walWorkload(t *testing.T, dir string) {
	t.Helper()
	svc := newDurableSvc(t, dir, Config{Shards: 1})
	rng := rand.New(rand.NewSource(19))
	cfg := wf.GenConfig{Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: "g_"}
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			name := fmt.Sprintf("r%d", i)
			if err := svc.SubmitRunSpec(name, wfjson.FromBlueprint(wf.GenerateBlueprint(name, cfg, rng))); err != nil {
				t.Fatal(err)
			}
			waitIdle(t, svc)
		}
	}
	submit(0, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	submit(2, 4)
	inst, err := svc.InjectForged("attacker", "evil", []data.Key{"g_k0", "g_nokey", "g_k1"},
		map[data.Key]data.Value{"g_k2": -5, "g_k0": -6, "ключ": 7})
	if err != nil {
		t.Fatal(err)
	}
	submit(4, 7)
	if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	drainRecovery(t, svc)
	submit(7, 8)
	svc.Stop()
}

// restoredState opens a copy of a WAL directory and returns what it restores
// to, as the wlogio document.
func restoredState(t *testing.T, dir string) []byte {
	t.Helper()
	cp := t.TempDir()
	copyTree(t, dir, cp)
	svc := newDurableSvc(t, cp, Config{Shards: 1})
	var buf bytes.Buffer
	if err := wlogio.Encode(&buf, svc.Log(), svc.Store()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWALFromParentCommit is the on-disk compatibility check of the
// map-to-slice change of wlog.Entry and of snapshot tombstones:
// testdata/wal_pr17 is walWorkload as written by commit 2596ec3 (PR 17), and
// wal_pr17_state.json the wlogio document that commit restored from it. This
// code must restore the same document from those files — the format-1
// snapshot's retired runs turn into tombstones at boot — and write the same
// files for the same workload: the WAL segment byte for byte, the snapshot
// with the one change format 2 made, r0 and r1 (retired before the
// checkpoint) written as tombstones instead of spec and run records.
func TestWALFromParentCommit(t *testing.T) {
	const golden = "testdata/wal_pr17"
	want, err := os.ReadFile("testdata/wal_pr17_state.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := restoredState(t, golden); !bytes.Equal(got, want) {
		t.Errorf("the parent's WAL restores to a different log and store:\n%s\nwant\n%s", got, want)
	}

	dir := t.TempDir()
	walWorkload(t, dir)
	names, err := filepath.Glob(filepath.Join(golden, "*"))
	if err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(names) {
		t.Fatalf("the workload wrote %d files, the parent wrote %d", len(written), len(names))
	}
	for _, name := range names {
		wantB, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := os.ReadFile(filepath.Join(dir, filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(filepath.Base(name), "snap-") {
			sameSnapshotButTombstones(t, wantB, gotB)
			continue
		}
		if !bytes.Equal(gotB, wantB) {
			t.Errorf("%s: %d bytes differ from the parent's %d", filepath.Base(name), len(gotB), len(wantB))
		}
	}
}

// sameSnapshotButTombstones decodes the parent's snapshot and this code's and
// requires them equal except that the runs retired before the checkpoint, r0
// and r1, are tombstones here and spec plus run records there.
func sameSnapshotButTombstones(t *testing.T, parentB, gotB []byte) {
	t.Helper()
	parent, err := durable.DecodeSnapshot(parentB)
	if err != nil {
		t.Fatalf("parent snapshot: %v", err)
	}
	got, err := durable.DecodeSnapshot(gotB)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	tombs := map[string]durable.Tombstone{"r0": {Status: durable.RunDone}, "r1": {Status: durable.RunDone}}
	if !reflect.DeepEqual(got.Tombs, tombs) || len(got.Specs) != 0 || len(got.Runs) != 0 {
		t.Errorf("snapshot records tombstones %+v, specs %d, runs %d; want tombstones %+v and nothing else",
			got.Tombs, len(got.Specs), len(got.Runs), tombs)
	}
	if len(parent.Specs) != len(tombs) || !reflect.DeepEqual(parent.Horizon().Tombs, tombs) {
		t.Errorf("the parent's snapshot records %d specs and retired runs %+v, want %+v",
			len(parent.Specs), parent.Horizon().Tombs, tombs)
	}
	parent.Specs, parent.Runs, parent.Tombs = got.Specs, got.Runs, got.Tombs
	if !reflect.DeepEqual(parent, got) {
		t.Errorf("snapshots differ beyond the tombstones:\n parent %+v\n got    %+v", parent, got)
	}
}

// TestEntriesKeepKeyOrder: whatever path an entry takes into the service's
// log — a committed step (before and after a repair resynced the runs), a
// forged task, a WAL tail decoded at restart — its reads and writes are
// sorted by key with no key twice, the order every consumer relies on
// without checking.
func TestEntriesKeepKeyOrder(t *testing.T) {
	check := func(when string, log *wlog.Log) {
		t.Helper()
		for _, e := range log.Entries() {
			for i := 1; i < len(e.Reads); i++ {
				if e.Reads[i-1].Key >= e.Reads[i].Key {
					t.Fatalf("%s: %s reads out of order: %+v", when, e.ID(), e.Reads)
				}
			}
			for i := 1; i < len(e.Writes); i++ {
				if e.Writes[i-1].Key >= e.Writes[i].Key {
					t.Fatalf("%s: %s writes out of order: %+v", when, e.ID(), e.Writes)
				}
			}
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		svc := newDurableSvc(t, dir, Config{Shards: 3})
		// Keys drawn so that spec order is rarely key order: k10 < k2.
		cfg := wf.GenConfig{Tasks: 7, Keys: 12, MaxReads: 3, MaxWrites: 3, BranchProb: 0.3, Prefix: "p_"}
		submit := func(svc *Service, from, to int) {
			for i := from; i < to; i++ {
				name := fmt.Sprintf("s%d-r%d", seed, i)
				if err := svc.SubmitRunSpec(name, wfjson.FromBlueprint(wf.GenerateBlueprint(name, cfg, rng))); err != nil {
					t.Fatal(err)
				}
			}
			waitIdle(t, svc)
		}
		submit(svc, 0, 6)
		writes := map[data.Key]data.Value{}
		for len(writes) < 3 {
			writes[data.Key(fmt.Sprintf("p_k%d", rng.Intn(12)))] = data.Value(-1 - rng.Intn(100))
		}
		inst, err := svc.InjectForged("attacker", "evil", []data.Key{"p_k9", "p_k10", "p_k1", "p_k9"}, writes)
		if err != nil {
			t.Fatal(err)
		}
		submit(svc, 6, 10)
		if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
			t.Fatal(err)
		}
		drainRecovery(t, svc)
		check(fmt.Sprintf("seed %d after repair", seed), svc.Log())
		svc.Stop()

		svc2 := newDurableSvc(t, dir, Config{Shards: 3})
		submit(svc2, 10, 12)
		check(fmt.Sprintf("seed %d after restart", seed), svc2.Log())
		if n := svc2.Log().Len() - svc2.Log().Base(); n < 20 {
			t.Fatalf("seed %d: only %d entries restored and committed", seed, n)
		}
	}
}
