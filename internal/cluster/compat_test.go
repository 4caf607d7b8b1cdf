package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// journalWorkload drives the fixed one-node episode behind
// testdata/journal_pr17 on the harness's node "a": three generated runs, a
// forged task (three reads — one of a missing key — and three writes, one to
// a non-ASCII key), two runs on top of it, the alert and its repair, and a
// final run, one submission at a time.
func journalWorkload(t *testing.T, h *harness) {
	t.Helper()
	n := h.nodes["a"]
	rng := rand.New(rand.NewSource(19))
	cfg := wf.GenConfig{Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: "g_"}
	submit := func(from, to int) {
		for i := from; i < to; i++ {
			name := fmt.Sprintf("r%d", i)
			if err := n.SubmitRunSpec(name, wfjson.FromBlueprint(wf.GenerateBlueprint(name, cfg, rng))); err != nil {
				t.Fatal(err)
			}
			waitRunDone(t, n, name, 10*time.Second)
		}
	}
	submit(0, 3)
	inst, err := n.InjectForged("attacker", "evil", []string{"g_k0", "g_nokey", "g_k1"},
		map[string]int64{"g_k2": -5, "g_k0": -6, "ключ": 7})
	if err != nil {
		t.Fatal(err)
	}
	submit(3, 5)
	if _, _, err := n.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.DrainRecovery(ctx); err != nil {
		t.Fatal(err)
	}
	submit(5, 6)
	h.waitIdle("a", 10*time.Second)
}

// commits returns the node's whole record stream as /internal/v1/commits
// serves it, in JSON or in the binary replication codec.
func commits(t *testing.T, h *harness, query string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.nodes["a"].InternalHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/internal/v1/commits?after=0&max=100000"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET commits%s: status %d", query, rec.Code)
	}
	return rec.Body.Bytes()
}

// TestJournalFromParentCommit is the journal and wire compatibility check of
// the map-to-slice change of wlog.Entry and of the adopt record.
// testdata/journal_pr17 is the journal journalWorkload left on commit
// 2596ec3; journal_pr17_store.json and journal_pr17_commits.json are
// that commit's /api/v1/store and JSON /internal/v1/commits bodies for it
// (its codec=bin body is the journal's own bytes: one framed record per
// stream position). A node of this code booted on the journal must serve the
// same three documents — its repair record replays through the compute the
// stamper now runs. The same workload must leave the same journal frame for
// frame, except that the repair is now stamped as its effect, an adopt
// record at the same position, and a node booted on that journal must
// serve the same store.
func TestJournalFromParentCommit(t *testing.T) {
	const seg = "a.wal-0000000000000001.seg"
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	journal, store := read(filepath.Join("journal_pr17", seg)), read("journal_pr17_store.json")
	bootOn := func(journal []byte) *harness {
		return startCluster(t, []string{"a"}, true, func(_ string, cfg *cluster.Config) {
			// Before the node boots: put the journal where it looks.
			if err := os.WriteFile(filepath.Join(cfg.Dir, seg), journal, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}

	h := bootOn(journal)
	if got := h.rawStore("a"); !bytes.Equal(got, store) {
		t.Errorf("the parent's journal replays to store %s, want %s", got, store)
	}
	if got, want := commits(t, h, ""), read("journal_pr17_commits.json"); !bytes.Equal(got, want) {
		t.Errorf("JSON commits document differs from the parent's:\n%s\nwant\n%s", got, want)
	}
	if got := commits(t, h, "&codec=bin"); !bytes.Equal(got, journal) {
		t.Errorf("binary commits body (%d bytes) differs from the parent's (%d bytes)", len(got), len(journal))
	}

	fresh := startCluster(t, []string{"a"}, true, nil)
	journalWorkload(t, fresh)
	fresh.stopNode("a")
	got, err := os.ReadFile(filepath.Join(fresh.dirs["a"], seg))
	if err != nil {
		t.Fatal(err)
	}
	gotFrames, wantFrames := frames(t, got), frames(t, journal)
	if len(gotFrames) != len(wantFrames) {
		t.Fatalf("the workload's journal holds %d records, the parent's %d", len(gotFrames), len(wantFrames))
	}
	adopts := 0
	for i, want := range wantFrames {
		if want[0] != recRepair {
			if !bytes.Equal(gotFrames[i], want) {
				t.Errorf("record %d differs from the parent's", i+1)
			}
			continue
		}
		adopts++
		if gotFrames[i][0] != recAdopt || !bytes.Equal(gotFrames[i][1:2], want[1:2]) {
			t.Errorf("record %d: kind %d seq %d, want the adopt record (kind %d) at the repair's seq %d",
				i+1, gotFrames[i][0], gotFrames[i][1], recAdopt, want[1])
		}
		t.Logf("record %d: the adopt frame is %d B, the parent's repair frame %d B", i+1, 8+len(gotFrames[i]), 8+len(want))
	}
	if adopts != 1 {
		t.Fatalf("the parent's journal holds %d repair records, want 1", adopts)
	}
	if got := bootOn(got).rawStore("a"); !bytes.Equal(got, store) {
		t.Errorf("the workload's journal replays to store %s, want %s", got, store)
	}
}

// The kind bytes of a repair and an adopt record (internal/cluster/codec.go).
const recRepair, recAdopt = 3, 5

// frames splits a journal segment into its record payloads: each frame is a
// little-endian length, a CRC and the payload, whose first byte is the kind
// and whose second is the seq (a one-byte uvarint in a short stream).
func frames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 8 {
			t.Fatalf("a torn frame header: %d bytes", len(b))
		}
		n := 8 + int(binary.LittleEndian.Uint32(b))
		if n > len(b) || n < 10 {
			t.Fatalf("a frame of %d bytes in %d", n, len(b))
		}
		out = append(out, b[8:n])
		b = b[n:]
	}
	return out
}
