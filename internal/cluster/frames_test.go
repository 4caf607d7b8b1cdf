package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/obs"
	"selfheal/internal/triage"
	"selfheal/internal/wlog"
)

// journalBytes returns a stopped node's whole journal: its segment files'
// contents in stream order.
func (h *harness) journalBytes(id string) []byte {
	h.t.Helper()
	names, err := filepath.Glob(filepath.Join(h.dirs[id], id+".wal-*.seg"))
	if err != nil || len(names) == 0 {
		h.t.Fatalf("journal of %s: %v (%d segments)", id, err, len(names))
	}
	var out []byte
	for _, name := range names { // zero-padded first seqs: lexical is stream order
		b, err := os.ReadFile(name)
		if err != nil {
			h.t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// waitApplied waits until every live node's replica has applied seq.
func (h *harness) waitApplied(seq int, timeout time.Duration) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for id, n := range h.nodes {
		for n.ClusterDoc().(cluster.ClusterInfo).Applied < seq {
			if ctx.Err() != nil {
				h.t.Fatalf("node %s never applied record %d", id, seq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// advertised is the applied cursor a node reports to its peers.
func (h *harness) advertised(id string) int {
	h.t.Helper()
	resp, err := http.Get(h.url(id) + "/internal/v1/status")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Applied int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		h.t.Fatal(err)
	}
	return st.Applied
}

// Followers journal the frames they receive verbatim: after a workload with
// a forge and its repair, every node's journal is byte for byte the
// stamper's.
func TestJournalsByteIdentical(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, true, nil)
	keys := keysByOwner(ids, 2)
	entry := h.nodes[h.follower()]
	for i := 0; i < 4; i++ {
		run := fmt.Sprintf("r%d", i)
		if err := entry.SubmitRunSpec(run, chainSpec([]string{keys["a"][i%2], keys["b"][i%2], keys["c"][i%2]}, int64(10*i))); err != nil {
			t.Fatalf("submit %s: %v", run, err)
		}
		waitRunDone(t, entry, run, 10*time.Second)
	}
	inst, err := entry.InjectForged("r1", "evil", nil, map[string]int64{keys["b"][1]: 666})
	if err != nil {
		t.Fatalf("forge: %v", err)
	}
	if _, _, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil {
		t.Fatalf("alert: %v", err)
	}
	h.waitIdle("a", 20*time.Second)
	h.assertStoresIdentical()
	if st := h.nodes["a"].MetricsDoc(); st.UnitsExecuted != 1 {
		t.Fatalf("%d repairs executed, want 1", st.UnitsExecuted)
	}
	for _, id := range ids {
		h.stopNode(id)
	}
	want := h.journalBytes("a")
	for _, id := range ids[1:] {
		if got := h.journalBytes(id); !bytes.Equal(got, want) {
			t.Errorf("journal of %s (%d bytes) differs from the stamper's (%d bytes)", id, len(got), len(want))
		}
	}
}

// A follower whose journal stopped at a hole keeps applying, but it neither
// serves nor advertises a record past its journal — so -join, with the
// stamper down, takes the stream from the healthy follower instead, and the
// joined node converges.
func TestClosedJournalCapsServing(t *testing.T) {
	ids := []string{"a", "b", "c", "d"} // a stamps; b's journal fails; d rejoins
	h := startCluster(t, ids, true, nil)
	keys := keysByOwner(ids, 2)
	submit := func(run string, i int) {
		t.Helper()
		if err := h.nodes["c"].SubmitRunSpec(run, chainSpec([]string{keys["b"][i], keys["c"][i], keys["d"][i]}, int64(i))); err != nil {
			t.Fatalf("submit %s: %v", run, err)
		}
		waitRunDone(t, h.nodes["c"], run, 10*time.Second)
	}
	submit("before", 0)
	h.waitIdle("a", 10*time.Second)
	journaled := h.advertised("b")

	h.nodes["b"].CloseJournal()
	submit("after", 1)
	head := h.nodes["a"].ClusterDoc().(cluster.ClusterInfo).Applied
	h.waitApplied(head, 10*time.Second)
	if got := h.advertised("b"); got != journaled || got >= head {
		t.Fatalf("b advertises record %d; it journaled %d of %d", got, journaled, head)
	}
	if got := h.regs["b"].Snapshot()[obs.MClusterJournalErrors]; got == 0 {
		t.Fatalf("b applied past its closed journal without counting a journal error")
	}
	resp, err := http.Get(fmt.Sprintf("%s/internal/v1/commits?after=%d&max=100", h.url("b"), journaled))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Records []struct {
			Seq int `json:"seq"`
		} `json:"records"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	if len(doc.Records) > 0 {
		t.Fatalf("b served record %d past its journal (record %d)", doc.Records[0].Seq, journaled)
	}

	// Rejoin d from nothing while the stamper is down: b and c are the
	// candidate sources, and only c may be taken.
	h.stopNode("d")
	segs, _ := filepath.Glob(filepath.Join(h.dirs["d"], "d.wal-*.seg"))
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	h.stopNode("a")
	h.bootNode("d", true)
	if got := h.nodes["d"].ClusterDoc().(cluster.ClusterInfo).Applied; got != head {
		t.Fatalf("d joined at record %d, want %d", got, head)
	}
	h.bootNode("a", false)
	h.waitApplied(head, 10*time.Second)
	h.assertStoresIdentical()
}
