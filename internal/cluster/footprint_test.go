package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"selfheal/internal/durable"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
)

// replicaFootprintBudget is the live heap a journaled follower may keep per
// applied record, in bytes: ~15 % above the 1 070 B (4 437 B per run)
// measured when the budget was set, with each applied entry sharing its
// spec's strings (internEntry; 1 089 B without). Before that the same stream
// left 1 748 B (7 250 B per run): the replica also kept every record decoded
// in a history slice — each run's spec document and init map, each entry's
// record slot — beside the journal holding the same stream as bytes. Most of
// what remains is the compiled spec of every run (wfjson.Build).
const replicaFootprintBudget = 1230

// footprintStream runs tenants × perTenant generated runs of the benchmark's
// shape (wf.GenerateBlueprint, 8 tasks over a private 6-key pool per tenant,
// a tenant's next run after its previous one) on an in-memory one-node
// cluster and returns the record stream it stamped, as frames, and the run
// count.
func footprintStream(t *testing.T, tenants, perTenant int) ([]byte, int) {
	t.Helper()
	gen, err := New(Config{NodeID: "gen"})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	defer gen.Stop()
	rngs := make([]*rand.Rand, tenants)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i) + 1))
	}
	deadline := time.Now().Add(60 * time.Second)
	for j := 0; j < perTenant; j++ {
		names := make([]string, tenants)
		for i := range names {
			names[i] = fmt.Sprintf("a%d-r%d", i, j)
			cfg := wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: fmt.Sprintf("a%d_", i)}
			if err := gen.SubmitRunSpec(names[i], wfjson.FromBlueprint(wf.GenerateBlueprint(names[i], cfg, rngs[i]))); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			for done, _ := gen.rep.RunDone(name); !done; done, _ = gen.rep.RunDone(name) {
				if time.Now().After(deadline) {
					t.Fatalf("run %s did not finish", name)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gen.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	body, _, err := gen.journal.ReadFrames(1, gen.rep.Applied())
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(body), tenants * perTenant
}

// liveHeap returns HeapAlloc after two forced collections (the second one
// finishes what the first one's sweep left).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReplicaFootprint is ROADMAP aim 3 for a cluster replica: a journaled
// follower that applies a generated stream, pushed to it in 256-record bodies
// as the stamper's pushers ship them, and serves it to a peer keeps at most
// replicaFootprintBudget of live heap per applied record. The journal holds
// the stream; the heap holds the state derived from it.
func TestReplicaFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocations")
	}
	body, runs := footprintStream(t, 16, 250)
	payloads, _ := durable.SplitFrames(body)
	var bodies [][]byte
	for off, i := 0, 0; i < len(payloads); {
		start := off
		for end := min(i+256, len(payloads)); i < end; i++ {
			off += durable.FrameHeader + len(payloads[i])
		}
		bodies = append(bodies, body[start:off])
	}

	before := liveHeap()
	n := newFollower(t, t.TempDir())
	// A peer's fetch: from here on the journal keeps its read index.
	if _, _, err := n.journal.ReadFrames(1, 1); err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		if err := n.applyFrames(b); err != nil {
			t.Fatal(err)
		}
	}
	if served, err := n.framesAfter(0, n.rep.Applied()); err != nil || !bytes.Equal(served, body) {
		t.Fatalf("the follower serves %d bytes (%v), not the %d-byte stream it applied", len(served), err, len(body))
	}
	after := liveHeap()
	runtime.KeepAlive(body) // live at both readings, so not in the difference
	runtime.KeepAlive(n)

	records := n.rep.Applied()
	growth := float64(after) - float64(before)
	per := growth / float64(records)
	t.Logf("%d runs, %d records: %.0f B of live heap per applied record, %.0f B per run (budget %d B per record)",
		runs, records, per, growth/float64(runs), replicaFootprintBudget)
	if per > replicaFootprintBudget {
		t.Fatalf("live heap per applied record %.0f B exceeds the budget of %d B (1 748 B when the replica kept the stream decoded beside the journal)",
			per, replicaFootprintBudget)
	}
}
