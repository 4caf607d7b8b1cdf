package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/recovery"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
	"selfheal/internal/wlog"
)

// snapshotEvery makes a test cluster checkpoint every n entries.
func snapshotEvery(n int) func(string, *cluster.Config) {
	return func(_ string, cfg *cluster.Config) { cfg.SnapshotEvery = n }
}

// latestSnapshot returns a node's newest snapshot file: the seq it covers
// and its bytes (0 and nil before the node's first checkpoint).
func (h *harness) latestSnapshot(id string) (uint64, []byte) {
	h.t.Helper()
	seq, b, err := durable.LatestSnapshotFile(h.dirs[id], id+".snap-")
	if err != nil {
		h.t.Fatalf("snapshot of %s: %v", id, err)
	}
	return seq, b
}

// waitSnapshots waits until every live node has stored the stamper's latest
// snapshot, and returns its seq.
func (h *harness) waitSnapshots(timeout time.Duration) uint64 {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		want, _ := h.latestSnapshot(cluster.NewRing(h.ids).Stamper())
		same := want > 0
		for id := range h.nodes {
			if got, _ := h.latestSnapshot(id); got != want {
				same = false
			}
		}
		if same {
			return want
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("the nodes never all stored the snapshot at record %d", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkpointsStamped is how many checkpoint records the stamper stamped.
func (h *harness) checkpointsStamped() float64 {
	stamper := cluster.NewRing(h.ids).Stamper()
	return h.regs[stamper].Snapshot()[fmt.Sprintf("%s{kind=%q}", obs.MClusterRecordsStamped, cluster.KindCheckpoint)]
}

// installs is how many peer snapshots a node installed.
func (h *harness) installs(id string) float64 {
	return h.regs[id].Snapshot()[obs.MClusterSnapshotInstalls]
}

// traffic registers workers × perWorker chain runs concurrently, worker w
// through entry[w%len(entry)] over its own keys, each run waited for before
// the worker's next.
func traffic(t *testing.T, h *harness, prefix string, entry []string, workers, perWorker int) {
	t.Helper()
	keys := keysByOwner(h.ids, workers)
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := h.nodes[entry[w%len(entry)]]
			chain := []string{keys[h.ids[0]][w], keys[h.ids[1]][w], keys[h.ids[2]][w]}
			for i := 0; i < perWorker; i++ {
				run := fmt.Sprintf("%s-w%d-%d", prefix, w, i)
				if err := n.SubmitRunSpec(run, chainSpec(chain, int64(100*w+i))); err != nil {
					errc <- fmt.Errorf("submit %s: %w", run, err)
					return
				}
				deadline := time.Now().Add(10 * time.Second)
				for info, err := n.RunInfo(run); err != nil || info.Status != "done"; info, err = n.RunInfo(run) {
					if time.Now().After(deadline) {
						errc <- fmt.Errorf("run %s not done: %+v %v", run, info, err)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// Every replica checkpoints at the same stream position and forgets the
// same history, so under concurrent traffic, a forge and its repair, the
// snapshot each node stores is byte for byte the stamper's — and the
// journals, which retire the same segments, stay identical too. A follower
// that fell a whole checkpoint interval behind (a loaded machine) installs
// the stamper's snapshot instead: its journal restarts there, and is a suffix
// of the stamper's until the next checkpoint.
func TestSnapshotsByteIdentical(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, true, snapshotEvery(16))
	traffic(t, h, "p1", []string{"b", "c", "a", "b"}, 4, 5)
	h.waitIdle("a", 20*time.Second)
	if err := h.nodes["c"].Checkpoint(context.Background()); err != nil {
		t.Fatalf("checkpoint through a follower: %v", err)
	}
	seq := h.waitSnapshots(10 * time.Second)
	_, want := h.latestSnapshot("a")
	for _, id := range ids[1:] {
		if _, got := h.latestSnapshot(id); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d of %s (%d bytes) differs from the stamper's (%d bytes)", seq, id, len(got), len(want))
		}
	}

	keys := keysByOwner(ids, 2)
	entry := h.nodes["b"]
	inst, err := entry.InjectForged("attacker", "evil", nil, map[string]int64{keys["b"][1]: 666})
	if err != nil {
		t.Fatalf("forge: %v", err)
	}
	h.waitApplied(entry.ClusterDoc().(cluster.ClusterInfo).Applied, 10*time.Second)
	if _, _, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil {
		t.Fatalf("alert: %v", err)
	}
	h.waitIdle("a", 20*time.Second)
	traffic(t, h, "p2", []string{"c", "a", "b", "c"}, 4, 5)
	h.waitIdle("a", 20*time.Second)
	h.assertStoresIdentical()
	if st := h.nodes["a"].MetricsDoc(); st.UnitsExecuted != 1 || st.RecoveryErrors != 0 {
		t.Fatalf("%d repairs executed (%d failed), want 1 clean repair", st.UnitsExecuted, st.RecoveryErrors)
	}
	if n := h.checkpointsStamped(); n < 3 {
		t.Fatalf("%v checkpoints stamped, want ≥ 3", n)
	}
	last := h.waitSnapshots(10 * time.Second)
	if last <= seq {
		t.Fatalf("no checkpoint after the repair (latest snapshot %d, forced one %d)", last, seq)
	}
	for _, id := range ids {
		h.stopNode(id)
	}
	_, want = h.latestSnapshot("a")
	wantJournal := h.journalBytes("a")
	for _, id := range ids[1:] {
		if _, got := h.latestSnapshot(id); !bytes.Equal(got, want) {
			t.Errorf("snapshot %d of %s differs from the stamper's", last, id)
		}
		got := h.journalBytes(id)
		if h.installs(id) > 0 {
			t.Logf("%s installed the stamper's snapshot %v times", id, h.installs(id))
			if !bytes.HasSuffix(wantJournal, got) {
				t.Errorf("journal of %s (%d bytes), which installed a snapshot, is not a suffix of the stamper's (%d bytes)", id, len(got), len(wantJournal))
			}
		} else if !bytes.Equal(got, wantJournal) {
			t.Errorf("journal of %s (%d bytes) differs from the stamper's (%d bytes)", id, len(got), len(wantJournal))
		}
	}
}

// settle waits until every live node has applied the stamper's position and
// that position has held still for a while, with active runs left active —
// the quiescent point of a cluster whose remaining runs are held at a gate.
func (h *harness) settle(active int, timeout time.Duration) int {
	h.t.Helper()
	stamper := h.nodes[cluster.NewRing(h.ids).Stamper()]
	deadline := time.Now().Add(timeout)
	last, stable := -1, 0
	for stable < 10 {
		if time.Now().After(deadline) {
			h.t.Fatalf("the cluster never settled with %d active runs (stamper at %d with %d active)", active, last, activeRuns(stamper))
		}
		time.Sleep(10 * time.Millisecond)
		head := stamper.ClusterDoc().(cluster.ClusterInfo).Applied
		same := head == last
		for _, n := range h.nodes {
			same = same && n.ClusterDoc().(cluster.ClusterInfo).Applied == head
		}
		if n := activeRuns(stamper); same && n == active {
			stable++
		} else {
			stable = 0
		}
		last = head
	}
	return last
}

func activeRuns(n *cluster.Node) int {
	count := 0
	for _, info := range n.Runs() {
		if info.Status == "active" {
			count++
		}
	}
	return count
}

// A follower rebooted from its snapshot and the journal suffix above it holds
// exactly the state of a live peer at the same position: store, runs, every
// run's trace and frontier — including runs that were live across the
// checkpoints, held at a paused key — and it installs the next repairs as
// the live nodes do: a clean one installed alike, and one whose damage
// reaches a run with history beneath the horizon refused by the stamper,
// stamped nowhere and counted once, at the stamper, which leads every
// incident.
func TestClusterRestartEqualsLive(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, true, snapshotEvery(24))
	const hold = "hold"
	h.nodes["a"].PauseKeys(hold)
	keys := keysByOwner(ids, 4)
	held := 0
	submitHeld := func(i int) {
		t.Helper()
		run := fmt.Sprintf("held%d", i)
		if err := h.nodes["b"].SubmitRunSpec(run, chainSpec([]string{keys["a"][3], keys["c"][3], hold}, int64(i))); err != nil {
			t.Fatalf("submit %s: %v", run, err)
		}
		held++
	}
	submitHeld(0)
	traffic(t, h, "p1", []string{"b", "c"}, 2, 8)
	submitHeld(1)
	traffic(t, h, "p2", []string{"a", "b"}, 2, 8)
	h.settle(held, 20*time.Second)
	if n := h.checkpointsStamped(); n < 2 {
		t.Fatalf("%v checkpoints stamped, want ≥ 2", n)
	}

	h.stopNode("c")
	cfg := cluster.Config{NodeID: "c", Peers: h.peers, Dir: h.dirs["c"]}
	rebooted, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("reboot c from its snapshot and journal: %v", err)
	}
	live := h.nodes["b"]
	if got, want := rebooted.ClusterDoc().(cluster.ClusterInfo).Applied, live.ClusterDoc().(cluster.ClusterInfo).Applied; got != want {
		t.Fatalf("rebooted c is at record %d, b at %d", got, want)
	}
	if !reflect.DeepEqual(rebooted.StoreSnapshot(), live.StoreSnapshot()) {
		t.Fatalf("store after reboot differs from the live peer's")
	}
	runs := live.Runs()
	if got := rebooted.Runs(); !reflect.DeepEqual(got, runs) {
		t.Fatalf("runs after reboot differ from the live peer's:\n%+v\n---\n%+v", got, runs)
	}
	retired := 0
	for _, info := range runs {
		if got, want := rebooted.Trace(info.ID), live.Trace(info.ID); !reflect.DeepEqual(got, want) {
			t.Errorf("run %s: trace %v after reboot, %v live", info.ID, got, want)
		}
		if got, want := rebooted.FrontierOf(info.ID), live.FrontierOf(info.ID); got != want {
			t.Errorf("run %s: frontier %+v after reboot, %+v live", info.ID, got, want)
		}
		if info.Steps == 0 {
			retired++
		}
	}
	if retired == 0 || activeRuns(live) != held {
		t.Fatalf("%d runs retired, %d active: the checkpoints kept everything or lost the held runs", retired, activeRuns(live))
	}
	rebooted.Stop()
	h.bootNode("c", false)

	// The held runs have entries beneath a checkpoint forced now; nothing
	// between it and the repairs below reaches SnapshotEvery.
	if err := h.nodes["c"].Checkpoint(context.Background()); err != nil {
		t.Fatalf("checkpoint through the rebooted follower: %v", err)
	}
	repair := func(key string, activeAfter int) {
		t.Helper()
		inst, err := live.InjectForged("attacker", "evil-"+key, nil, map[string]int64{key: 999})
		if err != nil {
			t.Fatalf("forge: %v", err)
		}
		// The reporting node must hold the forged entry before the alert.
		h.waitApplied(live.ClusterDoc().(cluster.ClusterInfo).Applied, 10*time.Second)
		if _, _, err := live.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil {
			t.Fatalf("alert: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := live.DrainRecovery(ctx); err != nil {
			t.Fatal(err)
		}
		h.settle(activeAfter, 20*time.Second)
		h.assertStoresIdentical()
	}
	repair("fresh", held)
	if got := live.StoreSnapshot(); got["fresh"] != 0 {
		t.Fatalf("the clean repair left the forged write: fresh = %d", got["fresh"])
	}
	// The refused incident pauses and releases the keys of its damage
	// closure, the held one among them, which the test's own pause still
	// holds: the held runs finish only once that pause ends too.
	repair(keys["a"][3], held)
	h.nodes["a"].ReleaseKeys(hold)
	h.settle(0, 20*time.Second)
	h.assertStoresIdentical()
	// Every node installed the one repair the stamper computed, and counts
	// it alike; the refused one was stamped nowhere, and only the stamper,
	// which leads every incident, counts the refusal.
	leader := "a"
	want := h.nodes["a"].MetricsDoc()
	if want.UnitsExecuted != 1 || want.Undone == 0 {
		t.Fatalf("stamper accounting %+v, want the one installed repair", want)
	}
	refusals := 0
	for _, id := range ids {
		got := h.nodes[id].MetricsDoc()
		if got.UnitsExecuted != want.UnitsExecuted || got.Undone != want.Undone || got.Redone != want.Redone {
			t.Errorf("node %s repair accounting %+v, stamper %+v", id, got, want)
		}
		refusals += got.RecoveryErrors
		v, isLeader := h.nodes[id].VerifyDoc(), id == leader
		if strings.Contains(v.RecoveryError, "beneath the horizon") != isLeader || (got.RecoveryErrors == 1) != isLeader {
			t.Errorf("node %s (leader %s): %d recovery errors, last %q; want the horizon refusal at the leader only",
				id, leader, got.RecoveryErrors, v.RecoveryError)
		}
	}
	if refusals != 1 {
		t.Errorf("%d refusals counted across the cluster, want exactly one", refusals)
	}
}

// A node restarted with -join after its peers retired every segment it lacks
// installs a peer's snapshot, then takes the frames above it: it ends with
// the peers' store, runs and snapshot, and a journal that is the suffix of
// theirs.
func TestJoinBelowHorizon(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, true, snapshotEvery(16))
	traffic(t, h, "early", []string{"b"}, 1, 2)
	h.waitIdle("a", 10*time.Second)
	lagging := h.nodes["c"].ClusterDoc().(cluster.ClusterInfo).Applied
	h.stopNode("c")

	traffic(t, h, "late", []string{"b", "a"}, 2, 12)
	if n := h.checkpointsStamped(); n < 3 {
		t.Fatalf("%v checkpoints stamped, want ≥ 3", n)
	}
	resp, err := http.Get(fmt.Sprintf("%s/internal/v1/commits?after=%d&codec=bin", h.url("a"), lagging))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("fetching after record %d: HTTP %d, want 410 (the peers retired it)", lagging, resp.StatusCode)
	}

	h.bootNode("c", true)
	if n := h.installs("c"); n != 1 {
		t.Fatalf("the joining node installed %v snapshots, want 1", n)
	}
	if got, want := h.nodes["c"].ClusterDoc().(cluster.ClusterInfo).Applied, h.nodes["a"].ClusterDoc().(cluster.ClusterInfo).Applied; got < want {
		t.Fatalf("c joined at record %d, the stamper is at %d", got, want)
	}
	traffic(t, h, "after", []string{"c"}, 1, 3)
	h.waitIdle("a", 10*time.Second)
	h.assertStoresIdentical()
	if got, want := h.nodes["c"].Runs(), h.nodes["a"].Runs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("runs of the joined node differ:\n%+v\n---\n%+v", got, want)
	}
	h.waitSnapshots(10 * time.Second)
	_, want := h.latestSnapshot("a")
	if _, got := h.latestSnapshot("c"); !bytes.Equal(got, want) {
		t.Fatalf("the joined node's snapshot differs from the stamper's")
	}
	for _, id := range ids {
		h.stopNode(id)
	}
	joined, full := h.journalBytes("c"), h.journalBytes("a")
	if len(joined) == 0 || !bytes.HasSuffix(full, joined) {
		t.Fatalf("the joined node's journal (%d bytes) is not a suffix of the stamper's (%d bytes)", len(joined), len(full))
	}
}

// An alert naming an instance a checkpoint retired — a finished run's, or a
// forge's that no run registered — is refused with the typed horizon error
// — HTTP 410 below_horizon — on the stamper and on a follower alike, and
// counted; the forged run is listed nowhere. A repair record that names one
// anyway (an alert that raced the checkpoint) is refused by the replica that
// applies it.
func TestClusterAlertBelowHorizon(t *testing.T) {
	ids := []string{"a", "b"}
	h := startCluster(t, ids, false, nil)
	keys := keysByOwner(ids, 1)
	if err := h.nodes["b"].SubmitRunSpec("r", chainSpec([]string{keys["a"][0], keys["b"][0]}, 1)); err != nil {
		t.Fatal(err)
	}
	waitRunDone(t, h.nodes["b"], "r", 10*time.Second)
	forged, err := h.nodes["b"].InjectForged("intruder", "evil", nil, map[string]int64{"loot": -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.nodes["b"].Checkpoint(context.Background()); err != nil {
		t.Fatalf("forced checkpoint: %v", err)
	}
	h.waitIdle("a", 10*time.Second)
	for _, id := range ids {
		_, _, err := h.nodes[id].ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{"r/t0#1"}}})
		if !errors.Is(err, recovery.ErrHorizon) {
			t.Errorf("alert via %s on a retired run's instance: %v, want ErrHorizon", id, err)
		}
		if _, _, err := h.nodes[id].ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{forged}}}); !errors.Is(err, recovery.ErrHorizon) {
			t.Errorf("alert via %s on a forge beneath the horizon: %v, want ErrHorizon", id, err)
		}
		if m := h.nodes[id].MetricsDoc(); m.AlertsBelowHorizon != 2 {
			t.Errorf("node %s counted %d alerts below the horizon, want 2", id, m.AlertsBelowHorizon)
		}
		if _, err := h.nodes[id].RunInfo("intruder"); !errors.Is(err, engine.ErrUnknownRun) {
			t.Errorf("RunInfo(intruder) via %s = %v, want unknown", id, err)
		}
		if runs := h.nodes[id].Runs(); len(runs) != 1 || runs[0].ID != "r" {
			t.Errorf("node %s lists %+v, want only r", id, runs)
		}
		resp, err := http.Post(h.url(id)+"/api/v1/alerts", "application/json", strings.NewReader(`{"bad":["r/t1#1"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Errorf("POST /api/v1/alerts via %s: HTTP %d, want 410", id, resp.StatusCode)
		}
		if _, _, err := h.nodes[id].ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{"ghost/t0#1"}}}); !errors.Is(err, engine.ErrUnknownRun) {
			t.Errorf("alert via %s on an instance that never ran: %v, want unknown", id, err)
		}
	}
	// A single node with the same history answers the same IDs with the
	// same statuses: both runtimes admit alerts through one check.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	svc, err := shard.New(shard.Config{Shards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Stop)
	if err := svc.SubmitRunSpec("r", chainSpec([]string{keys["a"][0], keys["b"][0]}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if inst, err := svc.InjectForged("intruder", "evil", nil, map[data.Key]data.Value{"loot": -1}); err != nil || inst != forged {
		t.Fatalf("single-node forge %s, %v, want %s", inst, err, forged)
	}
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(httpapi.Server(nil, svc))
	t.Cleanup(single.Close)
	urls := map[string]string{"node a": h.url("a"), "node b": h.url("b"), "single node": single.URL}
	for _, c := range []struct {
		body, code string
		status     int
	}{
		{`{"bad":["r/t#0"]}`, "bad_request", http.StatusBadRequest},
		{`{"batch":[["ghost/t0#1"],["r/t#0"]]}`, "bad_request", http.StatusBadRequest},
		{`{"bad":[]}`, "bad_request", http.StatusBadRequest},
		{`{"bad":["ghost/t0#1"]}`, "not_found", http.StatusNotFound},
		{`{"bad":["r/t0#1"]}`, "below_horizon", http.StatusGone},
		{`{"bad":["r/t9#1"]}`, "below_horizon", http.StatusGone}, // any instance of a buried run
		{`{"bad":["` + string(forged) + `"]}`, "below_horizon", http.StatusGone},
	} {
		for name, url := range urls {
			resp, err := http.Post(url+"/api/v1/alerts", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Error struct{ Code string } `json:"error"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != c.status || derr != nil || env.Error.Code != c.code {
				t.Errorf("POST /api/v1/alerts %s via %s: HTTP %d %q (%v), want %d %q",
					c.body, name, resp.StatusCode, env.Error.Code, derr, c.status, c.code)
			}
		}
	}
	if info, err := h.nodes["b"].RunInfo("r"); err != nil || info.Status != "done" || info.Steps != 0 {
		t.Fatalf("retired run: %+v %v, want done with no steps above the horizon", info, err)
	}
	if err := h.nodes["a"].SubmitRunSpec("r", chainSpec([]string{keys["a"][0]}, 2)); !errors.Is(err, engine.ErrRunExists) {
		t.Fatalf("re-registering a retired run: %v, want ErrRunExists", err)
	}
}
