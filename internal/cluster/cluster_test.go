package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/fuzz"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/triage"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// ---- in-process multi-node harness ----

// handlerSlot lets the harness swap a listener's handler while the listener
// stays bound: "killing" a node swaps in a 502 handler, restarting swaps
// the new node's mux back in. This keeps peer addresses stable across
// restarts without racing on port rebinds.
type handlerSlot struct{ h atomic.Value }

type handlerBox struct{ h http.Handler }

func (s *handlerSlot) set(h http.Handler) { s.h.Store(handlerBox{h}) }

func (s *handlerSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(handlerBox).h.ServeHTTP(w, r)
}

func downHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "node down", http.StatusBadGateway)
	})
}

type harness struct {
	t     testing.TB
	ids   []string
	peers map[string]string
	slots map[string]*handlerSlot
	srvs  []*http.Server
	nodes map[string]*cluster.Node
	regs  map[string]*obs.Registry
	dirs  map[string]string // set when the harness is journaled
	mut   func(id string, cfg *cluster.Config)
}

// startCluster boots len(ids) nodes on ephemeral loopback listeners, each
// serving its internal API and the public cluster surface on one port.
func startCluster(t testing.TB, ids []string, journaled bool, mut func(id string, cfg *cluster.Config)) *harness {
	t.Helper()
	h := &harness{
		t:     t,
		ids:   ids,
		peers: make(map[string]string),
		slots: make(map[string]*handlerSlot),
		nodes: make(map[string]*cluster.Node),
		regs:  make(map[string]*obs.Registry),
		dirs:  make(map[string]string),
		mut:   mut,
	}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		h.peers[id] = ln.Addr().String()
		slot := &handlerSlot{}
		slot.set(downHandler())
		h.slots[id] = slot
		srv := &http.Server{Handler: slot}
		h.srvs = append(h.srvs, srv)
		go srv.Serve(ln)
		if journaled {
			h.dirs[id] = t.TempDir()
		}
	}
	for _, id := range ids {
		h.bootNode(id, false)
	}
	t.Cleanup(h.close)
	return h
}

// bootNode creates, mounts and starts one node (join=true catches it up
// from the peers first — the restart path).
func (h *harness) bootNode(id string, join bool) {
	h.t.Helper()
	reg := obs.NewRegistry()
	cfg := cluster.Config{NodeID: id, Peers: h.peers, Dir: h.dirs[id], Join: join, Registry: reg}
	if h.mut != nil {
		h.mut(id, &cfg)
	}
	n, err := cluster.New(cfg)
	if err != nil {
		h.t.Fatalf("node %s: %v", id, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/internal/", n.InternalHandler())
	mux.Handle("/", httpapi.ClusterServer(reg, n))
	h.nodes[id] = n
	h.regs[id] = reg
	h.slots[id].set(mux)
	if err := n.Start(); err != nil {
		h.t.Fatalf("node %s start: %v", id, err)
	}
}

// stopNode takes one node offline: its address answers 502 until restart.
func (h *harness) stopNode(id string) {
	h.slots[id].set(downHandler())
	h.nodes[id].Stop()
	delete(h.nodes, id)
}

func (h *harness) close() {
	for _, srv := range h.srvs {
		srv.Close()
	}
	for _, n := range h.nodes {
		n.Stop()
	}
}

func (h *harness) url(id string) string { return "http://" + h.peers[id] }

// follower returns a non-sequencer member: driving the cluster through it
// exercises submission proxying and token handoff.
func (h *harness) follower() string {
	ring := cluster.NewRing(h.ids)
	for _, id := range h.ids {
		if id != ring.Stamper() {
			return id
		}
	}
	return h.ids[0]
}

// rawStore fetches the byte-exact /api/v1/store body from one node.
func (h *harness) rawStore(id string) []byte {
	h.t.Helper()
	resp, err := http.Get(h.url(id) + "/api/v1/store")
	if err != nil {
		h.t.Fatalf("store %s: %v", id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		h.t.Fatalf("store %s: status %d err %v", id, resp.StatusCode, err)
	}
	return body
}

// assertStoresIdentical checks every live node serves a byte-identical
// store snapshot.
func (h *harness) assertStoresIdentical() {
	h.t.Helper()
	var ref []byte
	var refID string
	for _, id := range h.ids {
		if _, ok := h.nodes[id]; !ok {
			continue
		}
		body := h.rawStore(id)
		if ref == nil {
			ref, refID = body, id
			continue
		}
		if string(body) != string(ref) {
			h.t.Fatalf("store divergence: node %s != node %s\n%s\n---\n%s", id, refID, body, ref)
		}
	}
}

// waitIdle drains the whole cluster through one node's chaos surface.
func (h *harness) waitIdle(id string, timeout time.Duration) {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := h.nodes[id].WaitIdle(ctx); err != nil {
		h.t.Fatalf("wait idle via %s: %v", id, err)
	}
}

// keysByOwner returns per-member lists of store keys, derived from the same
// ring the nodes use, so tests can place data on chosen nodes.
func keysByOwner(ids []string, want int) map[string][]string {
	ring := cluster.NewRing(ids)
	out := make(map[string][]string)
	for i := 0; len(out) < len(ids) || shortest(out, ids) < want; i++ {
		if i > 10000 {
			panic("cluster_test: key search did not converge")
		}
		k := fmt.Sprintf("k%04d", i)
		owner := ring.OwnerOfKey(data.Key(k))
		out[owner] = append(out[owner], k)
	}
	return out
}

func shortest(m map[string][]string, ids []string) int {
	min := 1 << 30
	for _, id := range ids {
		if len(m[id]) < min {
			min = len(m[id])
		}
	}
	return min
}

// chainSpec builds a linear workflow writing the given keys in order, one
// task per key, each biased so final values are distinguishable.
func chainSpec(keys []string, bias int64) *wfjson.SpecJSON {
	sj := &wfjson.SpecJSON{Name: "chain", Start: "t0"}
	for i, k := range keys {
		tj := wfjson.TaskJSON{ID: fmt.Sprintf("t%d", i), Writes: []string{k}, Bias: bias + int64(i)}
		if i > 0 {
			tj.Reads = []string{keys[i-1]}
		}
		if i+1 < len(keys) {
			tj.Next = []string{fmt.Sprintf("t%d", i+1)}
		}
		sj.Tasks = append(sj.Tasks, tj)
	}
	return sj
}

func waitRunDone(t testing.TB, n *cluster.Node, run string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info, err := n.RunInfo(run)
		if err == nil && info.Status == "done" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s not done after %v (last: %+v, %v)", run, timeout, info, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---- tests ----

// The ring is a pure function of the membership: every node derives the
// same ownership map, and ownership covers exactly the members.
func TestRingDeterminism(t *testing.T) {
	a := cluster.NewRing([]string{"c", "a", "b"})
	b := cluster.NewRing([]string{"b", "c", "a"})
	if a.Stamper() != "a" || b.Stamper() != "a" {
		t.Fatalf("stamper should be lowest sorted ID, got %s / %s", a.Stamper(), b.Stamper())
	}
	if !reflect.DeepEqual(a.Members(), []string{"a", "b", "c"}) {
		t.Fatalf("members: %v", a.Members())
	}
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := data.Key(fmt.Sprintf("key%d", i))
		o1, o2 := a.OwnerOfKey(k), b.OwnerOfKey(k)
		if o1 != o2 {
			t.Fatalf("key %s: rings disagree (%s vs %s)", k, o1, o2)
		}
		seen[o1] = true
	}
	if len(seen) != 3 {
		t.Fatalf("500 keys landed on %d of 3 members", len(seen))
	}
}

// windowOf boots every node with the given submission window.
func windowOf(w int) func(string, *cluster.Config) {
	return func(_ string, cfg *cluster.Config) { cfg.SubmitWindow = w }
}

// A multi-task run submitted through a follower completes with its control
// token hopping across nodes: with one-task windows the first task commits
// at admission, each later one executes on the owner of its write key, and
// every replica converges on the same store.
func TestCrossNodeRunTokenHandoff(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, false, windowOf(1))
	keys := keysByOwner(ids, 1)
	// One write key per member, in member order: the token must visit all
	// three nodes.
	chain := []string{keys["a"][0], keys["b"][0], keys["c"][0]}
	entry := h.nodes[h.follower()]
	if err := entry.SubmitRunSpec("hop", chainSpec(chain, 10)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitRunDone(t, entry, "hop", 10*time.Second)
	h.waitIdle("a", 10*time.Second)
	h.assertStoresIdentical()

	want := map[string]int64{chain[0]: 10, chain[1]: 21, chain[2]: 33}
	for _, id := range ids {
		if got := h.nodes[id].StoreSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %s store %v, want %v", id, got, want)
		}
	}
	sent := 0.0
	for _, id := range ids {
		sent += h.regs[id].Snapshot()[obs.MClusterTokensSent]
	}
	if sent == 0 {
		t.Fatalf("expected at least one cross-node token handoff")
	}
}

// A token can outrun the records it follows: here every replication push to
// the receiving follower is held back, so each token reaches it before the
// commit that made it the owner. The receiver drives only once its replica
// has applied what the sender had, so the run alternating between the
// stamper and that follower completes with exactly one token per ownership
// change — no token bounced back by a stale frontier — and without the
// reconciler having to pick up a stranded run. One-task windows keep every
// task after the first (committed at admission) on its owner. The reconcile
// interval is stretched so that only a run the tokens really stranded counts
// as stalled, not one a scheduling hiccup held for 30 ms.
func TestTokenWaitsForSenderRecords(t *testing.T) {
	defer cluster.SetReconcileInterval(250 * time.Millisecond)()
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, false, windowOf(1))
	stamper := cluster.NewRing(ids).Stamper()
	recv := h.follower()
	inner := h.slots[recv].h.Load().(handlerBox).h
	h.slots[recv].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/internal/v1/commits" {
			time.Sleep(5 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	}))

	// Six tasks whose write keys alternate between the stamper and the
	// receiver: the run starts where it is submitted and changes owner five
	// times.
	keys := keysByOwner(ids, 3)
	var chain []string
	for i := 0; i < 3; i++ {
		chain = append(chain, keys[stamper][i], keys[recv][i])
	}
	if err := h.nodes[stamper].SubmitRunSpec("pingpong", chainSpec(chain, 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitRunDone(t, h.nodes[stamper], "pingpong", 10*time.Second)
	h.waitIdle(stamper, 10*time.Second)
	h.assertStoresIdentical()

	var sent, received, pickups float64
	for _, id := range ids {
		snap := h.regs[id].Snapshot()
		sent += snap[obs.MClusterTokensSent]
		received += snap[obs.MClusterTokensReceived]
		pickups += snap[obs.MClusterReconcilePickups]
	}
	if changes := float64(len(chain) - 1); sent != changes || received != changes {
		t.Errorf("%v tokens sent and %v received for %v ownership changes, want one each", sent, received, changes)
	}
	if pickups != 0 {
		t.Errorf("the reconciler picked up %v stalled runs, want none", pickups)
	}
}

// Boot and submission validation: a node needs an identity that is a member,
// and a run ID registers once cluster-wide — the duplicate is refused with
// the same sentinel whether it reaches the stamper directly or through a
// proxying follower, as is a spec that does not build.
func TestBootAndSubmitValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Error("node without an ID accepted")
	}
	if _, err := cluster.New(cluster.Config{NodeID: "x", Peers: map[string]string{"a": ""}}); err == nil {
		t.Error("node outside the membership accepted")
	}
	ids := []string{"a", "b"}
	h := startCluster(t, ids, false, nil)
	keys := keysByOwner(ids, 1)
	spec := chainSpec([]string{keys["a"][0], keys["b"][0]}, 1)
	if err := h.nodes["a"].SubmitRunSpec("r", spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for _, id := range ids {
		if err := h.nodes[id].SubmitRunSpec("r", spec); !errors.Is(err, engine.ErrRunExists) {
			t.Errorf("duplicate run via %s: %v, want ErrRunExists", id, err)
		}
		bad := &wfjson.SpecJSON{Name: "bad", Start: "nowhere"}
		if err := h.nodes[id].SubmitRunSpec("r2", bad); !errors.Is(err, engine.ErrBadSpec) {
			t.Errorf("unbuildable spec via %s: %v, want ErrBadSpec", id, err)
		}
	}
	waitRunDone(t, h.nodes["b"], "r", 10*time.Second)
}

// The acceptance criterion: generated attack schedules driven through a
// follower node of a 3-node cluster must satisfy every fuzz oracle — the
// repaired store equals the attack-free single-node execution — and all
// replicas must end byte-identical, each with an active-run set equal to a
// full scan of its runs and an intern table no path has written into.
func TestClusterFuzzEquivalence(t *testing.T) {
	ids := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := startCluster(t, ids, false, nil)
			sch := fuzz.GenSchedule(seed, fuzz.DefaultParams())
			r := &fuzz.Runner{Timeout: 90 * time.Second}
			rep, err := r.RunEpisode(clusterTarget{h.url(h.follower())}, sch)
			if err != nil {
				t.Fatalf("episode: %v", err)
			}
			for _, v := range rep.Violations {
				t.Errorf("oracle %s: %s", v.Oracle, v.Detail)
			}
			h.assertStoresIdentical()
			for _, id := range ids {
				if err := h.nodes[id].CheckReplica(); err != nil {
					t.Errorf("node %s: %v", id, err)
				}
			}
		})
	}
}

// clusterTarget adapts one cluster node's public URL to the fuzz harness.
type clusterTarget struct{ url string }

func (c clusterTarget) BaseURL() string { return c.url }
func (c clusterTarget) Durable() bool   { return false }
func (c clusterTarget) Restart() error  { return fuzz.ErrRestartUnsupported }
func (c clusterTarget) Close() error    { return nil }

// Partial quiescence: while the stamper's incident holds the damaged key at
// its admission gate, a run whose footprint avoids the damaged key
// completes, and a run touching it stalls until release.
func TestPartialQuiescence(t *testing.T) {
	ids := []string{"a", "b", "c"}
	hold := 4 * time.Second
	h := startCluster(t, ids, false, func(id string, cfg *cluster.Config) {
		cfg.QuiesceHold = hold
	})
	keys := keysByOwner(ids, 2)
	damaged := keys["a"][0] // owned by the stamper: b and c stay clean

	entry := h.nodes["b"]
	if err := entry.SubmitRunSpec("victim", chainSpec([]string{damaged}, 5)); err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	waitRunDone(t, entry, "victim", 10*time.Second)
	h.waitIdle("a", 10*time.Second)

	inst, err := entry.InjectForged("victim", "evil", nil, map[string]int64{damaged: 999})
	if err != nil {
		t.Fatalf("forge: %v", err)
	}
	if _, _, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil {
		t.Fatalf("alert: %v", err)
	}
	// Wait for the stamper, which leads the incident, to enter RECOVERY and
	// for its admission gate to actually hold the damaged key (RECOVERY
	// flips first).
	stamper := h.nodes["a"]
	deadline := time.Now().Add(5 * time.Second)
	for stamper.StateString() != "RECOVERY" || h.regs["a"].Snapshot()[obs.MClusterPausedKeys] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stamper never entered RECOVERY with keys paused")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A clean-key run completes mid-incident: only the damaged key pauses.
	clean := []string{keys["b"][0], keys["c"][0]}
	if err := entry.SubmitRunSpec("clean", chainSpec(clean, 100)); err != nil {
		t.Fatalf("submit clean: %v", err)
	}
	// A damaged-key run stalls at the admission gate until release.
	if err := entry.SubmitRunSpec("stalled", chainSpec([]string{damaged}, 200)); err != nil {
		t.Fatalf("submit stalled: %v", err)
	}
	waitRunDone(t, entry, "clean", hold/2)
	if got := stamper.StateString(); got != "RECOVERY" {
		t.Fatalf("incident over before the clean run finished (stamper state %s): hold too short to prove partial quiescence", got)
	}
	if info, err := entry.RunInfo("stalled"); err != nil || info.Status != "active" {
		t.Fatalf("damaged-key run should be stalled mid-incident, got %+v err %v", info, err)
	}

	// After release everything drains; the forged damage is repaired.
	h.waitIdle("b", 3*hold)
	waitRunDone(t, entry, "stalled", time.Second)
	h.assertStoresIdentical()
	got := entry.StoreSnapshot()
	// The repair restored victim's write (5); "stalled" then overwrote the
	// key with its bias (no reads, so its sole task writes exactly 200).
	if got[damaged] != 200 {
		t.Fatalf("damaged key = %d, want 200 (repair then stalled run's write)", got[damaged])
	}
}

// A window whose head touches a paused key parks at the stamper until the
// incident releases the key, instead of resubmitting until it does: through
// a 2 s hold, at most two submissions of the blocked run reach the stamper
// (the parked one, and its retry if the release beats the count's end), and
// the run completes after the release. The key is owned by follower b, so
// b executes the run and every submission crosses HTTP.
func TestPausedWindowParks(t *testing.T) {
	ids := []string{"a", "b", "c"}
	const hold = 2 * time.Second
	h := startCluster(t, ids, false, func(id string, cfg *cluster.Config) { cfg.QuiesceHold = hold })
	stamperID := cluster.NewRing(ids).Stamper()
	key := keysByOwner(ids, 1)["b"][0]
	entry, stamper := h.nodes["b"], h.nodes[stamperID]
	if err := entry.SubmitRunSpec("victim", chainSpec([]string{key}, 5)); err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	waitRunDone(t, entry, "victim", 10*time.Second)
	h.waitIdle(stamperID, 10*time.Second)
	inst, err := entry.InjectForged("victim", "evil", nil, map[string]int64{key: 999})
	if err != nil {
		t.Fatalf("forge: %v", err)
	}

	var counting atomic.Bool
	var submits atomic.Int64
	inner := h.slots[stamperID].h.Load().(handlerBox).h
	h.slots[stamperID].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if counting.Load() && r.URL.Path == "/internal/v1/submit" {
			submits.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	if _, _, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil {
		t.Fatalf("alert: %v", err)
	}
	paused := func() bool { return h.regs[stamperID].Snapshot()[obs.MClusterPausedKeys] > 0 }
	deadline := time.Now().Add(5 * time.Second)
	for !paused() {
		if time.Now().After(deadline) {
			t.Fatal("the stamper never paused the damaged key")
		}
		time.Sleep(time.Millisecond)
	}
	counting.Store(true)
	start := time.Now()
	if err := entry.SubmitRunSpec("blocked", chainSpec([]string{key}, 200)); err != nil {
		t.Fatalf("submit blocked: %v", err)
	}
	for paused() {
		if time.Since(start) > 3*hold {
			t.Fatal("the incident never released the key")
		}
		if info, err := entry.RunInfo("blocked"); err != nil || info.Status != "active" {
			t.Fatalf("run on the paused key mid-incident: %+v, %v; want active", info, err)
		}
		time.Sleep(time.Millisecond)
	}
	counting.Store(false)
	held := time.Since(start)
	if held < hold/2 {
		t.Fatalf("counted over %v of a %v hold", held, hold)
	}
	if n := submits.Load(); n > 2 {
		t.Errorf("%d submissions reached the stamper in %v of hold, want at most 2: the paused window polls", n, held)
	}
	waitRunDone(t, entry, "blocked", 5*time.Second)
	if got := stamper.StoreSnapshot()[key]; got != 200 {
		t.Errorf("%s = %d after the release, want the blocked run's 200", key, got)
	}
}

// A journaled follower that goes down mid-attack rejoins with -join and
// converges: the surviving nodes keep serving (runs whose tasks the dead
// node owned execute via the local-fallback path), the repair lands, and
// after rejoin all replicas are byte-identical.
func TestFollowerRestartRejoin(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, true, nil)
	keys := keysByOwner(ids, 2)

	entry := h.nodes["b"]
	if err := entry.SubmitRunSpec("r1", chainSpec([]string{keys["a"][0], keys["c"][0]}, 1)); err != nil {
		t.Fatalf("submit r1: %v", err)
	}
	waitRunDone(t, entry, "r1", 10*time.Second)
	h.waitIdle("a", 10*time.Second)

	// Take the follower c offline; its journal holds the prefix so far.
	h.stopNode("c")

	// The cluster keeps serving: a run writing a key OWNED by the dead
	// node must still complete (owner-unreachable local fallback).
	if err := entry.SubmitRunSpec("r2", chainSpec([]string{keys["c"][1], keys["b"][0]}, 50)); err != nil {
		t.Fatalf("submit r2: %v", err)
	}
	waitRunDone(t, entry, "r2", 10*time.Second)

	// Attack + repair while the node is down (damaged key owned by the
	// dead node: the stamper pauses and repairs it without that node).
	inst, err := entry.InjectForged("r2", "evil", nil, map[string]int64{keys["c"][1]: 777})
	if err != nil {
		t.Fatalf("forge: %v", err)
	}
	if _, _, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil {
		t.Fatalf("alert: %v", err)
	}
	// WaitIdle needs every peer up, so poll the two live nodes directly.
	deadline := time.Now().Add(20 * time.Second)
	for {
		sa, sb := h.nodes["a"].StateString(), h.nodes["b"].StateString()
		da := h.nodes["a"].ClusterDoc().(cluster.ClusterInfo)
		db := h.nodes["b"].ClusterDoc().(cluster.ClusterInfo)
		if sa == "NORMAL" && sb == "NORMAL" && da.Applied == db.Applied {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live nodes never settled (a=%s@%d b=%s@%d)", sa, da.Applied, sb, db.Applied)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Rejoin: journal replay plus catch-up pull must reach the head.
	h.bootNode("c", true)
	h.waitIdle("a", 10*time.Second)
	h.assertStoresIdentical()
	snap := h.nodes["c"].StoreSnapshot()
	if snap[keys["c"][1]] != 50 {
		t.Fatalf("rejoined node sees %d for repaired key, want 50", snap[keys["c"][1]])
	}
	for _, id := range ids {
		if !reflect.DeepEqual(h.nodes[id].StoreSnapshot(), snap) {
			t.Fatalf("node %s diverges after rejoin", id)
		}
	}
}

// The journal is a rotating segment log: a stream spanning several segments
// replays to a byte-identical store when every node restarts from its own
// journal, and a follower whose final segment was torn by a crash heals
// through -join.
func TestJournalSpansSegments(t *testing.T) {
	defer cluster.SetJournalSegmentBytes(400)()
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, true, nil)
	keys := keysByOwner(ids, 2)
	for i := 0; i < 6; i++ {
		run := fmt.Sprintf("r%d", i)
		spec := chainSpec([]string{keys["a"][i%2], keys["b"][i%2], keys["c"][i%2]}, int64(10*i))
		if err := h.nodes["b"].SubmitRunSpec(run, spec); err != nil {
			t.Fatalf("submit %s: %v", run, err)
		}
		waitRunDone(t, h.nodes["b"], run, 10*time.Second)
	}
	h.waitIdle("a", 10*time.Second)
	h.assertStoresIdentical()
	want := h.rawStore("a")
	segments := func(id string) []string {
		names, err := filepath.Glob(filepath.Join(h.dirs[id], id+".wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	for _, id := range ids {
		if n := len(segments(id)); n < 3 {
			t.Fatalf("node %s journal has %d segments, want ≥3", id, n)
		}
	}

	// Whole-cluster restart: every node replays its own segments.
	for _, id := range ids {
		h.stopNode(id)
	}
	for _, id := range ids {
		h.bootNode(id, false)
	}
	h.waitIdle("a", 10*time.Second)
	h.assertStoresIdentical()
	if got := h.rawStore("a"); string(got) != string(want) {
		t.Fatalf("store after restart differs:\n%s\n---\n%s", got, want)
	}

	// Crash shape: the follower's final segment loses half its last record.
	h.stopNode("c")
	segs := segments("c")
	final := segs[len(segs)-1]
	info, err := os.Stat(final)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 16 {
		t.Fatalf("final segment %s holds only %d bytes", final, info.Size())
	}
	if err := os.Truncate(final, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	h.bootNode("c", true)
	h.waitIdle("a", 10*time.Second)
	h.assertStoresIdentical()
	if got := h.rawStore("c"); string(got) != string(want) {
		t.Fatalf("store after torn tail + join differs:\n%s\n---\n%s", got, want)
	}

	// The healed journal — truncated, then extended by the catch-up — is
	// itself complete: one more restart, without -join, replays all of it.
	applied := h.nodes["c"].ClusterDoc().(cluster.ClusterInfo).Applied
	h.stopNode("c")
	n, err := cluster.New(cluster.Config{NodeID: "c", Peers: h.peers, Dir: h.dirs["c"]})
	if err != nil {
		t.Fatalf("boot on the healed journal: %v", err)
	}
	defer n.Stop()
	if got := n.ClusterDoc().(cluster.ClusterInfo).Applied; got != applied {
		t.Fatalf("healed journal replays to %d, want %d", got, applied)
	}
}

// An alert reported through a follower is admitted on the stamper, which
// leads every incident, while replication to the third node is held: the
// stamper repairs without that node, and once replication resumes the
// lagging node takes the forge and the repair and converges.
func TestForwardedAlertRepairsLaggingNode(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, false, nil)
	stamper := cluster.NewRing(ids).Stamper()
	damaged := keysByOwner(ids, 1)[stamper][0]
	entry, lagging := h.nodes["b"], "c"
	if err := entry.SubmitRunSpec("victim", chainSpec([]string{damaged}, 5)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitRunDone(t, entry, "victim", 10*time.Second)
	h.waitIdle(stamper, 10*time.Second)
	clean := entry.StoreSnapshot()[damaged]

	var once sync.Once
	hold := holdReplication(h, lagging)
	release := func() { once.Do(hold) }
	defer release()
	inst, err := entry.InjectForged("victim", "evil", nil, map[string]int64{damaged: 999})
	if err != nil {
		t.Fatalf("forge: %v", err)
	}
	admitted, _, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}})
	if err != nil || admitted != 1 {
		t.Fatalf("alert through %s: %d admitted, %v", entry.ID(), admitted, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for entry.StoreSnapshot()[damaged] != clean {
		if time.Now().After(deadline) {
			t.Fatalf("%s never saw the repair while %s lagged", entry.ID(), lagging)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if slices.Contains(h.nodes[lagging].Trace("victim"), inst) {
		t.Fatalf("%s applied the forge while replication to it was held", lagging)
	}
	release()
	h.waitIdle(stamper, 10*time.Second)
	h.assertStoresIdentical()
	if got := h.nodes[lagging].StoreSnapshot()[damaged]; got != clean {
		t.Errorf("%s = %d on %s after the repair, want the clean %d", damaged, got, lagging, clean)
	}
}

// With the stamper unreachable an alert has no incident leader: the
// follower that takes it drops it, counts it lost, and answers a reporter
// whose whole batch was dropped 429.
func TestAlertDroppedWhenStamperDown(t *testing.T) {
	ids := []string{"a", "b", "c"}
	h := startCluster(t, ids, false, nil)
	stamper := cluster.NewRing(ids).Stamper()
	entry := h.nodes["b"]
	if err := entry.SubmitRunSpec("victim", chainSpec([]string{"k"}, 5)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitRunDone(t, entry, "victim", 10*time.Second)
	inst, err := entry.InjectForged("victim", "evil", nil, map[string]int64{"k": 999})
	if err != nil {
		t.Fatalf("forge: %v", err)
	}
	h.slots[stamper].set(downHandler())

	admitted, dropped, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}})
	if err != nil || admitted != 0 || dropped != 1 {
		t.Fatalf("alert with the stamper down: admitted %d, dropped %d, %v; want dropped: 1", admitted, dropped, err)
	}
	resp, err := http.Post(h.url("b")+"/api/v1/alerts", "application/json",
		strings.NewReader(fmt.Sprintf(`{"batch": [[%q]]}`, inst)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("POST /api/v1/alerts with the stamper down: HTTP %d, want 429", resp.StatusCode)
	}
	if got := entry.MetricsDoc().AlertsLost; got != 2 {
		t.Errorf("%s counts %d alerts lost, want 2", entry.ID(), got)
	}
	if got := h.nodes[stamper].MetricsDoc().AlertsReported; got != 0 {
		t.Errorf("the stamper admitted %d alerts it was never sent", got)
	}
}

// runOwnedBy returns the first run ID with the given prefix that the ring
// assigns to owner.
func runOwnedBy(ring *cluster.Ring, owner, prefix string) string {
	for i := 0; ; i++ {
		if run := fmt.Sprintf("%s%d", prefix, i); ring.OwnerOfRun(run) == owner {
			return run
		}
	}
}

// Two incidents that pause the same key: a run writing it stays active
// while an incident holds it. The accused runs are owned by different
// followers with different holds (b 200 ms, c 3 s), so a cluster that let
// each run's owner lead its incident would reopen the key when b's
// incident released it, under c's. Both alerts are reported through b, the
// second once the first incident is in RECOVERY. The late run may commit
// between two incidents, never inside one that was already running when
// it was last seen active.
func TestOverlappingIncidentsHoldTheGate(t *testing.T) {
	ids := []string{"a", "b", "c"}
	holds := map[string]time.Duration{"a": 3 * time.Second, "b": 200 * time.Millisecond, "c": 3 * time.Second}
	h := startCluster(t, ids, false, func(id string, cfg *cluster.Config) { cfg.QuiesceHold = holds[id] })
	ring := cluster.NewRing(ids)
	key := keysByOwner(ids, 1)[ring.Stamper()][0]
	entry := h.nodes["b"]
	var insts []wlog.InstanceID
	for i, owner := range []string{"b", "c"} {
		run := runOwnedBy(ring, owner, "victim")
		if err := entry.SubmitRunSpec(run, chainSpec([]string{key}, int64(10*i))); err != nil {
			t.Fatalf("submit %s: %v", run, err)
		}
		waitRunDone(t, entry, run, 10*time.Second)
		inst, err := entry.InjectForged(run, "evil", nil, map[string]int64{key: int64(900 + i)})
		if err != nil {
			t.Fatalf("forge in %s: %v", run, err)
		}
		insts = append(insts, inst)
	}
	h.waitIdle("a", 10*time.Second)

	report := func(inst wlog.InstanceID) {
		t.Helper()
		if admitted, _, err := entry.ReportAlerts([]triage.Alert{{Bad: []wlog.InstanceID{inst}}}); err != nil || admitted != 1 {
			t.Fatalf("alert on %s: %d admitted, %v", inst, admitted, err)
		}
	}
	recovering := func() string {
		for _, id := range ids {
			if h.nodes[id].StateString() == "RECOVERY" {
				return id
			}
		}
		return ""
	}
	incidents := func() float64 {
		sum := 0.0
		for _, id := range ids {
			sum += h.regs[id].Snapshot()[obs.MClusterIncidents]
		}
		return sum
	}
	report(insts[0])
	deadline := time.Now().Add(5 * time.Second)
	for recovering() == "" {
		if time.Now().After(deadline) {
			t.Fatal("no node entered RECOVERY")
		}
		time.Sleep(2 * time.Millisecond)
	}
	report(insts[1])
	time.Sleep(time.Second)

	last := incidents()
	if err := entry.SubmitRunSpec("late", chainSpec([]string{key}, 300)); err != nil {
		t.Fatalf("submit late: %v", err)
	}
	for recovering() != "" {
		started := incidents()
		info, err := entry.RunInfo("late")
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == "active" {
			last = started
		} else if id := recovering(); id != "" && incidents() == last {
			t.Fatalf("%s in RECOVERY, late run done: it committed inside the incident that holds %s", id, key)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitRunDone(t, entry, "late", 10*time.Second)
	h.waitIdle("a", 10*time.Second)
	h.assertStoresIdentical()
	if got := entry.StoreSnapshot()[key]; got != 300 {
		t.Fatalf("%s = %d, want the late run's 300", key, got)
	}
}
