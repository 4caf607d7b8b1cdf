// Command clustersmoke is the CI smoke test for cluster mode
// (docs/CLUSTER.md). Given the selfheal-server binary it boots a 3-node
// cluster on ephemeral ports and drives the full distributed loop through
// real processes:
//
//  1. submit a 3-task workflow through a follower whose tasks' write keys
//     are owned by three different nodes — the follower speculates the
//     whole run at admission, so it commits in its spec's stamp group —
//     and wait for it to complete;
//  2. snapshot the byte-exact /api/v1/store of every node as the baseline;
//  3. inject a forged commit corrupting the workflow's data and report it,
//     both through follower c, which proxies the forge and forwards the
//     alert to the stamper a, the cluster's one incident leader;
//  4. SIGKILL c mid-repair — inside the stamper's incident hold, widened
//     by -quiesce-hold — while the survivors finish the repair without it;
//  5. restart the killed node on its journal with -join and drain;
//  6. require every node's store to be byte-identical to the baseline:
//     the attack fully undone, the rejoined replica fully converged;
//  7. stream batched submissions into the stamper's group-commit path
//     (16-entry POSTs to /internal/v1/submit) and SIGKILL a follower in
//     the middle of the stream — mid-batch, while binary replication
//     frames are in flight to it — then keep submitting: the survivors
//     commit everything, the rejoined node replays its (possibly torn)
//     binary journal, catches up with -join, and converges byte-identically;
//  8. drive a chain run of three 12-task owner segments, longer than the
//     default 32-task window: its first 32 tasks commit at admission, and
//     its tail forms an owner window in another process, reached by a
//     control token the admission node hands off; require the final
//     stores byte-identical with the chain's last value in place;
//  9. force checkpoints through a follower (POST /api/v1/chaos/checkpoint)
//     with forged batches between them, until every node has retired its
//     first journal segment and the journal directories stop growing; then
//     SIGKILL follower c, wipe its directory and restart it with -join: it
//     installs a peer's snapshot, takes the frames above it, and every
//     node's store must be byte-identical.
//
// Exits 0 and prints "CLUSTER SMOKE OK" on success; any deviation is fatal.
//
// Usage: clustersmoke /path/to/selfheal-server
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/data"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

var ids = []string{"a", "b", "c"}

type smoke struct {
	serverBin string
	tmp       string
	addrs     map[string]string
	peersFlag string
	procs     map[string]*exec.Cmd
}

func main() {
	log.SetFlags(0)
	if len(os.Args) != 2 {
		log.Fatal("usage: clustersmoke /path/to/selfheal-server")
	}
	tmp, err := os.MkdirTemp("", "clustersmoke")
	if err != nil {
		log.Fatal(err)
	}
	s := &smoke{serverBin: os.Args[1], tmp: tmp, addrs: map[string]string{}, procs: map[string]*exec.Cmd{}}
	defer s.cleanup()
	s.run()
	fmt.Println("CLUSTER SMOKE OK")
}

func (s *smoke) cleanup() {
	for _, cmd := range s.procs {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	os.RemoveAll(s.tmp)
}

func (s *smoke) run() {
	// Reserve one loopback port per node: the static -peers membership
	// needs concrete addresses before any process starts.
	var lns []net.Listener
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns = append(lns, ln)
		s.addrs[id] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	s.peersFlag = ""
	for _, id := range ids {
		if s.peersFlag != "" {
			s.peersFlag += ","
		}
		s.peersFlag += id + "=" + s.addrs[id]
	}
	for _, id := range ids {
		s.startNode(id, false)
	}
	for _, id := range ids {
		s.waitUp(id)
	}

	// Derive the same ownership ring the nodes use, and pick one write key
	// per member.
	ring := cluster.NewRing(ids)
	keyOf := map[string]string{}
	for i := 0; len(keyOf) < len(ids); i++ {
		k := fmt.Sprintf("cs%04d", i)
		owner := ring.OwnerOfKey(data.Key(k))
		if _, ok := keyOf[owner]; !ok {
			keyOf[owner] = k
		}
	}
	const run = "smoke"

	// A chain crossing all three nodes, submitted through follower b.
	chain := []string{keyOf["a"], keyOf["b"], keyOf["c"]}
	spec := wfjson.SpecJSON{Name: "clustersmoke", Start: "t0"}
	for i, k := range chain {
		tj := wfjson.TaskJSON{ID: fmt.Sprintf("t%d", i), Writes: []string{k}, Bias: int64(i + 1)}
		if i > 0 {
			tj.Reads = []string{chain[i-1]}
		}
		if i+1 < len(chain) {
			tj.Next = []string{fmt.Sprintf("t%d", i+1)}
		}
		spec.Tasks = append(spec.Tasks, tj)
	}
	s.post("b", "/api/v1/runs", map[string]any{"id": run, "spec": spec}, nil)
	deadline := time.Now().Add(15 * time.Second)
	for {
		var info struct {
			Status string `json:"status"`
		}
		s.get("b", "/api/v1/runs/"+run, &info)
		if info.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("run %s never completed (status %q)", run, info.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	s.drain("a")

	baseline := s.store("a")
	for _, id := range ids {
		if got := s.store(id); !bytes.Equal(got, baseline) {
			log.Fatalf("pre-attack divergence: node %s store differs from node a:\n%s\n---\n%s", id, got, baseline)
		}
	}

	// Attack through the follower we will kill: forge a corrupt commit,
	// report it (c forwards the alert to the stamper a, which leads the
	// incident), then SIGKILL c inside the stamper's hold.
	s.post("c", "/api/v1/chaos/forge", map[string]any{
		"run": run, "task": "x", "writes": map[string]int64{chain[0]: 9999},
	}, nil)
	inst := string(wlog.FormatInstance(run, "x", 1))
	var ack struct {
		Admitted int `json:"admitted"`
		Dropped  int `json:"dropped"`
	}
	s.post("c", "/api/v1/alerts", map[string]any{"batch": [][]string{{inst}}}, &ack)
	if ack.Admitted != 1 || ack.Dropped != 0 {
		log.Fatalf("alert not admitted: %+v", ack)
	}
	proc := s.procs["c"]
	if err := proc.Process.Kill(); err != nil {
		log.Fatalf("SIGKILL node c: %v", err)
	}
	proc.Wait()
	delete(s.procs, "c")

	// The survivors must finish the repair without c: rejoin it on its
	// journal and require cluster-wide byte equality with the baseline.
	time.Sleep(500 * time.Millisecond)
	s.startNode("c", true)
	s.waitUp("c")
	s.drain("a")
	for _, id := range ids {
		if got := s.store(id); !bytes.Equal(got, baseline) {
			log.Fatalf("post-repair divergence: node %s store differs from the pre-attack baseline:\n%s\n---\n%s", id, got, baseline)
		}
	}

	s.batchedCommitStorm()
	s.windowedChainRun(ring)
	s.checkpointRejoin()
}

// checkpointRejoin forces three checkpoints with a forged batch storm before
// each. The second retires every node's first journal segment; the third
// shows the directories no longer grow with the stream. A follower then
// SIGKILLed, wiped and restarted with -join starts from a peer's snapshot.
func (s *smoke) checkpointRejoin() {
	var sizes []int64
	for round := 0; round < 3; round++ {
		for bi := 0; bi < 4; bi++ {
			entries := make([]map[string]any, 16)
			for i := range entries {
				entries[i] = map[string]any{
					"run": "ckstorm", "task": fmt.Sprintf("r%d-%02d-%02d", round, bi, i), "visit": 1,
					"forged": true, "writes": map[string]int64{"ckstormk": int64(100*round + 16*bi + i)},
				}
			}
			s.post("a", "/internal/v1/submit", map[string]any{"origin": "smoke", "entries": entries}, nil)
		}
		s.post("b", "/api/v1/chaos/checkpoint", nil, nil)
		s.drain("a")
		sizes = append(sizes, s.dirBytes("a"))
	}
	for _, id := range ids {
		dir := filepath.Join(s.tmp, "node-"+id)
		if _, err := os.Stat(filepath.Join(dir, id+".wal-0000000000000001.seg")); !os.IsNotExist(err) {
			log.Fatalf("node %s still holds its first journal segment after two checkpoints (%v)", id, err)
		}
		if snaps, _ := filepath.Glob(filepath.Join(dir, id+".snap-*.snap")); len(snaps) != 1 {
			log.Fatalf("node %s holds %d snapshot files, want the latest only", id, len(snaps))
		}
	}
	if sizes[2] > sizes[1]+sizes[1]/4 {
		log.Fatalf("node a's directory grew from %d to %d bytes over a checkpoint interval of the same traffic", sizes[1], sizes[2])
	}

	proc := s.procs["c"]
	if err := proc.Process.Kill(); err != nil {
		log.Fatalf("SIGKILL node c: %v", err)
	}
	proc.Wait()
	delete(s.procs, "c")
	if err := os.RemoveAll(filepath.Join(s.tmp, "node-c")); err != nil {
		log.Fatal(err)
	}
	s.startNode("c", true)
	s.waitUp("c")
	s.drain("a")
	ref := s.store("a")
	for _, id := range ids {
		if got := s.store(id); !bytes.Equal(got, ref) {
			log.Fatalf("post-join divergence: node %s store differs from node a:\n%s\n---\n%s", id, got, ref)
		}
	}
	if snaps, _ := filepath.Glob(filepath.Join(s.tmp, "node-c", "c.snap-*.snap")); len(snaps) != 1 {
		log.Fatalf("the joined node holds %d snapshot files, want the one it installed", len(snaps))
	}
}

// dirBytes totals the sizes of the files in a node's cluster directory.
func (s *smoke) dirBytes(id string) int64 {
	ents, err := os.ReadDir(filepath.Join(s.tmp, "node-"+id))
	if err != nil {
		log.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// batchedCommitStorm drives the group-commit path directly: sequential
// 16-entry batches into the stamper's internal submit endpoint, with
// follower c SIGKILLed in the middle of the stream. Every batch must be
// stamped "ok" (stamping needs no follower), and after a -join restart c's
// journal replay + catch-up must converge byte-identically.
func (s *smoke) batchedCommitStorm() {
	const batches, batch = 30, 16
	kill := batches / 3
	for bi := 0; bi < batches; bi++ {
		if bi == kill {
			proc := s.procs["c"]
			if err := proc.Process.Kill(); err != nil {
				log.Fatalf("SIGKILL node c mid-batch: %v", err)
			}
			proc.Wait()
			delete(s.procs, "c")
		}
		entries := make([]map[string]any, batch)
		for i := range entries {
			n := bi*batch + i
			entries[i] = map[string]any{
				"run": "storm", "task": fmt.Sprintf("f%06d", n), "visit": 1,
				"forged": true, "writes": map[string]int64{"stormk": int64(n)},
			}
		}
		var resp struct {
			Results []struct {
				Status string `json:"status"`
				Seq    int    `json:"seq"`
			} `json:"results"`
		}
		s.post("a", "/internal/v1/submit", map[string]any{"origin": "smoke", "entries": entries}, &resp)
		if len(resp.Results) != batch {
			log.Fatalf("batch %d: %d results for %d entries", bi, len(resp.Results), batch)
		}
		for i, r := range resp.Results {
			if r.Status != "ok" {
				log.Fatalf("batch %d entry %d: status %q", bi, i, r.Status)
			}
			if i > 0 && r.Seq != resp.Results[i-1].Seq+1 {
				log.Fatalf("batch %d: seqs not dense (%d after %d)", bi, r.Seq, resp.Results[i-1].Seq)
			}
		}
	}
	s.startNode("c", true)
	s.waitUp("c")
	s.drain("a")
	ref := s.store("a")
	for _, id := range ids {
		if got := s.store(id); !bytes.Equal(got, ref) {
			log.Fatalf("post-storm divergence: node %s store differs from node a:\n%s\n---\n%s", id, got, ref)
		}
	}
}

// windowedChainRun submits a 36-task chain whose write keys come in
// owner-contiguous 12-task segments (a's, b's, c's) through follower b: the
// admission window takes the first 32 tasks, and the last 4, owned by c,
// form a multi-entry window on c after b hands it the control token.
func (s *smoke) windowedChainRun(ring *cluster.Ring) {
	const perOwner = 12
	segment := map[string][]string{}
	for i := 0; shortestSeg(segment) < perOwner; i++ {
		k := fmt.Sprintf("wk%04d", i)
		owner := ring.OwnerOfKey(data.Key(k))
		segment[owner] = append(segment[owner], k)
	}
	var chain []string
	for _, id := range ids {
		chain = append(chain, segment[id][:perOwner]...)
	}
	tokens := s.counter("b", "cluster_tokens_sent_total")
	spec := wfjson.SpecJSON{Name: "windowed", Start: "t0"}
	for i, k := range chain {
		tj := wfjson.TaskJSON{ID: fmt.Sprintf("t%d", i), Writes: []string{k}, Bias: int64(i + 1)}
		if i > 0 {
			tj.Reads = []string{chain[i-1]}
		}
		if i+1 < len(chain) {
			tj.Next = []string{fmt.Sprintf("t%d", i+1)}
		}
		spec.Tasks = append(spec.Tasks, tj)
	}
	s.post("b", "/api/v1/runs", map[string]any{"id": "windowed", "spec": spec}, nil)
	deadline := time.Now().Add(20 * time.Second)
	for {
		var info struct {
			Status string `json:"status"`
		}
		s.get("b", "/api/v1/runs/windowed", &info)
		if info.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("windowed run never completed (status %q)", info.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	s.drain("a")
	ref := s.store("a")
	for _, id := range ids {
		if got := s.store(id); !bytes.Equal(got, ref) {
			log.Fatalf("windowed-run divergence: node %s store differs from node a:\n%s\n---\n%s", id, got, ref)
		}
	}
	var snap map[string]int64
	if err := json.Unmarshal(ref, &snap); err != nil {
		log.Fatalf("store decode: %v", err)
	}
	if snap[chain[len(chain)-1]] == 0 {
		log.Fatalf("windowed chain's last key %s missing from store", chain[len(chain)-1])
	}
	if got := s.counter("b", "cluster_tokens_sent_total"); got <= tokens {
		log.Fatalf("the windowed chain's tail never left the admission node (b sent %v tokens, %v before)", got, tokens)
	}
}

// counter reads one metric from a node's /varz document (0 when unset).
func (s *smoke) counter(id, name string) float64 {
	var varz map[string]float64
	s.get(id, "/varz", &varz)
	return varz[name]
}

func shortestSeg(m map[string][]string) int {
	if len(m) < len(ids) {
		return 0
	}
	min := 1 << 30
	for _, id := range ids {
		if len(m[id]) < min {
			min = len(m[id])
		}
	}
	return min
}

func (s *smoke) startNode(id string, join bool) {
	args := []string{
		"-addr", s.addrs[id],
		"-node-id", id,
		"-peers", s.peersFlag,
		"-cluster-dir", filepath.Join(s.tmp, "node-"+id),
		"-quiesce-hold", "2s",
	}
	if join {
		args = append(args, "-join")
	}
	cmd := exec.Command(s.serverBin, args...)
	out, err := os.Create(filepath.Join(s.tmp, "node-"+id+".out"))
	if err != nil {
		log.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		log.Fatalf("start node %s: %v", id, err)
	}
	s.procs[id] = cmd
}

func (s *smoke) waitUp(id string) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(s.url(id) + "/api/v1/cluster")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			out, _ := os.ReadFile(filepath.Join(s.tmp, "node-"+id+".out"))
			log.Fatalf("node %s never came up; log:\n%s", id, out)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (s *smoke) url(id string) string { return "http://" + s.addrs[id] }

func (s *smoke) post(id, path string, payload, out any) {
	body, err := json.Marshal(payload)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(s.url(id)+path, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("POST %s %s: %v", id, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s %s: HTTP %d: %s", id, path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			log.Fatalf("POST %s %s: decode: %v", id, path, err)
		}
	}
}

func (s *smoke) get(id, path string, out any) {
	resp, err := http.Get(s.url(id) + path)
	if err != nil {
		log.Fatalf("GET %s %s: %v", id, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s %s: HTTP %d: %s", id, path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			log.Fatalf("GET %s %s: decode: %v", id, path, err)
		}
	}
}

func (s *smoke) drain(id string) {
	resp, err := http.Post(s.url(id)+"/api/v1/chaos/drain?wait=idle&timeout=60s", "application/json", nil)
	if err != nil {
		log.Fatalf("drain via %s: %v", id, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("drain via %s: HTTP %d: %s", id, resp.StatusCode, raw)
	}
}

func (s *smoke) store(id string) []byte {
	resp, err := http.Get(s.url(id) + "/api/v1/store")
	if err != nil {
		log.Fatalf("store %s: %v", id, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("store %s: HTTP %d err %v", id, resp.StatusCode, err)
	}
	return raw
}
