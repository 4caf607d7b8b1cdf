// Command selfheal-server exposes the self-healing workflow system over
// HTTP: the versioned workflow API backed by the concurrent sharded
// execution layer (internal/shard).
//
//	POST /api/v1/runs                submit a workflow run (wfjson spec)
//	GET  /api/v1/runs                list run statuses
//	GET  /api/v1/runs/{id}           one run's status
//	POST /api/v1/alerts              deliver an IDS alert {"bad": [...]}
//	GET  /api/v1/state               NORMAL/SCAN/RECOVERY, queues, metrics
//	GET  /api/v1/store               committed store snapshot
//
//	GET /healthz                     liveness
//	GET /metrics                     Prometheus text exposition (internal/obs)
//	GET /varz                        expvar-style key-sorted JSON snapshot
//
// The CTMC analyses — the paper's figures, a custom configuration's
// metrics and the Fig 3 state graph as DOT — are cmd/ctmc-solve's.
//
// With -chaos, the white-box fuzzing hooks mount under /api/v1/chaos
// (forge, checkpoint, drain, log, verify — docs/FUZZING.md); -audit
// validates every installed repair against the Theorem-3 partial orders,
// and -fault-skip-repair injects the mutation-smoke fault (the recovery
// worker discards units without repairing). None of these belong in
// production configurations.
//
// With -node-id and -peers the process boots as one member of a networked
// cluster (internal/cluster, docs/CLUSTER.md) instead of a single-process
// shard service: the node-to-node API mounts under /internal/v1/ next to
// the public surface, GET /api/v1/cluster reports the topology, and every
// node answers the full v1 API regardless of which node owns a run.
// -cluster-dir persists the replicated record journal and its snapshots,
// -join catches the replica up from the peers before serving
// (restart/rejoin; from a peer's snapshot when the peers have retired the
// records it lacks), -snapshot-every sets how often the cluster checkpoints,
// and -quiesce-hold artificially extends an incident's partial-quiescence
// window so the mid-repair behaviour can be observed; the stamper leads
// every incident, so only the stamper's -quiesce-hold acts. Cluster nodes
// always mount the chaos routes (the cluster test harness drives them); do
// not expose them publicly.
//
// Routes and error envelope are documented in docs/API.md; the metric
// catalog served by /metrics and /varz is docs/OBSERVABILITY.md.
//
// Example:
//
//	selfheal-server -addr :8080 -shards 4 &
//	curl -X POST localhost:8080/api/v1/runs -d '{"id":"r1","spec":{...}}'
//	curl 'localhost:8080/api/v1/state'
//
// With -addr 127.0.0.1:0 the kernel picks a free port; the first stdout
// line ("selfheal-server listening on <addr>") names it, which is how
// scripts/ci.sh boots the API smoke test on an ephemeral port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/durable"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
)

// parsePeers decodes the -peers flag: "id=host:port,id=host:port,...".
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", part)
		}
		peers[id] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

// serveCluster boots the process as one cluster member and blocks until a
// termination signal.
func serveCluster(addr, nodeID, peersFlag, dir string, join bool, hold time.Duration, window, snapEvery int) {
	peers, err := parsePeers(peersFlag)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()
	node, err := cluster.New(cluster.Config{
		NodeID:        nodeID,
		Peers:         peers,
		Dir:           dir,
		Join:          join,
		QuiesceHold:   hold,
		SubmitWindow:  window,
		SnapshotEvery: snapEvery,
		Registry:      reg,
	})
	if err != nil {
		log.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.Handle("/internal/", node.InternalHandler())
	mux.Handle("/", httpapi.ClusterServer(reg, node))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	// Keep the resolved address the first line on stdout (boot contract).
	fmt.Printf("selfheal-server listening on %s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// Start after the listener is up: -join pulls from peers that may in
	// turn be probing us.
	if err := node.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selfheal-server cluster node %s up (stamper %v)\n", node.ID(), node.IsStamper())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("selfheal-server shutting down (%v)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		node.Stop()
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	shards := flag.Int("shards", 4, "worker shards for the execution layer")
	strict := flag.Bool("strict", false, "Theorem-4 strict mode: pause every key for whole SCAN+RECOVERY")
	triageOn := flag.Bool("triage", false, "streaming alert triage: cone coalescing, covered-alert prefilter, Report-time dedupe (docs/TRIAGE.md)")
	durableDir := flag.String("durable", "", "WAL directory: persist all state and restore it on boot (docs/DURABILITY.md)")
	snapEvery := flag.Int("snapshot-every", durable.DefaultSnapshotEvery, "checkpoint interval in committed entries: with -durable or -peers, snapshot and forget at the head once this many entries committed past the horizon; in memory, forget three intervals beneath the head (0 disables)")
	chaos := flag.Bool("chaos", false, "mount the white-box chaos routes under /api/v1/chaos (fuzzing only, docs/FUZZING.md)")
	audit := flag.Bool("audit", false, "validate every repair schedule against the Theorem-3 partial orders (GET /api/v1/chaos/verify)")
	faultSkipRepair := flag.Bool("fault-skip-repair", false, "FAULT INJECTION: recovery worker discards units without repairing (mutation smoke only)")
	nodeID := flag.String("node-id", "", "cluster mode: this node's member ID (requires -peers)")
	peersFlag := flag.String("peers", "", "cluster mode: static membership as id=host:port,... (must include -node-id)")
	join := flag.Bool("join", false, "cluster mode: catch the replica up from the peers before serving")
	clusterDir := flag.String("cluster-dir", "", "cluster mode: directory for the replicated record journal")
	quiesceHold := flag.Duration("quiesce-hold", 0, "cluster mode: extend each incident's partial-quiescence window; acts on the stamper, which leads every incident (testing)")
	submitWindow := flag.Int("submit-window", 0, "cluster mode: executor pipelining window, entries per batched submission (0 = default 32, 1 = per-record)")
	flag.Parse()
	if *snapEvery == 0 {
		*snapEvery = -1 // the Config fields read 0 as the default
	}

	if *nodeID != "" || *peersFlag != "" {
		if *nodeID == "" || *peersFlag == "" {
			log.Fatal("cluster mode needs both -node-id and -peers")
		}
		serveCluster(*addr, *nodeID, *peersFlag, *clusterDir, *join, *quiesceHold, *submitWindow, *snapEvery)
		return
	}

	cfg := shard.Config{Shards: *shards, Strict: *strict, AuditRepairs: *audit, SnapshotEvery: *snapEvery}
	cfg.Fault.SkipRepair = *faultSkipRepair
	if *triageOn {
		cfg.Triage = triage.All()
	}
	reg := obs.NewRegistry()
	var svc *shard.Service
	var err error
	if *durableDir != "" {
		svc, err = shard.NewDurable(cfg, *durableDir, durable.Options{})
		if err == nil {
			if n, d := svc.ReplayStats(); n > 0 || d > 0 {
				fmt.Fprintf(os.Stderr, "selfheal-server restored %d WAL records in %s\n", n, d)
			}
		}
	} else {
		svc, err = shard.New(cfg, nil)
	}
	if err != nil {
		log.Fatal(err)
	}
	svc.Observe(reg)
	svc.Start()
	defer svc.Stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	handler := httpapi.Server(reg, svc)
	if *chaos {
		handler = httpapi.ServerWithChaos(reg, svc)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	// The resolved address line is a machine-readable contract (see package
	// comment); keep it the first thing on stdout.
	fmt.Printf("selfheal-server listening on %s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("selfheal-server shutting down (%v)\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
}
