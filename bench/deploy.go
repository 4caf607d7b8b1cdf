package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/durable"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
)

// Deployment kinds.
const (
	kindMem     = "mem"
	kindDurable = "durable"
	kindCluster = "cluster3"
)

// snapshotEvery is the durable workload's auto-checkpoint interval in log
// entries (ISSUE 14).
const snapshotEvery = 4096

// resources tracks everything the benchmark opens so that every exit path —
// success, failed gate, deadline, signal — can release it and the final
// self-check can prove nothing is left: listeners, services and temp dirs.
type resources struct {
	mu      sync.Mutex
	addrs   []string
	closers []func()
	root    string // parent of every temp dir, inside the working directory
}

func (r *resources) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.mu.Lock()
	r.addrs = append(r.addrs, ln.Addr().String())
	r.mu.Unlock()
	return ln, nil
}

// onClose registers fn to run at releaseAll. Closers must be idempotent: the
// normal path closes deployments itself, releaseAll covers every other exit.
func (r *resources) onClose(fn func()) {
	r.mu.Lock()
	r.closers = append(r.closers, fn)
	r.mu.Unlock()
}

// tempDir creates a fresh directory under the benchmark's scratch root. The
// root lives in the working directory, not in os.TempDir: the benchmark may
// write only inside its checkout, and the WAL should sit on the checkout's
// filesystem, whose fsync cost is what `durable` measures.
func (r *resources) tempDir(pattern string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.root == "" {
		base := ".bench_build"
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
		root, err := os.MkdirTemp(base, "run-")
		if err != nil {
			return "", err
		}
		r.root = root
	}
	return os.MkdirTemp(r.root, pattern)
}

// releaseAll closes whatever is still open, newest first, and removes the
// scratch root. Closers are idempotent, so running it after a clean close is
// harmless.
func (r *resources) releaseAll() {
	r.mu.Lock()
	closers := r.closers
	r.closers = nil
	root := r.root
	r.root = ""
	r.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
	if root != "" {
		_ = os.RemoveAll(root) // best effort on the way out; selfCheck reports leftovers
	}
}

// selfCheck verifies that no listener the benchmark opened still accepts.
func (r *resources) selfCheck() error {
	r.mu.Lock()
	addrs := append([]string(nil), r.addrs...)
	r.mu.Unlock()
	for _, a := range addrs {
		c, err := net.DialTimeout("tcp", a, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return fmt.Errorf("self-check: listener %s still accepts", a)
		}
	}
	return nil
}

// deployment is one booted system under test, reachable only through url.
type deployment struct {
	kind string
	url  string // the client's entry point
	res  *resources

	// Single-process kinds.
	svc *shard.Service
	reg *obs.Registry
	dir string
	cfg shard.Config
	srv *httpServer

	// Cluster kind: nodes[i] serves on urls[i]; stamper indexes the
	// sequencer; url is a non-stamper member.
	nodes   []*cluster.Node
	urls    []string
	regs    []*obs.Registry
	srvs    []*httpServer
	stamper int

	closeOnce sync.Once
}

// httpServer is an http.Server on its own loopback listener whose close
// waits for Serve to return.
type httpServer struct {
	srv  *http.Server
	done chan struct{}
	addr string
}

func serve(res *resources, h http.Handler) (*httpServer, error) {
	ln, err := res.listen()
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
		addr: ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed after close
	}()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.srv.Close() // closes the listener and every connection
	<-s.done
}

// shardConfig is the service configuration every single-process workload
// boots: 4 shards, all triage mechanisms on, repairs audited so the dag-audit
// gate is live.
//
// alertBuf sizes the bounded alert queue (0 keeps the service default of 8,
// ample for serial incidents). heal-storm sets it to the storm's alert count:
// every workload must run without a failed operation, and a refused alert is
// one, so the storm is admitted whole and triage — coalescing, prefilter,
// dedupe — absorbs it rather than the 429 path.
func shardConfig(fault shard.FaultInjection, alertBuf int) shard.Config {
	return shard.Config{
		Shards:       4,
		Triage:       triage.All(),
		AuditRepairs: true,
		AlertBuf:     alertBuf,
		Fault:        fault,
	}
}

// bootShard boots shard.New (dir == "") or shard.NewDurable behind
// httpapi.ServerWithChaos. reg == nil leaves observability off.
func bootShard(res *resources, cfg shard.Config, dir string, reg *obs.Registry) (*deployment, error) {
	d := &deployment{kind: kindMem, res: res, reg: reg, dir: dir, cfg: cfg}
	var err error
	if dir != "" {
		d.kind = kindDurable
		cfg.SnapshotEvery = snapshotEvery
		d.cfg = cfg
		d.svc, err = shard.NewDurable(cfg, dir, durable.Options{})
	} else {
		d.svc, err = shard.New(cfg, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", d.kind, err)
	}
	d.svc.Observe(reg)
	d.svc.Start()
	d.srv, err = serve(res, httpapi.ServerWithChaos(reg, d.svc))
	if err != nil {
		d.svc.Stop()
		return nil, err
	}
	d.url = "http://" + d.srv.addr
	res.onClose(d.close)
	return d, nil
}

// handlerSlot lets a listener exist before its node does: cluster.New needs
// every member's address up front.
type handlerSlot struct{ h atomic.Value }

func (s *handlerSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node not up", http.StatusBadGateway)
}

// bootCluster boots three journaled cluster nodes in-process, each serving
// its internal API and the public surface on one loopback port, exactly as
// internal/cluster's test harness does. Loopback only: no delay is injected
// between nodes, so latency is processor time.
func bootCluster(res *resources, traced bool) (*deployment, error) {
	ids := []string{"n1", "n2", "n3"}
	d := &deployment{kind: kindCluster, res: res}
	res.onClose(d.close)
	peers := make(map[string]string, len(ids))
	slots := make([]*handlerSlot, len(ids))
	for i, id := range ids {
		slots[i] = &handlerSlot{}
		s, err := serve(res, slots[i])
		if err != nil {
			return nil, err
		}
		d.srvs = append(d.srvs, s)
		d.urls = append(d.urls, "http://"+s.addr)
		peers[id] = s.addr
	}
	dir, err := res.tempDir("cluster-")
	if err != nil {
		return nil, err
	}
	d.dir = dir
	for i, id := range ids {
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
		}
		n, err := cluster.New(cluster.Config{NodeID: id, Peers: peers, Dir: dir, Registry: reg})
		if err != nil {
			return nil, fmt.Errorf("boot cluster node %s: %w", id, err)
		}
		mux := http.NewServeMux()
		mux.Handle("/internal/", n.InternalHandler())
		mux.Handle("/", httpapi.ClusterServer(reg, n))
		slots[i].h.Store(http.Handler(mux))
		d.nodes = append(d.nodes, n)
		d.regs = append(d.regs, reg)
		if n.IsStamper() {
			d.stamper = i
		}
	}
	for i, n := range d.nodes {
		if err := n.Start(); err != nil {
			return nil, fmt.Errorf("start cluster node %s: %w", ids[i], err)
		}
	}
	// The client attaches to a non-stamper member, so every submission is
	// proxied and every commit crosses the network to the sequencer.
	d.url = d.urls[(d.stamper+1)%len(ids)]
	return d, nil
}

// close stops the deployment: HTTP servers first (no new requests), then the
// services and nodes, which flush and close their journals.
func (d *deployment) close() {
	d.closeOnce.Do(func() {
		if d.srv != nil {
			d.srv.close()
		}
		for _, s := range d.srvs {
			s.close()
		}
		if d.svc != nil {
			d.svc.Stop()
		}
		for _, n := range d.nodes {
			n.Stop()
		}
	})
}

// recoveryErrors counts the repair units the deployment has dropped.
func (d *deployment) recoveryErrors() int {
	if d.svc != nil {
		return d.svc.Metrics().RecoveryErrors
	}
	n := 0
	for _, node := range d.nodes {
		n += node.MetricsDoc().RecoveryErrors
	}
	return n
}

// reopen boots a fresh durable service on a closed deployment's directory.
func (d *deployment) reopen(reg *obs.Registry) (*deployment, error) {
	if d.kind != kindDurable {
		return nil, errors.New("reopen: not a durable deployment")
	}
	return bootShard(d.res, d.cfg, d.dir, reg)
}

// dirBytes sums the sizes of the regular files under dir whose names pass
// keep (nil keeps all).
func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() || (keep != nil && !keep(e.Name())) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
