package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// Config boots one cluster node.
type Config struct {
	// NodeID is this process's member identity; it must appear in Peers.
	NodeID string
	// Peers maps every member ID (self included) to its host:port. The map
	// is the static membership: every node derives the same ring from it.
	Peers map[string]string
	// Dir, when set, holds the node's record journal (restart replay): the
	// segment files <NodeID>.wal-*.seg, directly in Dir.
	Dir string
	// Join performs a synchronous catch-up from the peers before serving —
	// the -join boot mode for restarted or journal-less nodes.
	Join bool
	// QuiesceHold artificially extends an incident's quiesce window after
	// the repair lands, so tests can observe partial quiescence mid-flight.
	QuiesceHold time.Duration
	// AlertBuf bounds the incident alert queue (default 16).
	AlertBuf int
	// SubmitWindow bounds how many consecutive task executions a node
	// speculates and submits to the stamper as one batch (default 32; 1
	// restores per-record submission), the admission window a registration
	// carries included. An executor's window never crosses an ownership
	// change, no window crosses a locally quiesced footprint, and a stale
	// verdict rewinds a window to the stamper's state.
	SubmitWindow int
	// Registry receives the cluster metrics (nil disables them).
	Registry *obs.Registry
}

// Node is one member of the networked deployment: a full replica of the
// record stream plus the executor, replication and incident machinery. It
// implements the httpapi Backend/ChaosBackend surfaces, so any node is a
// complete client entry point. The admission node executes a run's first
// window; from there the node owning the run's current task continues it.
type Node struct {
	cfg     Config
	ring    *Ring
	rep     *replica
	journal frameLog // the record stream's frames: on disk with Config.Dir, else in memory
	st      *stamper // non-nil only on the sequencer
	client  *peerClient
	o       hooks

	stop       chan struct{}
	stopCtx    context.Context
	stopCancel context.CancelFunc
	stopOnce   sync.Once
	wg         sync.WaitGroup

	pushMu   sync.Mutex
	pushCond *sync.Cond

	// applyMu serializes follower record application + journaling so
	// concurrently delivered bodies (push + pull fallback) journal in
	// stream order; journalErr is the follower journal's first append
	// failure, after which nothing more is journaled.
	applyMu    sync.Mutex
	journalErr error

	// Executor gate: keys quiesced on this node by an incident leader.
	gateMu   sync.Mutex
	gateCond *sync.Cond
	paused   map[data.Key]bool

	// driving holds each run with a local driver, mapped to whether a token
	// arrived since the driver last looked (driveRun).
	drivingMu sync.Mutex
	driving   map[string]bool

	alertCh        chan []wlog.InstanceID
	pendingAlerts  atomic.Int64
	inIncident     atomic.Bool
	alertsReported atomic.Int64
	alertsLost     atomic.Int64
	alertsAnalyzed atomic.Int64
}

// New builds a node: ring derivation, journal replay, sequencer election.
func New(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: node ID required")
	}
	if len(cfg.Peers) == 0 {
		cfg.Peers = map[string]string{cfg.NodeID: ""}
	}
	if _, ok := cfg.Peers[cfg.NodeID]; !ok {
		return nil, fmt.Errorf("cluster: node %s is not in the peer map", cfg.NodeID)
	}
	if cfg.AlertBuf <= 0 {
		cfg.AlertBuf = 16
	}
	if cfg.SubmitWindow <= 0 {
		cfg.SubmitWindow = 32
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	n := &Node{
		cfg:     cfg,
		ring:    NewRing(ids),
		rep:     newReplica(),
		client:  newPeerClient(),
		o:       hooks{cfg.Registry},
		stop:    make(chan struct{}),
		paused:  make(map[data.Key]bool),
		driving: make(map[string]bool),
		alertCh: make(chan []wlog.InstanceID, cfg.AlertBuf),
	}
	n.stopCtx, n.stopCancel = context.WithCancel(context.Background())
	n.pushCond = sync.NewCond(&n.pushMu)
	n.gateCond = sync.NewCond(&n.gateMu)
	n.journal = &memFrames{}
	if cfg.Dir != "" {
		j, err := loadJournal(cfg.Dir, cfg.NodeID, n.rep)
		if err != nil {
			return nil, err
		}
		n.journal = j
		n.o.recordsApplied(n.rep.Applied())
	}
	if n.ring.Stamper() == cfg.NodeID {
		n.st = newStamper(n)
	}
	return n, nil
}

// ID returns the node's member identity.
func (n *Node) ID() string { return n.cfg.NodeID }

// IsStamper reports whether this node is the cluster's sequencer.
func (n *Node) IsStamper() bool { return n.st != nil }

// Ring exposes the ownership map (read-only).
func (n *Node) Ring() *Ring { return n.ring }

// Start launches replication, the incident worker and the run reconciler.
// With Config.Join set it first catches the replica up from the peers.
func (n *Node) Start() error {
	if n.cfg.Join {
		if err := n.catchUp(); err != nil {
			return err
		}
	}
	if n.st != nil {
		n.wg.Add(1)
		go n.st.loop()
		for _, id := range n.ring.Members() {
			if id == n.cfg.NodeID {
				continue
			}
			n.wg.Add(1)
			go n.pusher(id)
		}
	} else {
		n.wg.Add(1)
		go n.pullLoop()
	}
	n.wg.Add(1)
	go n.incidentWorker()
	n.wg.Add(1)
	go n.reconcileLoop()
	return nil
}

// Stop shuts the node down and waits for its goroutines.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.stopCancel()
		n.wakePushers()
		if n.st != nil {
			n.st.wake()
		}
		n.gateMu.Lock()
		n.gateCond.Broadcast()
		n.gateMu.Unlock()
		n.wg.Wait()
		n.journal.Close()
	})
}

func (n *Node) stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// sleep waits d, returning false if the node stopped first.
func (n *Node) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-n.stop:
		return false
	case <-t.C:
		return true
	}
}

func (n *Node) peerAddr(id string) string { return n.cfg.Peers[id] }
func (n *Node) stamperAddr() string       { return n.peerAddr(n.ring.Stamper()) }

// catchUp pulls the stream from the most advanced reachable peer until the
// replica reaches that peer's position (the -join boot mode).
func (n *Node) catchUp() error {
	target, from := 0, ""
	for _, id := range n.ring.Members() {
		if id == n.cfg.NodeID {
			continue
		}
		st, err := n.client.status(n.peerAddr(id))
		if err != nil {
			continue
		}
		if st.Applied >= target && from == "" || st.Applied > target {
			target, from = st.Applied, id
		}
	}
	for from != "" && n.rep.Applied() < target {
		body, err := n.client.fetchCommits(n.peerAddr(from), n.rep.Applied(), 512)
		if err != nil {
			return fmt.Errorf("cluster: join catch-up from %s: %w", from, err)
		}
		if len(body) == 0 {
			return fmt.Errorf("cluster: join catch-up stalled at %d of %d", n.rep.Applied(), target)
		}
		if err := n.applyFrames(body); err != nil {
			return err
		}
	}
	return nil
}

// pullLoop is the follower's catch-up fallback behind the stamper's push:
// it polls the stamper (then any peer) for records past the local cursor.
func (n *Node) pullLoop() {
	defer n.wg.Done()
	peers := []string{n.ring.Stamper()}
	for _, id := range n.ring.Members() {
		if id != n.cfg.NodeID && id != n.ring.Stamper() {
			peers = append(peers, id)
		}
	}
	for !n.stopped() {
		progressed := false
		for _, id := range peers {
			body, err := n.client.fetchCommits(n.peerAddr(id), n.rep.Applied(), 512)
			if err != nil || len(body) == 0 {
				continue
			}
			if err := n.applyFrames(body); err != nil {
				return
			}
			progressed = true
			break
		}
		if !progressed && !n.sleep(100*time.Millisecond) {
			return
		}
	}
}

// reconcileInterval is how often the reconciler looks for stalled runs. A
// variable only so tests can lengthen it beyond any scheduling hiccup.
var reconcileInterval = 30 * time.Millisecond

// reconcileLoop re-fires driveRun for every stalled active run: explicit
// token handoffs are a latency optimization, the reconciler is the guarantee
// that a lost token (or a restarted node) cannot strand a workflow. A run
// counts as stalled when its frontier on this replica has not moved for a
// whole interval; runs the tokens keep moving are left alone, so a pickup
// (cluster_reconcile_pickups_total) marks a handoff the tokens missed.
func (n *Node) reconcileLoop() {
	defer n.wg.Done()
	type pos struct {
		cur   wf.TaskID
		visit int
	}
	seen := make(map[string]pos)
	for n.sleep(reconcileInterval) {
		now := make(map[string]pos)
		for _, run := range n.rep.ActiveRuns() {
			cur, visit, _, ok := n.rep.Frontier(run)
			if !ok {
				continue
			}
			p := pos{cur, visit}
			now[run] = p
			if last, ok := seen[run]; ok && last == p && n.driveRun(run, false) {
				n.o.reconcilePickup()
			}
		}
		seen = now
	}
}

// driveRun ensures exactly one local driver loop per run, reporting whether
// it started one. A call carrying a control token (token=true) that finds a
// driver still running makes that driver look at the run once more before it
// exits: the driver may have handed the run off already, and the run come
// back before the driver returned — without the second look the token would
// be absorbed and the run stranded until the reconciler.
func (n *Node) driveRun(run string, token bool) bool {
	if n.stopped() {
		return false
	}
	n.drivingMu.Lock()
	if _, running := n.driving[run]; running {
		n.driving[run] = n.driving[run] || token
		n.drivingMu.Unlock()
		return false
	}
	n.driving[run] = false
	n.drivingMu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			n.runLoop(run)
			n.drivingMu.Lock()
			again := n.driving[run]
			if again {
				n.driving[run] = false
			} else {
				delete(n.driving, run)
			}
			n.drivingMu.Unlock()
			if !again {
				return
			}
		}
	}()
	return true
}

// runLoop advances one run until it completes, the control token moves to
// another node, or the node stops.
func (n *Node) runLoop(run string) {
	for !n.stopped() {
		cur, visit, done, ok := n.rep.Frontier(run)
		if !ok || done {
			return
		}
		spec := n.rep.Spec(run)
		if spec == nil {
			return
		}
		task := spec.Tasks[cur]
		if task == nil {
			return
		}
		if owner := n.ring.OwnerOfTask(run, spec, cur); owner != n.cfg.NodeID {
			n.o.tokenSent()
			if err := n.client.sendToken(n.peerAddr(owner), run, n.rep.Applied()); err == nil {
				return // handed off: the owner drives from here
			}
			// Owner unreachable: execute locally. The stamper's OCC
			// serializes us against whoever else picks the run up.
		}
		if !n.gateWait(task) {
			return
		}
		if !n.executeWindow(run, spec, cur, visit) {
			if !n.sleep(25 * time.Millisecond) {
				return
			}
		}
	}
}

// executeWindow speculates a window of the run from its frontier on the
// local replica and submits it to the stamper as one batch — the pipelined
// commit path. If a foreign record changed what the window read, the
// stamper's OCC check fails the window's tail as stale and the executor
// rewinds to the replica (the window's head always commits, so progress is
// guaranteed exactly as with per-record submission). It returns false when
// the window must be retried after a pause (submission error or quiesced
// footprint).
func (n *Node) executeWindow(run string, spec *wf.Spec, cur wf.TaskID, visit int) bool {
	visits, ok := n.rep.RunVisits(run)
	if !ok {
		return false
	}
	batch := n.speculate(run, spec, cur, visit, visits, n.rep.currentObs, true)
	if len(batch) == 0 {
		return false
	}
	results, err := n.submitEntries(batch)
	if err != nil || len(results) == 0 {
		return false
	}
	maxSeq, committed, paused := n.settle(results)
	// Catch the local replica up to the stamper's position before reading
	// the next frontier (also how a stale executor recomputes correctly).
	ctx, cancel := context.WithTimeout(n.stopCtx, 5*time.Second)
	defer cancel()
	_ = n.rep.WaitApplied(ctx, maxSeq)
	return !paused || committed > 0
}

// speculate executes up to Config.SubmitWindow consecutive tasks of a run
// from cur#visit — the one speculation loop behind both the executor's
// windows and the admission window. A task reads the window's own earlier
// writes through an overlay, and base, the committed observation, for every
// other key; visits (the run's committed visit counts) is extended in place.
// An overlay read names its in-window writer but no position: the stamper
// reads it at the LSN that writer gets (rebaseWindowReads). The window stops
// at the run's end and at a task this node's gate blocks; with owned set,
// also at any task after the head that another node owns (the head itself
// was ownership-checked by runLoop, or runs here because its owner is
// unreachable).
func (n *Node) speculate(run string, spec *wf.Spec, cur wf.TaskID, visit int, visits visitCounts,
	base func(data.Key) wlog.ReadObs, owned bool) []*EntryJSON {
	window := n.cfg.SubmitWindow
	overlay := make(map[string]ReadObsJSON)
	batch := make([]*EntryJSON, 0, window)
	for len(batch) < window {
		task := spec.Tasks[cur]
		if task == nil || n.gateBlocked(task) {
			break
		}
		if owned && len(batch) > 0 && n.ring.OwnerOfTask(run, spec, cur) != n.cfg.NodeID {
			break
		}
		reads := make(map[string]ReadObsJSON, len(task.Reads))
		vals := make(map[data.Key]data.Value, len(task.Reads))
		for _, k := range task.Reads {
			o, ok := overlay[string(k)]
			if !ok {
				c := base(k)
				o = ReadObsJSON{Value: int64(c.Value), Writer: c.Writer, WriterPos: c.WriterPos}
			}
			reads[string(k)] = o
			vals[k] = data.Value(o.Value)
		}
		written := make(map[string]int64, len(task.Writes))
		if task.Compute != nil {
			out := task.Compute(vals)
			for _, k := range task.Writes {
				written[string(k)] = int64(out[k])
			}
		} else {
			for _, k := range task.Writes {
				written[string(k)] = 0
			}
		}
		chosen := ""
		if len(task.Next) > 1 {
			chosen = string(task.Choose(vals))
		}
		batch = append(batch, &EntryJSON{
			Run:    run,
			Task:   string(cur),
			Visit:  visit,
			Reads:  reads,
			Writes: written,
			Chosen: chosen,
		})
		inst := wlog.FormatInstance(run, cur, visit)
		for k, v := range written {
			overlay[k] = ReadObsJSON{Value: v, Writer: string(inst)}
		}
		visits.set(cur, visit)
		if len(task.Next) == 0 {
			break // the run completes inside this window
		}
		if len(task.Next) == 1 {
			cur = task.Next[0]
		} else {
			cur = wf.TaskID(chosen)
		}
		visit = visits.get(cur) + 1
	}
	return batch
}

// settle reads the stamper's verdicts on a window: the highest seq they
// name up to the first rejection (the position to catch the replica up
// to), how many entries committed before it, and whether it was a pause.
// A stale verdict counts once: every later entry depended on the rejected
// one and was rejected with it.
func (n *Node) settle(results []SubmitResult) (maxSeq, committed int, paused bool) {
	for _, res := range results {
		maxSeq = max(maxSeq, res.Seq)
		if res.Status == SubOK || res.Status == SubDup {
			committed++
			continue
		}
		if res.Status == SubStale {
			n.o.stale()
		}
		paused = res.Status == SubPaused
		break
	}
	return maxSeq, committed, paused
}

// gateBlocked is the non-blocking twin of gateWait, used when deciding
// whether to extend a speculation window past a task.
func (n *Node) gateBlocked(task *wf.Task) bool {
	n.gateMu.Lock()
	defer n.gateMu.Unlock()
	for _, k := range task.Reads {
		if n.paused[k] {
			return true
		}
	}
	for _, k := range task.Writes {
		if n.paused[k] {
			return true
		}
	}
	return false
}

// gateWait blocks while the task's footprint intersects this node's
// quiesced keys. Returns false when the node stopped instead.
func (n *Node) gateWait(task *wf.Task) bool {
	n.gateMu.Lock()
	defer n.gateMu.Unlock()
	for {
		if n.stopped() {
			return false
		}
		blocked := false
		for _, k := range task.Reads {
			if n.paused[k] {
				blocked = true
				break
			}
		}
		if !blocked {
			for _, k := range task.Writes {
				if n.paused[k] {
					blocked = true
					break
				}
			}
		}
		if !blocked {
			return true
		}
		n.gateCond.Wait()
	}
}

// quiesceKeys pauses the executor gate (and, on the sequencer, admission)
// for the given keys.
func (n *Node) quiesceKeys(keys []string) {
	n.gateMu.Lock()
	for _, k := range keys {
		n.paused[data.Key(k)] = true
	}
	n.gateMu.Unlock()
	if n.st != nil {
		n.st.PauseKeys(keys)
	}
}

// releaseKeys unpauses the keys once the replica has applied the repair
// (record `after`), asynchronously.
func (n *Node) releaseKeys(keys []string, after int) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ctx, cancel := context.WithTimeout(n.stopCtx, 30*time.Second)
		defer cancel()
		_ = n.rep.WaitApplied(ctx, after)
		n.gateMu.Lock()
		for _, k := range keys {
			delete(n.paused, data.Key(k))
		}
		n.gateCond.Broadcast()
		n.gateMu.Unlock()
		if n.st != nil {
			n.st.ReleaseKeys(keys)
		}
	}()
}

// Submission routing: local call on the sequencer, HTTP to it elsewhere.

func (n *Node) submitEntries(entries []*EntryJSON) ([]SubmitResult, error) {
	if n.st != nil {
		return n.st.SubmitEntries(n.cfg.NodeID, entries)
	}
	return n.client.submitEntries(n.stamperAddr(), n.cfg.NodeID, entries)
}

func (n *Node) submitSpec(run string, doc *wfjson.SpecJSON, entries []*EntryJSON) (int, []SubmitResult, error) {
	if n.st != nil {
		return n.st.SubmitSpec(n.cfg.NodeID, run, doc, entries)
	}
	n.o.proxied("runs")
	return n.client.submitSpec(n.stamperAddr(), n.cfg.NodeID, run, doc, entries)
}

func (n *Node) submitForge(run, task string, reads []string, writes map[string]int64) (wlog.InstanceID, int, error) {
	if n.st != nil {
		return n.st.SubmitForge(n.cfg.NodeID, run, task, reads, writes)
	}
	n.o.proxied("chaos/forge")
	return n.client.submitForge(n.stamperAddr(), n.cfg.NodeID, run, task, reads, writes)
}

func (n *Node) submitRepair(bad []string) (int, error) {
	if n.st != nil {
		return n.st.SubmitRepair(n.cfg.NodeID, bad)
	}
	return n.client.submitRepair(n.stamperAddr(), n.cfg.NodeID, bad)
}

// ---- httpapi.Backend ----

// SubmitRunSpec registers a run through the sequencer together with its
// first window, speculated on this node's replica from the run's start, and
// waits until the local replica has applied both (read-your-writes for the
// submitting client). The admission window ignores task ownership — the
// stamper's OCC makes where a task executes a latency choice — but stops at
// this node's gate. A run the window completed is done on return; any other
// continues through its owners (runLoop), exactly as after a stale verdict.
func (n *Node) SubmitRunSpec(id string, doc *wfjson.SpecJSON) error {
	if id == "" {
		return fmt.Errorf("cluster: %w: empty run id", engine.ErrBadSpec)
	}
	spec, init, err := wfjson.Build(doc)
	if err != nil {
		return fmt.Errorf("cluster: %w: %v", engine.ErrBadSpec, err)
	}
	// A key this replica holds no version of reads the spec's init value,
	// as applying the spec record will install it.
	base := func(k data.Key) wlog.ReadObs {
		o := n.rep.currentObs(k)
		if v, ok := init[k]; ok && o.WriterPos == wlog.MissingPos {
			return wlog.ReadObs{Value: v, WriterPos: data.InitPos}
		}
		return o
	}
	window := n.speculate(id, spec, spec.Start, 1, nil, base, false)
	seq, results, err := n.submitSpec(id, doc, window)
	if err != nil {
		return err
	}
	maxSeq, _, _ := n.settle(results)
	ctx, cancel := context.WithTimeout(n.stopCtx, 10*time.Second)
	defer cancel()
	if err := n.rep.WaitApplied(ctx, max(seq, maxSeq)); err != nil {
		return err
	}
	if _, _, done, _ := n.rep.Frontier(id); done {
		n.o.runDoneAtAdmission()
		return nil
	}
	n.driveRun(id, false)
	return nil
}

// RunInfo returns one run's view; Shard is the owner's ring position.
func (n *Node) RunInfo(id string) (shard.RunInfo, error) {
	done, ok := n.rep.RunDone(id)
	if !ok {
		return shard.RunInfo{}, fmt.Errorf("cluster: run %s: %w", id, engine.ErrUnknownRun)
	}
	status := "active"
	if done {
		status = "done"
	}
	return shard.RunInfo{ID: id, Status: status, Shard: n.ring.OwnerIndexOfRun(id), Steps: n.rep.Steps(id)}, nil
}

// Runs lists every run, sorted by ID.
func (n *Node) Runs() []shard.RunInfo {
	ids := n.rep.RunIDs()
	out := make([]shard.RunInfo, 0, len(ids))
	for _, id := range ids {
		if info, err := n.RunInfo(id); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// Trace returns a run's committed instance IDs, forged included.
func (n *Node) Trace(run string) []wlog.InstanceID { return n.rep.Trace(run, true) }

// ReportAlerts validates a batch and routes each alert to its incident
// leader (the accused run's owner), falling back to leading locally when
// the leader is unreachable.
func (n *Node) ReportAlerts(alerts []triage.Alert) (admitted, dropped int, err error) {
	// Syntax over the whole batch first: a malformed ID anywhere is a bad
	// request regardless of position.
	for _, a := range alerts {
		if len(a.Bad) == 0 {
			return 0, 0, fmt.Errorf("cluster: %w: empty alert", engine.ErrBadSpec)
		}
		for _, id := range a.Bad {
			if _, _, _, perr := wlog.ParseInstance(id); perr != nil {
				return 0, 0, fmt.Errorf("cluster: alert instance %q: %w", id, engine.ErrBadSpec)
			}
		}
	}
	// Presence next, against the full local replica.
	for _, a := range alerts {
		for _, id := range a.Bad {
			if !n.rep.HasInstance(id) {
				return 0, 0, fmt.Errorf("cluster: alert instance %q: %w", id, engine.ErrUnknownRun)
			}
		}
	}
	for _, a := range alerts {
		run, _, _, _ := wlog.ParseInstance(a.Bad[0])
		leader := n.ring.OwnerOfRun(run)
		if leader == n.cfg.NodeID {
			if n.admitAlert(a.Bad) {
				admitted++
			} else {
				dropped++
			}
			continue
		}
		n.o.proxied("alerts")
		ad, dr, ferr := n.client.forwardAlert(n.peerAddr(leader), instanceStrings(a.Bad))
		if ferr != nil {
			var ae *apiError
			if errors.As(ferr, &ae) {
				return admitted, dropped, ferr
			}
			// Leader unreachable: lead the incident from here.
			if n.admitAlert(a.Bad) {
				admitted++
			} else {
				dropped++
			}
			continue
		}
		admitted += ad
		dropped += dr
	}
	return admitted, dropped, nil
}

// admitAlert enqueues one alert on the bounded incident queue.
func (n *Node) admitAlert(bad []wlog.InstanceID) bool {
	n.pendingAlerts.Add(1)
	select {
	case n.alertCh <- append([]wlog.InstanceID(nil), bad...):
		n.alertsReported.Add(1)
		return true
	default:
		n.pendingAlerts.Add(-1)
		n.alertsLost.Add(1)
		return false
	}
}

// RetryAfterSeconds is the 429/partial-drop backpressure hint.
func (n *Node) RetryAfterSeconds() int {
	return shard.EstimateRetryAfter(int(n.pendingAlerts.Load()), shard.DefaultDrainSecPerAlert)
}

// StateString is the §IV.C classification of this node.
func (n *Node) StateString() string {
	if n.inIncident.Load() {
		return "RECOVERY"
	}
	if n.pendingAlerts.Load() > 0 {
		return "SCAN"
	}
	return "NORMAL"
}

// QueueLengths returns (alerts queued, incidents in flight, 0).
func (n *Node) QueueLengths() (int, int, int) {
	units := 0
	if n.inIncident.Load() {
		units = 1
	}
	return int(n.pendingAlerts.Load()), units, 0
}

// MetricsDoc summarizes this node's view of the cluster's accounting.
func (n *Node) MetricsDoc() shard.Metrics {
	st := n.rep.Stats()
	ids := n.rep.RunIDs()
	completed := 0
	for _, id := range ids {
		if done, _ := n.rep.RunDone(id); done {
			completed++
		}
	}
	normal := 0
	_, entries := n.rep.LogEntries()
	for _, e := range entries {
		if !e.Forged {
			normal++
		}
	}
	return shard.Metrics{
		AlertsReported: int(n.alertsReported.Load()),
		AlertsLost:     int(n.alertsLost.Load()),
		AlertsAnalyzed: int(n.alertsAnalyzed.Load()),
		UnitsExecuted:  st.units,
		RecoveryErrors: st.errors,
		Undone:         st.undone,
		Redone:         st.redone,
		NewExecuted:    st.newExec,
		RunsSubmitted:  len(ids),
		RunsCompleted:  completed,
		NormalSteps:    normal,
	}
}

// StoreSnapshot returns the committed value of every key.
func (n *Node) StoreSnapshot() map[string]int64 {
	snap := n.rep.Snapshot()
	out := make(map[string]int64, len(snap))
	for k, v := range snap {
		out[string(k)] = int64(v)
	}
	return out
}

// ---- httpapi.ChaosBackend ----

// InjectForged routes the forged commit through the sequencer and waits for
// the local replica to apply it.
func (n *Node) InjectForged(run, task string, reads []string, writes map[string]int64) (wlog.InstanceID, error) {
	inst, seq, err := n.submitForge(run, task, reads, writes)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(n.stopCtx, 10*time.Second)
	defer cancel()
	if err := n.rep.WaitApplied(ctx, seq); err != nil {
		return "", err
	}
	return inst, nil
}

// Checkpoint is unsupported: the replicated stream (plus per-node journals)
// is the cluster's durability story.
func (n *Node) Checkpoint(ctx context.Context) error {
	return errors.New("cluster: nodes do not checkpoint; the replicated record stream is durable")
}

// WaitIdle blocks until the whole cluster is quiescent: every member caught
// up to the sequencer, no active runs, no alerts queued, no incident —
// stable for two consecutive polls.
func (n *Node) WaitIdle(ctx context.Context) error {
	return n.waitQuiescent(ctx, true)
}

// DrainRecovery blocks until alerts and incidents have drained cluster-wide
// and every member caught up (runs may still be active).
func (n *Node) DrainRecovery(ctx context.Context) error {
	return n.waitQuiescent(ctx, false)
}

func (n *Node) waitQuiescent(ctx context.Context, wantRunsDone bool) error {
	stable := 0
	for {
		if n.clusterQuiescent(wantRunsDone) {
			stable++
			if stable >= 2 {
				return nil
			}
		} else {
			stable = 0
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stop:
			return errors.New("cluster: node stopped")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (n *Node) clusterQuiescent(wantRunsDone bool) bool {
	if n.pendingAlerts.Load() > 0 || n.inIncident.Load() {
		return false
	}
	if wantRunsDone && len(n.rep.ActiveRuns()) > 0 {
		return false
	}
	applied := make(map[string]int, len(n.cfg.Peers))
	for _, id := range n.ring.Members() {
		if id == n.cfg.NodeID {
			applied[id] = n.servable()
			continue
		}
		st, err := n.client.status(n.peerAddr(id))
		if err != nil {
			return false
		}
		if st.Alerts > 0 || st.Incident {
			return false
		}
		if wantRunsDone && st.ActiveRuns > 0 {
			return false
		}
		applied[id] = st.Applied
	}
	head := applied[n.ring.Stamper()]
	for _, a := range applied {
		if a != head {
			return false
		}
	}
	return true
}

// LogDoc returns the replica's committed log.
func (n *Node) LogDoc() (int, []httpapi.LogEntry) {
	base, entries := n.rep.LogEntries()
	out := make([]httpapi.LogEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, httpapi.LogEntry{
			LSN:    e.LSN,
			ID:     string(e.ID()),
			Run:    e.Run,
			Task:   string(e.Task),
			Visit:  e.Visit,
			Forged: e.Forged,
		})
	}
	return base, out
}

// VerifyDoc returns this replica's soundness verdicts for the fuzz oracles.
func (n *Node) VerifyDoc() httpapi.VerifyDoc {
	doc := httpapi.VerifyDoc{State: n.StateString(), CheckIndex: "ok"}
	if err := n.rep.CheckIndex(); err != nil {
		doc.CheckIndex = err.Error()
	}
	st := n.rep.Stats()
	doc.AuditViolations = st.auditViolations
	if st.lastAudit != nil {
		doc.AuditError = st.lastAudit.Error()
	}
	if st.lastErr != nil {
		doc.RecoveryError = st.lastErr.Error()
	}
	return doc
}

// ---- GET /api/v1/cluster ----

// MemberStatus is one member's health in the cluster document.
type MemberStatus struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Stamper bool   `json:"stamper"`
	Alive   bool   `json:"alive"`
	Applied int    `json:"applied"`
	State   string `json:"state,omitempty"`
}

// ClusterInfo is the GET /api/v1/cluster document served by every node.
type ClusterInfo struct {
	Node    string         `json:"node"`
	Stamper string         `json:"stamper"`
	Applied int            `json:"applied"`
	Members []MemberStatus `json:"members"`
}

// ClusterDoc reports the topology and each member's replication health.
func (n *Node) ClusterDoc() any {
	info := ClusterInfo{
		Node:    n.cfg.NodeID,
		Stamper: n.ring.Stamper(),
		Applied: n.rep.Applied(),
	}
	for _, id := range n.ring.Members() {
		m := MemberStatus{ID: id, Addr: n.peerAddr(id), Stamper: id == n.ring.Stamper()}
		if id == n.cfg.NodeID {
			m.Alive, m.Applied, m.State = true, n.rep.Applied(), n.StateString()
		} else if st, err := n.client.status(n.peerAddr(id)); err == nil {
			m.Alive, m.Applied, m.State = true, st.Applied, st.State
		}
		info.Members = append(info.Members, m)
	}
	return info
}

func instanceStrings(ids []wlog.InstanceID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

func sortedKeyList(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
