package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/recovery"
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
	// Only the stamper leads incidents, so only its value acts.
	QuiesceHold time.Duration
	// AlertBuf bounds the incident alert queue (default 16), which only
	// the stamper has.
	AlertBuf int
	// SubmitWindow bounds how many consecutive task executions a node
	// speculates and submits to the stamper as one batch (default 32; 1
	// restores per-record submission), the admission window a registration
	// carries included. An executor's window never crosses an ownership
	// change, and a stale or paused verdict rewinds a window to the
	// stamper's state.
	SubmitWindow int
	// SnapshotEvery is how many entries commit above the last checkpoint
	// before the sequencer stamps the next checkpoint record, at the end of
	// the group that reaches it (default 4096, as selfheal-server
	// -snapshot-every; negative disables automatic checkpoints). Every
	// replica that applies the record snapshots its state beside its journal
	// and forgets the history the snapshot covers.
	SnapshotEvery int
	// Registry receives the cluster metrics (nil disables them).
	Registry *obs.Registry
}

// Node is one member of the networked deployment: a full replica of the
// record stream plus the executor and replication machinery, and on the
// stamper the cluster's one incident leader. It implements the httpapi
// Backend/ChaosBackend surfaces, so any node is a complete client entry
// point. The admission node executes a run's first window; from there the
// node owning the run's current task continues it.
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
	alertsHorizon  atomic.Int64
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
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = durable.DefaultSnapshotEvery
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	n := &Node{
		cfg:     cfg,
		ring:    NewRing(ids),
		rep:     newReplica(),
		o:       hooks{cfg.Registry},
		stop:    make(chan struct{}),
		driving: make(map[string]bool),
	}
	n.stopCtx, n.stopCancel = context.WithCancel(context.Background())
	n.client = newPeerClient(n.stopCtx)
	n.pushCond = sync.NewCond(&n.pushMu)
	n.journal = newMemFrames()
	if cfg.Dir != "" {
		if err := n.openJournal(); err != nil {
			return nil, err
		}
		n.o.recordsApplied(n.rep.Applied())
	}
	if n.ring.Stamper() == cfg.NodeID {
		n.st = newStamper(n)
		n.alertCh = make(chan []wlog.InstanceID, cfg.AlertBuf)
	}
	return n, nil
}

// ID returns the node's member identity.
func (n *Node) ID() string { return n.cfg.NodeID }

// IsStamper reports whether this node is the cluster's sequencer.
func (n *Node) IsStamper() bool { return n.st != nil }

// Ring exposes the ownership map (read-only).
func (n *Node) Ring() *Ring { return n.ring }

// Start launches replication, the run reconciler and, on the stamper, the
// incident worker. With Config.Join set it first catches the replica up
// from the peers.
func (n *Node) Start() error {
	if n.cfg.Join {
		if err := n.catchUp(); err != nil {
			return err
		}
	}
	if n.st != nil {
		n.wg.Add(2)
		go n.st.loop()
		go n.incidentWorker()
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
// replica reaches that peer's position (the -join boot mode). A position
// beneath the peer's horizon first installs the peer's snapshot.
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
		at := n.rep.Applied()
		body, err := n.client.fetchCommits(n.peerAddr(from), at, 512)
		switch {
		case errors.Is(err, errBelowHorizon):
			err = n.installFrom(from)
		case err == nil:
			err = n.applyFrames(body)
		}
		if err != nil {
			return fmt.Errorf("cluster: join catch-up from %s: %w", from, err)
		}
		if n.rep.Applied() == at {
			return fmt.Errorf("cluster: join catch-up stalled at %d of %d", at, target)
		}
	}
	return nil
}

// installFrom installs a peer's latest snapshot (GET /internal/v1/snapshot)
// in place of the replica.
func (n *Node) installFrom(peer string) error {
	snap, err := n.client.fetchSnapshot(n.peerAddr(peer))
	if err != nil {
		return err
	}
	return n.installSnapshot(snap)
}

// pullLoop is the follower's catch-up fallback behind the stamper's push:
// it polls the stamper (then any peer) for records past the local cursor,
// installing a peer's snapshot first when the peer has retired them.
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
			at := n.rep.Applied()
			body, err := n.client.fetchCommits(n.peerAddr(id), at, 512)
			if errors.Is(err, errBelowHorizon) {
				if n.installFrom(id) == nil && n.rep.Applied() > at {
					progressed = true
					break
				}
				continue
			}
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
		for _, run := range n.rep.state().Live() {
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
		spec := n.rep.state().Spec(run)
		if spec == nil || spec.Task(cur) == nil {
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
		if !n.executeWindow(run, spec, cur, visit) {
			// A submission error: back off before the retry.
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
// guaranteed exactly as with per-record submission). A window whose head
// touches a key an incident paused parks at the stamper until the release,
// and is answered paused: the next window retries at once. It returns false
// when the window must be retried after a back-off (a submission error).
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
	// Catch the local replica up to the stamper's position before reading
	// the next frontier (also how a stale executor recomputes correctly).
	ctx, cancel := context.WithTimeout(n.stopCtx, 5*time.Second)
	defer cancel()
	_ = n.rep.WaitApplied(ctx, n.settle(results))
	return true
}

// speculate executes up to Config.SubmitWindow consecutive tasks of a run
// from cur#visit — the one speculation loop behind both the executor's
// windows and the admission window. A task reads the window's own earlier
// writes through an overlay, and base, the committed observation, for every
// other key; visits (the run's committed visit counts) is extended in place.
// An overlay read names its in-window writer but no position: the stamper
// reads it at the LSN that writer gets (rebaseWindowReads). The window stops
// at the run's end; with owned set, also at any task after the head that
// another node owns (the head itself was ownership-checked by runLoop, or
// runs here because its owner is unreachable).
func (n *Node) speculate(run string, spec *wf.Spec, cur wf.TaskID, visit int, visits map[wf.TaskID]int,
	base func(data.Key) wlog.ReadObs, owned bool) []*EntryJSON {
	window := n.cfg.SubmitWindow
	overlay := make(map[string]ReadObsJSON)
	batch := make([]*EntryJSON, 0, window)
	for len(batch) < window {
		task := spec.Task(cur)
		if task == nil {
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
		next := task.Eval(vals, func(k data.Key, v data.Value) { written[string(k)] = int64(v) })
		chosen := ""
		if len(task.Next) > 1 {
			chosen = string(next)
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
		visits[cur] = visit
		if next == "" {
			break // the run completes inside this window
		}
		cur = next
		visit = visits[cur] + 1
	}
	return batch
}

// settle reads the stamper's verdicts on a window: the highest seq they
// name up to the first rejection, the position to catch the replica up to.
// A stale verdict counts once: every later entry depended on the rejected
// one and was rejected with it.
func (n *Node) settle(results []SubmitResult) (maxSeq int) {
	for _, res := range results {
		maxSeq = max(maxSeq, res.Seq)
		if res.Status == SubOK || res.Status == SubDup {
			continue
		}
		if res.Status == SubStale {
			n.o.stale()
		}
		break
	}
	return maxSeq
}

// Submission routing: local call on the sequencer, HTTP to it elsewhere.

func (n *Node) submitEntries(entries []*EntryJSON) ([]SubmitResult, error) {
	if n.st != nil {
		return n.st.SubmitEntries(n.stopCtx, n.cfg.NodeID, entries)
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

// ---- httpapi.Backend ----

// SubmitRunSpec registers a run through the sequencer together with its
// first window, speculated on this node's replica from the run's start, and
// waits until the local replica has applied both (read-your-writes for the
// submitting client). The admission window ignores task ownership — the
// stamper's OCC makes where a task executes a latency choice. A run the
// window completed is done on return; any other continues through its
// owners (runLoop), exactly as after a stale or paused verdict.
func (n *Node) SubmitRunSpec(id string, doc *wfjson.SpecJSON) error {
	if id == "" {
		return fmt.Errorf("cluster: %w: empty run id", engine.ErrBadSpec)
	}
	spec, init, err := wfjson.BuildIn(n.rep.tab, doc)
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
	window := n.speculate(id, spec, spec.Start, 1, make(map[wf.TaskID]int), base, false)
	seq, results, err := n.submitSpec(id, doc, window)
	if err != nil {
		return err
	}
	maxSeq := n.settle(results)
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
	return shard.RunInfo{ID: id, Status: status, Shard: n.ring.OwnerIndexOfRun(id), Steps: len(n.rep.state().Log().Trace(id, false))}, nil
}

// Runs lists every run, sorted by ID.
func (n *Node) Runs() []shard.RunInfo {
	ids := n.rep.state().IDs()
	out := make([]shard.RunInfo, 0, len(ids))
	for _, id := range ids {
		if info, err := n.RunInfo(id); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// Trace returns a run's committed instance IDs, forged included.
func (n *Node) Trace(run string) []wlog.InstanceID {
	entries := n.rep.state().Log().Trace(run, true)
	out := make([]wlog.InstanceID, len(entries))
	for i, e := range entries {
		out[i] = e.ID()
	}
	return out
}

// ReportAlerts validates a batch against the local replica and admits each
// alert on the stamper, the cluster's one incident leader: locally there,
// else with one forward. An alert the unreachable stamper cannot take is
// dropped and counted lost — no other node can repair.
func (n *Node) ReportAlerts(alerts []triage.Alert) (admitted, dropped int, err error) {
	if err := n.checkAlerts(alerts); err != nil {
		return 0, 0, err
	}
	for _, a := range alerts {
		if n.st != nil {
			if n.admitAlert(a.Bad) {
				admitted++
			} else {
				dropped++
			}
			continue
		}
		n.o.proxied("alerts")
		ad, dr, ferr := n.client.forwardAlert(n.stamperAddr(), a.Bad)
		if ferr != nil {
			var ae *apiError
			if errors.As(ferr, &ae) {
				return admitted, dropped, ferr
			}
			n.alertsLost.Add(1)
			dropped++
			continue
		}
		admitted += ad
		dropped += dr
	}
	return admitted, dropped, nil
}

// checkAlerts admits a batch against the local replica the way every
// runtime does (machine.Machine.CheckAlerts), counting a refusal beneath
// the horizon.
func (n *Node) checkAlerts(alerts []triage.Alert) error {
	err := n.rep.state().CheckAlerts(alerts)
	if errors.Is(err, recovery.ErrHorizon) {
		n.alertsHorizon.Add(1)
		n.o.alertBelowHorizon()
	}
	return err
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

// StateString is the §IV.C classification of this node: only the stamper,
// which leads every incident, is ever in SCAN or RECOVERY.
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
	st := n.rep.tally.Counts()
	ids := n.rep.state().IDs()
	completed := 0
	for _, id := range ids {
		if done, _ := n.rep.RunDone(id); done {
			completed++
		}
	}
	normal := 0
	entries := n.rep.state().Log().Entries()
	for _, e := range entries {
		if !e.Forged {
			normal++
		}
	}
	return shard.Metrics{
		AlertsReported:     int(n.alertsReported.Load()),
		AlertsLost:         int(n.alertsLost.Load()),
		AlertsAnalyzed:     int(n.alertsAnalyzed.Load()),
		AlertsBelowHorizon: int(n.alertsHorizon.Load()),
		UnitsExecuted:      st.Units,
		RecoveryErrors:     st.Errors,
		Undone:             st.Undone,
		Redone:             st.Redone,
		NewExecuted:        st.NewExecuted,
		RunsSubmitted:      len(ids),
		RunsCompleted:      completed,
		NormalSteps:        normal,
	}
}

// StoreSnapshot returns the committed value of every key.
func (n *Node) StoreSnapshot() map[string]int64 {
	snap := n.rep.state().Store().Snapshot()
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

// Checkpoint asks the sequencer for a checkpoint record now and returns once
// the local replica has applied it and stored its snapshot: every replica
// that applies the record checkpoints at the same stream position.
func (n *Node) Checkpoint(ctx context.Context) error {
	var seq int
	var err error
	if n.st != nil {
		seq, err = n.st.Checkpoint(n.cfg.NodeID)
	} else {
		n.o.proxied("chaos/checkpoint")
		seq, err = n.client.checkpoint(n.stamperAddr(), n.cfg.NodeID)
	}
	if err != nil {
		return err
	}
	if err := n.rep.WaitApplied(ctx, seq); err != nil {
		return err
	}
	// A follower applies the record and stores the snapshot under applyMu.
	n.applyMu.Lock()
	n.applyMu.Unlock()
	return nil
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
	if wantRunsDone && len(n.rep.state().Live()) > 0 {
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
	log := n.rep.state().Log()
	base, entries := log.Base(), log.Entries()
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
	if err := n.rep.state().Store().CheckIndex(); err != nil {
		doc.CheckIndex = err.Error()
	}
	st := n.rep.tally.Counts()
	doc.AuditViolations = st.AuditViolations
	if st.LastAudit != nil {
		doc.AuditError = st.LastAudit.Error()
	}
	if st.LastErr != nil {
		doc.RecoveryError = st.LastErr.Error()
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
