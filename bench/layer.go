package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/obs"
	"selfheal/internal/recovery"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// Layers are measured from outside (ISSUE 14): by timing calls into their
// public functions on the live state, and by reading the existing obs.Registry
// and the services' own counters before and after the measured window.

// prefault touches mb MiB of fresh heap and gives it back to the Go runtime,
// which keeps the pages mapped for the allocations that follow. A long-running
// service has faulted its heap in long ago; a benchmark process has not, and
// in a small VM a first touch can cost 15–25 µs per page (README.md,
// "Warm-up"). It runs before set-up and is not part of setup_s.
func prefault(mb int) time.Duration {
	start := time.Now()
	const chunk = 4 << 20
	hold := make([][]byte, 0, mb/4)
	for i := 0; i < mb/4; i++ {
		b := make([]byte, chunk)
		for j := 0; j < chunk; j += 4096 {
			b[j] = 1
		}
		hold = append(hold, b)
	}
	runtime.KeepAlive(hold)
	hold = nil
	runtime.GC()
	return time.Since(start)
}

// runtimeSnapshot is the process, registry and service-counter state at one
// instant.
type runtimeSnapshot struct {
	mem      runtime.MemStats
	registry map[string]float64
	svc      shard.Metrics
}

func snapshotRuntime(dep *deployment) runtimeSnapshot {
	var s runtimeSnapshot
	runtime.ReadMemStats(&s.mem)
	s.registry = map[string]float64{}
	for _, r := range append([]*obs.Registry{dep.reg}, dep.regs...) {
		for k, v := range r.Snapshot() { // nil registries snapshot to nil
			s.registry[k] += v
		}
	}
	switch {
	case dep.svc != nil:
		s.svc = dep.svc.Metrics()
	case len(dep.nodes) > 0:
		s.svc = dep.nodes[dep.stamper].MetricsDoc()
	}
	return s
}

func registryDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// sumPrefix adds up every registry sample whose name starts with prefix
// (labelled families such as cluster_proxied_requests_total{route="..."}).
func sumPrefix(m map[string]float64, prefix string) float64 {
	t := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the per-layer metrics that are counts and ratios
// over the measured window. The service counters work with observability off;
// the registry families are empty on untraced runs and read 0.
func counterMetrics(vals map[string]float64, before, after runtimeSnapshot, runs int64, incidents int, elapsed time.Duration) {
	vals["runtime.alloc_mb_per_krun"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / (1 << 20) / float64(runs) * 1000
	vals["runtime.gc_cpu_frac"] = after.mem.GCCPUFraction

	b, a := before.svc, after.svc
	vals["engine.steps"] = float64(a.NormalSteps - b.NormalSteps)
	vals["shard.commit_batch_entries"] = ratio(float64(a.CommitEntries-b.CommitEntries), float64(a.CommitBatches-b.CommitBatches))
	vals["triage.cones"] = float64(a.ConesAnalyzed - b.ConesAnalyzed)
	vals["triage.coalesce_ratio"] = ratio(float64(a.AlertsAnalyzed-b.AlertsAnalyzed), float64(a.ConesAnalyzed-b.ConesAnalyzed))
	vals["triage.prefilter_hits"] = float64(a.AlertsPrefiltered - b.AlertsPrefiltered)
	vals["triage.deduped"] = float64(a.AlertsDeduped - b.AlertsDeduped)
	if incidents > 0 {
		vals["recovery.undone_per_incident"] = float64(a.Undone-b.Undone) / float64(incidents)
		vals["recovery.redone_per_incident"] = float64(a.Redone-b.Redone) / float64(incidents)
	}

	d := registryDelta(before.registry, after.registry)
	vals["shard.quiesce_ms"] = ratio(d[obs.MShardQuiesceSeconds+"_sum"], d[obs.MShardQuiesceSeconds+"_count"]) * 1e3
	vals["shard.quiesced_shards"] = ratio(d[obs.MShardQuiescedShards+"_sum"], d[obs.MShardQuiescedShards+"_count"])
	vals["wlog.hook_frac"] = d[obs.MWlogHookSeconds] / elapsed.Seconds()

	fsyncs := d[obs.MWalFsyncSeconds+"_count"]
	vals["durable.fsyncs_per_run"] = fsyncs / float64(runs)
	vals["durable.fsync_us"] = ratio(d[obs.MWalFsyncSeconds+"_sum"], fsyncs) * 1e6
	vals["durable.group_entries"] = ratio(d[obs.MWalGroupEntries+"_sum"], d[obs.MWalGroupEntries+"_count"])
	vals["durable.bytes_per_entry"] = ratio(d[obs.MWalAppendedBytes], d[obs.MWlogAppends])
	vals["durable.snapshots"] = d[obs.MWalSnapshots]

	groups := d[obs.MClusterStampBatchSize+"_count"]
	stamped := sumPrefix(d, obs.MClusterRecordsStamped)
	vals["cluster.stamp_batch_entries"] = ratio(d[obs.MClusterStampBatchSize+"_sum"], groups)
	vals["cluster.journal_fsyncs_per_run"] = groups / float64(runs) // one journal fsync per stamped group
	vals["cluster.bytes_per_record"] = ratio(d[obs.MClusterReplicationBytes+`{dir="out"}`], 2*stamped)
	vals["cluster.proxied"] = sumPrefix(d, obs.MClusterProxied)
	vals["cluster.tokens_sent"] = d[obs.MClusterTokensSent]
	vals["cluster.stale_frac"] = ratio(d[obs.MClusterStaleSubmissions], stamped)
}

// sampler polls the gauges whose peaks matter, every 2 ms, on traced runs
// only (QueueLengths takes the service's mutex).
type sampler struct {
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	deferredPeak int
	lagPeak      float64
	pausedFor    time.Duration
}

const samplePeriod = 2 * time.Millisecond

func startSampler(dep *deployment, on bool) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	if !on {
		close(s.done)
		return s
	}
	// Registry.Gauge returns the gauge a node registered under the same name,
	// so the loop reads a few atomics instead of snapshotting registries.
	var lag, paused []*obs.Gauge
	for _, r := range dep.regs {
		paused = append(paused, r.Gauge(obs.MClusterPausedKeys))
		for _, n := range dep.nodes {
			lag = append(lag, r.Gauge(fmt.Sprintf("%s{peer=%q}", obs.MClusterReplicationLag, n.ID())))
		}
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			if dep.svc != nil {
				if _, _, d := dep.svc.QueueLengths(); d > s.deferredPeak {
					s.deferredPeak = d
				}
			}
			for _, g := range lag {
				s.lagPeak = max(s.lagPeak, float64(g.Value()))
			}
			for _, g := range paused {
				if g.Value() > 0 {
					s.pausedFor += samplePeriod
					break
				}
			}
		}
	}()
	return s
}

// stop ends the sampler and waits for its goroutine.
func (s *sampler) stop() {
	s.stopOnce.Do(func() { close(s.quit) })
	<-s.done
}

// report must follow stop.
func (s *sampler) report(vals map[string]float64, incidents int) {
	vals["shard.deferred_peak"] = float64(s.deferredPeak)
	vals["cluster.replication_lag_records"] = s.lagPeak
	if incidents > 0 {
		vals["cluster.incident_quiesce_ms"] = s.pausedFor.Seconds() * 1e3 / float64(incidents)
	}
}

// spanMetrics derives the client-call metrics from the recorded spans.
func spanMetrics(tr *tracer, vals map[string]float64) {
	for name, span := range map[string]string{
		"httpapi.post_runs_us":   "httpapi.post_runs",
		"httpapi.get_run_us":     "httpapi.get_run",
		"httpapi.post_alerts_us": "httpapi.post_alerts",
	} {
		if d := tr.durationsUS(span); len(d) > 0 {
			vals[name] = quantile(d, 0.5)
		}
	}
}

// backend is the part of httpapi.Backend the walk calls directly, below the
// HTTP layer; *shard.Service and *cluster.Node both provide it.
type backend interface {
	SubmitRunSpec(id string, spec *wfjson.SpecJSON) error
	RunInfo(id string) (shard.RunInfo, error)
}

// walkRuns is how many runs the walk's private tenant needs: walkSamples over
// HTTP, walkSamples directly, one before the forge and walkDelay after it.
const (
	walkSamples = 9
	walkDelay   = 2
	walkRuns    = 2*walkSamples + 1 + walkDelay
)

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur times fn n times under a span and returns the median duration.
func medianDur(tr *tracer, parent spanRef, name string, n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(tr.timed(parent, name, func(spanRef) { fn() }))
	}
	return time.Duration(quantile(ds, 0.5))
}

// layerWalk is the traced run's second half: on the live, idle state the
// workload left behind it calls each layer's public entry points inside
// spans whose parent is the next-shallower entry point, and derives the layer
// budget of one unloaded run. It runs after the store gates (it leaves an
// unrepaired forge behind) and before a durable deployment's restart.
func layerWalk(ctx context.Context, res *resources, cfg runConfig, c *client, dep *deployment, in *inputs, tr *tracer, vals map[string]float64) error {
	root := tr.root("walk", "walk")
	defer root.end()
	win, err := generate(cfg.seed, "w", []int{walkRuns}, true)
	if err != nil {
		return err
	}
	wt := win.tenants[0]
	docs := make([]*wfjson.SpecJSON, len(wt.runs))
	for i := range wt.runs {
		docs[i] = wt.runs[i].doc
	}

	// One unloaded run over HTTP, walkSamples times: what a lone client sees.
	var httpUS []float64
	for i := 0; i < walkSamples; i++ {
		r, _ := wt.take()
		out, err := c.submitAndWait(ctx, r)
		if err != nil {
			return err
		}
		httpUS = append(httpUS, usOf(out.done.Sub(out.sent)))
	}
	lHTTP := quantile(httpUS, 0.5)

	// The same run below the HTTP layer: SubmitRunSpec, then RunInfo until
	// done, polled without a back-off.
	var be backend = dep.svc
	if dep.kind == kindCluster {
		for i, u := range dep.urls {
			if u == dep.url {
				be = dep.nodes[i]
			}
		}
	}
	var submitUS, runUS []float64
	for i := 0; i < walkSamples; i++ {
		r, _ := wt.take()
		sub, total, err := directRun(ctx, tr, root.ref(), be, r)
		if err != nil {
			return err
		}
		submitUS = append(submitUS, usOf(sub))
		runUS = append(runUS, usOf(total))
	}
	lDirect := quantile(runUS, 0.5)
	vals["httpapi.self_us_per_run"] = max(0, lHTTP-lDirect)

	// wfjson: document → executable spec.
	i := 0
	build := medianDur(tr, root.ref(), "wfjson.build", len(docs), func() {
		_, _, _ = wfjson.Build(docs[i]) // generated documents always build
		i++
	})
	vals["wfjson.build_us"] = usOf(build)

	// engine, wlog, deps: the walk's runs on a bare store and log, then the
	// committed entries re-appended to a bare log with and without the
	// dependence graph's commit hook.
	entries, stepUS, err := bareEngine(tr, root.ref(), win)
	if err != nil {
		return err
	}
	vals["engine.step_us"] = stepUS
	var sample []*wlog.Entry
	var liveLog *wlog.Log
	if dep.svc != nil {
		liveLog = dep.svc.Log()
		all := liveLog.Entries()
		sample = all[max(0, len(all)-4096):]
	} else {
		sample = entries
	}
	appendUS := reappend(tr, root.ref(), "wlog.append", sample, false)
	vals["wlog.append_us"] = appendUS
	vals["deps.append_us"] = max(0, reappend(tr, root.ref(), "deps.append", sample, true)-appendUS)
	enc := tr.timed(root.ref(), "durable.encode", func(spanRef) {
		var buf []byte
		for _, e := range sample {
			buf = durable.EncodeEntry(buf[:0], e)
		}
	})
	vals["durable.encode_us"] = usOf(enc) / float64(len(sample))

	steps := float64(len(entries)) / float64(len(wt.runs))
	explained := vals["httpapi.self_us_per_run"] + vals["wfjson.build_us"] + steps*(stepUS+vals["deps.append_us"])

	if dep.kind == kindDurable {
		us, err := specSync(tr, root.ref(), res, wt)
		if err != nil {
			return err
		}
		vals["durable.spec_sync_us"] = us
		// One fsync for the spec record, one per commit batch; unloaded, a
		// batch is one entry.
		explained += us + steps*vals["durable.fsync_us"]
	}
	if dep.kind == kindCluster {
		us, err := submitRTT(ctx, tr, root.ref(), dep, in.tenants[0].runs[0].id)
		if err != nil {
			return err
		}
		vals["cluster.submit_rtt_us"] = us
		explained += steps * us // unloaded, every entry is its own submit round trip
	}

	// budget.unexplained_frac: the unloaded HTTP run's latency that the layer
	// self times above do not account for — scheduling between the commit
	// pipeline's goroutines, the poll back-off's slack, and whatever no
	// public function exposes. Reported, not gated (ROADMAP's 10 % bar).
	vals["shard.submit_us"] = quantile(submitUS, 0.5)
	vals["shard.run_us"] = lDirect
	vals["budget.unexplained_frac"] = max(0, lHTTP-explained) / lHTTP

	if dep.svc != nil {
		if err := walkRecovery(ctx, tr, root.ref(), dep.svc, in, win, vals); err != nil {
			return err
		}
	}

	over, err := obsOverhead(ctx, res, cfg)
	if err != nil {
		return err
	}
	vals["obs.overhead_frac"] = over
	return nil
}

// directRun submits r through the backend and spins on RunInfo until done. It
// returns the SubmitRunSpec call's duration and submit → done.
func directRun(ctx context.Context, tr *tracer, parent spanRef, be backend, r *runInput) (submit, total time.Duration, err error) {
	total = tr.timed(parent, "shard.run", func(run spanRef) {
		submit = tr.timed(run, "shard.submit", func(spanRef) { err = be.SubmitRunSpec(r.id, r.doc) })
		for err == nil {
			var info shard.RunInfo
			if info, err = be.RunInfo(r.id); err != nil {
				break
			}
			if info.Status == "done" {
				return
			}
			if info.Status == "failed" {
				err = fmt.Errorf("run %s failed: %s", r.id, info.Error)
				return
			}
			if ctx.Err() != nil {
				err = ctx.Err()
				return
			}
			runtime.Gosched()
		}
	})
	return submit, total, err
}

// bareEngine executes the walk tenant's runs with Engine.RunAll on a bare
// data.NewStore and wlog.New and returns the committed entries and the cost
// per step.
func bareEngine(tr *tracer, parent spanRef, win *inputs) ([]*wlog.Entry, float64, error) {
	store, log := data.NewStore(), wlog.New()
	eng := engine.New(store, log)
	var total time.Duration
	for _, r := range win.tenants[0].runs {
		spec := win.specs[r.id]
		run, err := eng.NewRun(r.id, spec)
		if err != nil {
			return nil, 0, err
		}
		total += tr.timed(parent, "engine.run_all", func(spanRef) {
			err = eng.RunAll(context.Background(), run)
		})
		if err != nil {
			return nil, 0, err
		}
	}
	entries := log.Entries()
	return entries, usOf(total) / float64(len(entries)), nil
}

// reappend appends copies of entries to a fresh log — with the incremental
// dependence graph's commit hook attached when hooked — and returns the cost
// per entry in microseconds.
func reappend(tr *tracer, parent spanRef, name string, entries []*wlog.Entry, hooked bool) float64 {
	log := wlog.New()
	if hooked {
		deps.NewIncremental(log)
	}
	copies := make([]*wlog.Entry, len(entries))
	for i, e := range entries {
		cp := *e
		copies[i] = &cp
	}
	d := tr.timed(parent, name, func(spanRef) {
		for _, e := range copies {
			_, _ = log.Append(e) // instance IDs are unique in the source log
		}
	})
	return usOf(d) / float64(len(entries))
}

// specSync times AppendSpec+Sync — the durable submission's spec record — on
// a scratch WAL in the benchmark's scratch root.
func specSync(tr *tracer, parent spanRef, res *resources, wt *tenant) (float64, error) {
	dir, err := res.tempDir("walk-wal-")
	if err != nil {
		return 0, err
	}
	w, _, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	var us []float64
	for i := range wt.runs {
		doc, err := json.Marshal(wt.runs[i].safeKeys) // any small payload: the cost is the fsync
		if err != nil {
			return 0, err
		}
		var aerr error
		d := tr.timed(parent, "durable.spec_sync", func(spanRef) {
			if aerr = w.AppendSpec(wt.runs[i].id, doc, nil); aerr == nil {
				aerr = w.Sync()
			}
		})
		if aerr != nil {
			return 0, aerr
		}
		us = append(us, usOf(d))
	}
	return quantile(us, 0.5), nil
}

// submitRTT times POST /internal/v1/submit on the stamper with an entry that
// is already committed: the verdict is "dup", so nothing is stamped, but the
// request crosses the same route, queue and stamping loop.
func submitRTT(ctx context.Context, tr *tracer, parent spanRef, dep *deployment, run string) (float64, error) {
	sc := newClient(dep.urls[dep.stamper], 1, tr)
	defer sc.close()
	body, err := json.Marshal(map[string]any{
		"origin": "bench",
		"entry":  cluster.EntryJSON{Run: run, Task: "t0", Visit: 1},
	})
	if err != nil {
		return 0, err
	}
	var us []float64
	for i := 0; i < 2*walkSamples; i++ {
		start := time.Now()
		rp, err := sc.do(ctx, parent, "cluster.submit", "POST", "/internal/v1/submit", body)
		if err != nil {
			return 0, err
		}
		if rp.status != http.StatusOK || !strings.Contains(string(rp.body), cluster.SubDup) {
			return 0, rp.errorf("POST /internal/v1/submit (want a dup verdict)")
		}
		us = append(us, usOf(time.Since(start)))
	}
	return quantile(us, 0.5), nil
}

// walkRecovery damages the walk tenant on the live service — forge, then
// walkDelay more runs — and calls the triage and recovery layers' public
// functions on the live log and store, as the recovery worker would.
func walkRecovery(ctx context.Context, tr *tracer, parent spanRef, svc *shard.Service, in, win *inputs, vals map[string]float64) error {
	wt := win.tenants[0]
	r, _ := wt.take()
	if _, _, err := directRun(ctx, tr, parent, svc, r); err != nil {
		return err
	}
	f := forgeAfter(wt.last(), 0, rand.New(rand.NewSource(1)))
	reads := make([]data.Key, len(f.Reads))
	for i, k := range f.Reads {
		reads[i] = data.Key(k)
	}
	writes := make(map[data.Key]data.Value, len(f.Writes))
	for k, v := range f.Writes {
		writes[data.Key(k)] = data.Value(v)
	}
	accusable := wlog.FormatInstance(wt.last().id, "t0", 1)
	forged, err := svc.InjectForged(f.Run, wf.TaskID(f.Task), reads, writes)
	if err != nil {
		return err
	}
	for i := 0; i < walkDelay; i++ {
		r, _ := wt.take()
		if _, _, err := directRun(ctx, tr, parent, svc, r); err != nil {
			return err
		}
	}

	log, store := svc.Log(), svc.Store()
	specs := make(map[string]*wf.Spec, len(in.specs)+len(win.specs))
	for id, sp := range in.specs {
		specs[id] = sp
	}
	for id, sp := range win.specs {
		specs[id] = sp
	}
	vals["recovery.log_entries"] = float64(len(log.Entries()))

	// deps: the service's own graph is private; an equal one subscribed to
	// the live log gives the same snapshots.
	ig := deps.NewIncremental(log)
	var g *deps.Graph
	vals["deps.snapshot_us"] = usOf(medianDur(tr, parent, "deps.snapshot", walkSamples, func() { g = ig.Snapshot() }))

	clone := medianDur(tr, parent, "data.clone", 3, func() { _ = store.Clone() })
	vals["data.clone_ms"] = msOf(clone)
	keys := store.Keys()
	versions := 0
	for _, k := range keys {
		versions += len(store.Chain(k))
	}
	vals["data.versions"] = float64(versions)
	vals["data.versions_per_key"] = ratio(float64(versions), float64(len(keys)))

	bad := []wlog.InstanceID{forged}
	alerts := []triage.Alert{{Bad: bad}, {Bad: bad}, {Bad: []wlog.InstanceID{forged, accusable}}, {Bad: []wlog.InstanceID{accusable}}}
	vals["triage.partition_us"] = usOf(medianDur(tr, parent, "triage.partition", walkSamples, func() { _ = triage.Partition(g, alerts) }))

	var an *recovery.Analysis
	vals["recovery.analyze_ms"] = msOf(medianDur(tr, parent, "recovery.analyze", 3, func() { an = recovery.AnalyzeGraph(g, log, specs, bad) }))
	vals["recovery.closure_ms"] = msOf(medianDur(tr, parent, "recovery.closure", 3, func() {
		_ = recovery.DamageKeyClosure(log, specs, an.WorstCaseUndo(), bad)
	}))
	var serr error
	vals["recovery.schedule_ms"] = msOf(medianDur(tr, parent, "recovery.schedule", 3, func() {
		_, serr = recovery.ScheduleDAG(log, an).Linearize()
	}))
	if serr != nil {
		return fmt.Errorf("recovery schedule: %w", serr)
	}

	// The repair the shard layer would run: scoped to the damage, pinned to
	// the snapshot's epoch, one worker per shard. RepairGraph clones the
	// store; the live one is not modified.
	opts := recovery.Options{ScopeToDamage: true, Epoch: g.Epoch(), Parallel: 4}
	var res *recovery.Result
	var rerr error
	repair := medianDur(tr, parent, "recovery.repair", 3, func() {
		res, rerr = recovery.RepairGraph(g, store, log, specs, bad, opts)
	})
	if rerr != nil {
		return fmt.Errorf("recovery repair: %w", rerr)
	}
	vals["recovery.repair_ms"] = msOf(repair)
	vals["recovery.repair_analyze_ms"] = msOf(res.Phases.Analyze)
	vals["recovery.undo_ms"] = msOf(res.Phases.Undo)
	vals["recovery.redo_ms"] = msOf(res.Phases.Redo)
	vals["recovery.components"] = float64(res.Components)
	vals["recovery.useful_ratio"] = ratio(float64(len(res.Undone)+len(res.Redone)), vals["recovery.log_entries"])
	return nil
}

// obsOverhead is the tracing overhead: the same closed-loop burst against two
// fresh in-memory services, one with an obs.Registry attached and one without,
// alternated, as 1 − traced/untraced runs per second. A burst is a quarter of
// the workload's tenants committing 64 runs each.
func obsOverhead(ctx context.Context, res *resources, cfg runConfig) (float64, error) {
	const perTenant, rounds = 64, 3
	tenants := max(1, cfg.plan.tenants/4)
	var rate [2][]float64
	for round := 0; round < rounds; round++ {
		for side := 0; side < 2; side++ {
			in, err := generate(cfg.seed, "o", repeat(perTenant, tenants), false)
			if err != nil {
				return 0, err
			}
			var reg *obs.Registry
			if side == 1 {
				reg = obs.NewRegistry()
			}
			dep, err := bootShard(res, shardConfig(shard.FaultInjection{}, 0), "", reg)
			if err != nil {
				return 0, err
			}
			c := newClient(dep.url, cfg.conns, nil)
			sr, err := sat(ctx, c, in.tenants, perTenant, cfg.conns*inflightPerConn)
			c.close()
			dep.close()
			if err != nil {
				return 0, err
			}
			rate[side] = append(rate[side], sr.runsPerSec())
		}
	}
	return 1 - quantile(rate[1], 0.5)/quantile(rate[0], 0.5), nil
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
