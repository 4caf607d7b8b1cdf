package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/engine"
	"selfheal/internal/machine"
	"selfheal/internal/obs"
	"selfheal/internal/selfheal"
	"selfheal/internal/stg"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// chainSpec builds a linear workflow of n tasks: task i reads the key task
// i-1 wrote and writes "<name>.k<i>". Each compute optionally sleeps,
// modelling a service call, and is value-sensitive (sums its reads) so
// corruption propagates visibly.
func chainSpec(name string, n int, delay time.Duration) *wf.Spec {
	b := wf.NewBuilder(name, "t1")
	key := func(i int) data.Key { return data.Key(fmt.Sprintf("%s.k%d", name, i)) }
	for i := 1; i <= n; i++ {
		id := wf.TaskID(fmt.Sprintf("t%d", i))
		tb := b.Task(id).Writes(key(i))
		if i > 1 {
			tb.Reads(key(i - 1))
		}
		bias := data.Value(i)
		sum := wf.SumCompute(bias, key(i))
		tb.Compute(func(reads map[data.Key]data.Value) map[data.Key]data.Value {
			if delay > 0 {
				time.Sleep(delay)
			}
			return sum(reads)
		})
		if i < n {
			tb.Then(wf.TaskID(fmt.Sprintf("t%d", i+1)))
		}
	}
	return b.MustBuild()
}

// sharedSpec is chainSpec over a key namespace shared by every run using it:
// runs built from it have overlapping footprints and must land on one shard.
func sharedSpec(group string, n int) *wf.Spec { return chainSpec(group, n, 0) }

func startService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Stop)
	return svc
}

func waitIdle(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v (state %v)", err, svc.State())
	}
}

// verifySerialInLSNOrder replays the log on a fresh store and checks that
// every entry's recorded reads name exactly the values the serial replay
// exposes — i.e. the concurrent execution is equivalent to the serial
// execution in LSN order.
func verifySerialInLSNOrder(t *testing.T, log *wlog.Log) *data.Store {
	t.Helper()
	st := data.NewStore()
	for _, e := range log.Entries() {
		for _, obs := range e.Reads {
			k := obs.Key
			var cur data.Value
			if v, ok := st.Get(k); ok {
				cur = v.Value
			}
			if cur != obs.Value {
				t.Errorf("%s (LSN %d) read %s=%d, serial replay has %d — not serializable",
					e.ID(), e.LSN, k, obs.Value, cur)
			}
		}
		for _, w := range e.Writes {
			st.Write(w.Key, w.Value, float64(e.LSN), string(e.ID()), false)
		}
	}
	return st
}

// testExecutor returns an unstarted executor over a fresh machine.
func testExecutor(shards int) *executor {
	m := machine.New(engine.New(data.NewStore(), wlog.New()), wf.NewInterner())
	return newExecutor(m, &pipeline{eng: m.Engine()}, shards)
}

// submitTo registers a run with x's machine and submits it, as
// Service.register does.
func submitTo(x *executor, id string, spec *wf.Spec) error {
	r, err := x.m.Register(id, spec)
	if err != nil {
		return err
	}
	if err := x.submit(&r.Run, false); err != nil {
		x.m.Unregister(id)
		return err
	}
	return nil
}

// TestDispatcherPlacement exercises the key-ownership rules deterministically
// against an unstarted executor (no workers consume the inboxes).
func TestDispatcherPlacement(t *testing.T) {
	x := testExecutor(2)

	if err := submitTo(x, "A", chainSpec("a", 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := submitTo(x, "B", chainSpec("b", 3, 0)); err != nil {
		t.Fatal(err)
	}
	if x.runs["A"].shard == x.runs["B"].shard {
		t.Fatalf("disjoint runs on the same shard %d despite free capacity", x.runs["A"].shard)
	}

	// C overlaps A: must land on A's shard, not the least-loaded one.
	specAC := chainSpec("a", 3, 0)
	if err := submitTo(x, "C", specAC); err != nil {
		t.Fatal(err)
	}
	if got, want := x.runs["C"].shard, x.runs["A"].shard; got != want {
		t.Fatalf("overlapping run C on shard %d, want A's shard %d", got, want)
	}

	// D overlaps both shards: no sound placement, deferred.
	mixed := wf.NewBuilder("m", "t1").
		Task("t1").Reads("a.k3", "b.k3").Writes("m.k1").Compute(wf.SumCompute(1, "m.k1")).
		End().MustBuild()
	if err := submitTo(x, "D", mixed); err != nil {
		t.Fatal(err)
	}
	if x.runs["D"].state != RunDeferred {
		t.Fatalf("cross-shard run D state %v, want deferred", x.runs["D"].state)
	}
	// Fill the rest of the deferred queue with runs reading both shards'
	// keys; E conflicts too and finds the queue full.
	for i := 1; i < deferMax; i++ {
		id := fmt.Sprintf("F%d", i)
		fill := wf.NewBuilder(id, "t1").
			Task("t1").Reads("a.k2", "b.k2").Writes(data.Key(id + ".k1")).Compute(wf.SumCompute(1, data.Key(id+".k1"))).
			End().MustBuild()
		if err := submitTo(x, id, fill); err != nil {
			t.Fatal(err)
		}
	}
	mixed2 := wf.NewBuilder("m2", "t1").
		Task("t1").Reads("a.k1", "b.k1").Writes("m2.k1").Compute(wf.SumCompute(1, "m2.k1")).
		End().MustBuild()
	if err := submitTo(x, "E", mixed2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit E: err = %v, want ErrQueueFull", err)
	}
	if err := submitTo(x, "A", chainSpec("a", 3, 0)); !errors.Is(err, engine.ErrRunExists) {
		t.Fatalf("duplicate submit: err = %v, want ErrRunExists", err)
	}

	// Retiring A and C frees the "a.*" keys: D becomes placeable on B's
	// shard (sole remaining owner of "b.*").
	x.finish(x.runs["A"], RunDone, nil)
	x.finish(x.runs["C"], RunDone, nil)
	if got, want := x.runs["D"].state, RunActive; got != want {
		t.Fatalf("deferred run D state %v after keys freed, want %v", got, want)
	}
	if got, want := x.runs["D"].shard, x.runs["B"].shard; got != want {
		t.Fatalf("redispatched run D on shard %d, want B's shard %d", got, want)
	}
}

// TestPlacementSpreadsTies: disjoint runs that arrive and finish one at a
// time find every shard equally idle, and the tie must not go to shard 0
// each time. 64 of them over 4 shards give every shard at least 8.
func TestPlacementSpreadsTies(t *testing.T) {
	x := testExecutor(4)
	per := make([]int, 4)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("run-%d", i)
		if err := submitTo(x, id, chainSpec(id, 2, 0)); err != nil {
			t.Fatal(err)
		}
		rs := x.runs[id]
		per[rs.shard]++
		x.finish(rs, RunDone, nil)
	}
	for shard, n := range per {
		if n < 8 {
			t.Fatalf("shard %d got %d of 64 runs placed one at a time (per shard: %v), want at least 8 each", shard, n, per)
		}
	}
}

// TestShardedSerializable runs a mixed workload (disjoint-key runs plus runs
// sharing a key namespace) across 4 shards and proves the three acceptance
// properties: the log is serializable in LSN order, the final store equals
// the serial replay, and the batch-built dependence graph agrees with the
// incrementally maintained one.
func TestShardedSerializable(t *testing.T) {
	svc := startService(t, Config{Shards: 4})
	const chain = 12
	var ids []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("solo%d", i)
		if err := svc.SubmitRun(id, chainSpec(id, chain, 0)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for g := 0; g < 2; g++ {
		for r := 0; r < 2; r++ {
			id := fmt.Sprintf("grp%d-%d", g, r)
			if err := svc.SubmitRun(id, sharedSpec(fmt.Sprintf("shared%d", g), chain)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	waitIdle(t, svc)

	for _, id := range ids {
		info, err := svc.RunInfo(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != "done" {
			t.Fatalf("run %s status %q (error %q), want done", id, info.Status, info.Error)
		}
	}
	if got, want := svc.Log().Len(), 10*chain; got != want {
		t.Fatalf("log has %d entries, want %d", got, want)
	}

	replay := verifySerialInLSNOrder(t, svc.Log())
	if !data.Equal(replay, svc.Store()) {
		t.Fatalf("final store differs from serial LSN-order replay:\n%s", data.Diff(replay, svc.Store()))
	}

	batch := deps.Build(svc.Log())
	inc := svc.graph.Snapshot()
	if batch.Epoch() != inc.Epoch() {
		t.Fatalf("graph epochs differ: batch %d vs incremental %d", batch.Epoch(), inc.Epoch())
	}
	type edges func(*deps.Graph) []deps.Edge
	for name, get := range map[string]edges{
		"flow":   (*deps.Graph).Flow,
		"anti":   (*deps.Graph).Anti,
		"output": (*deps.Graph).Output,
	} {
		b, i := get(batch), get(inc)
		if len(b) != len(i) {
			t.Fatalf("%s edge counts differ: batch %d vs incremental %d", name, len(b), len(i))
		}
		for j := range b {
			if b[j] != i[j] {
				t.Fatalf("%s edge %d differs: batch %v vs incremental %v", name, j, b[j], i[j])
			}
		}
	}

	m := svc.Metrics()
	if m.CommitEntries != 10*chain || m.CommitBatches != m.CommitEntries {
		t.Fatalf("commit pipeline accounting: %d entries in %d batches, want %d in as many", m.CommitEntries, m.CommitBatches, 10*chain)
	}
	if m.RunsCompleted != len(ids) || m.NormalSteps != 10*chain {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestSubmitAndLookupErrors checks the typed sentinels the API layer maps to
// status codes.
func TestSubmitAndLookupErrors(t *testing.T) {
	svc := startService(t, Config{Shards: 2})
	bad := &wf.Spec{Name: "bad", Start: "missing", Tasks: nil}
	if err := svc.SubmitRun("r", bad); !errors.Is(err, engine.ErrBadSpec) {
		t.Fatalf("bad spec: err = %v, want ErrBadSpec", err)
	}
	if err := svc.SubmitRun("r1", chainSpec("r1", 3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := svc.SubmitRun("r1", chainSpec("r1", 3, 0)); !errors.Is(err, engine.ErrRunExists) {
		t.Fatalf("dup run: err = %v, want ErrRunExists", err)
	}
	if _, err := svc.RunInfo("nope"); !errors.Is(err, engine.ErrUnknownRun) {
		t.Fatalf("unknown run: err = %v, want ErrUnknownRun", err)
	}
	if err := svc.Report([]wlog.InstanceID{"ghost/t1#1"}); !errors.Is(err, engine.ErrUnknownRun) {
		t.Fatalf("unknown instance alert: err = %v, want ErrUnknownRun", err)
	}
	if err := svc.Report([]wlog.InstanceID{"ghost:t1:1"}); !errors.Is(err, engine.ErrBadSpec) {
		t.Fatalf("malformed instance alert: err = %v, want ErrBadSpec", err)
	}
	if err := svc.Report(nil); !errors.Is(err, engine.ErrBadSpec) {
		t.Fatalf("empty alert: err = %v, want ErrBadSpec", err)
	}
	waitIdle(t, svc)
}

// TestAlertBackpressure fills the bounded alert queue and checks the drop
// accounting: the overflowing Report returns ErrQueueFull and is counted
// lost, matching the CTMC loss edge.
func TestAlertBackpressure(t *testing.T) {
	svc, err := New(Config{Shards: 1, AlertBuf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	if err := svc.SubmitRun("r1", chainSpec("r1", 3, 0)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	// Stop the service: the recovery worker no longer drains the queue, so
	// the bound is observable deterministically.
	svc.Stop()
	inst := wlog.FormatInstance("r1", "t1", 1)
	for i := 0; i < 2; i++ {
		if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if err := svc.Report([]wlog.InstanceID{inst}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow report: err = %v, want ErrQueueFull", err)
	}
	m := svc.Metrics()
	if m.AlertsReported != 3 || m.AlertsLost != 1 {
		t.Fatalf("drop accounting: reported %d lost %d, want 3/1", m.AlertsReported, m.AlertsLost)
	}
	if svc.State() != stg.Scan {
		t.Fatalf("state %v with alerts queued, want SCAN", svc.State())
	}
}

// TestDeferredBackpressure drives the bounded deferred queue to rejection
// with live workers: two slow runs pin disjoint namespaces to two shards,
// deferMax cross-namespace runs defer, the next one is rejected with
// ErrQueueFull.
func TestDeferredBackpressure(t *testing.T) {
	svc := startService(t, Config{Shards: 2})
	if err := svc.SubmitRun("A", chainSpec("a", 30, 2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := svc.SubmitRun("B", chainSpec("b", 30, 2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mixed := func(name string) *wf.Spec {
		return wf.NewBuilder(name, "t1").
			Task("t1").Reads("a.k30", "b.k30").Writes(data.Key(name + ".k1")).
			Compute(wf.SumCompute(1, data.Key(name+".k1"))).
			End().MustBuild()
	}
	for i := 0; i < deferMax; i++ {
		id := fmt.Sprintf("C%d", i)
		if err := svc.SubmitRun(id, mixed(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
		if info, err := svc.RunInfo(id); err != nil || info.Status != "deferred" {
			t.Fatalf("run %s: info %+v err %v, want deferred", id, info, err)
		}
	}
	if err := svc.SubmitRun("D", mixed("d")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit D: err = %v, want ErrQueueFull", err)
	}
	waitIdle(t, svc)
	// The deferred runs must eventually have been placed and completed —
	// reading the final values both A and B produced.
	for i := 0; i < deferMax; i++ {
		id := fmt.Sprintf("C%d", i)
		if info, err := svc.RunInfo(id); err != nil || info.Status != "done" {
			t.Fatalf("run %s after drain: info %+v err %v, want done", id, info, err)
		}
	}
	verifySerialInLSNOrder(t, svc.Log())
}

// benignSnapshot computes the attack-free final values of the given specs by
// serial execution.
func benignSnapshot(t *testing.T, specs map[string]*wf.Spec) map[data.Key]data.Value {
	t.Helper()
	eng := engine.New(data.NewStore(), wlog.New())
	var runs []*engine.Run
	for id, sp := range specs {
		r, err := eng.NewRun(id, sp)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	if err := eng.RunAll(context.Background(), runs...); err != nil {
		t.Fatal(err)
	}
	return eng.Store().Snapshot()
}

// runRecoveryEquivalence drives the same attacked workload through the
// sharded service (alert delivered mid-flight) and through the single-
// threaded selfheal.System (alert after completion), and requires all three
// final stores — sharded, single-threaded, benign — to agree: recovery under
// sharded concurrency is equivalent to the serial loop.
func runRecoveryEquivalence(t *testing.T, strict bool) {
	specs := map[string]*wf.Spec{}
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("w%d", i)
		specs[id] = chainSpec(id, 10, 500*time.Microsecond)
	}
	attack := engine.Attack{
		Run: "w0", Task: "t3", Visit: 1,
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"w0.k3": 9999}
		},
	}
	badInst := wlog.FormatInstance(attack.Run, attack.Task, attack.Visit)

	// Sharded, attacked, alerted while runs are still stepping.
	svc := startService(t, Config{Shards: 4, Strict: strict})
	svc.Engine().AddAttack(attack)
	for id, sp := range specs {
		if err := svc.SubmitRun(id, sp); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := svc.Log().Get(badInst); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attacked instance never committed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := svc.Report([]wlog.InstanceID{badInst}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	m := svc.Metrics()
	if m.UnitsExecuted < 1 || m.RecoveryErrors > 0 {
		t.Fatalf("recovery did not execute cleanly: %+v (last err %v)", m, svc.LastRecoveryError())
	}

	// Single-threaded reference: same specs, same attack, alert after the
	// runs complete, drained by the Tick state machine.
	ref, err := selfheal.New(selfheal.Config{AlertBuf: 4, RecoveryBuf: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.Engine().AddAttack(attack)
	for id, sp := range specs {
		if err := ref.StartRun(id, sp); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := ref.RunToCompletion(ctx, 10000); err != nil {
		t.Fatal(err)
	}
	if !ref.Report(selfheal.Alert{Bad: []wlog.InstanceID{badInst}}) {
		t.Fatal("reference alert lost")
	}
	if err := ref.DrainRecovery(ctx, 10000); err != nil {
		t.Fatal(err)
	}

	want := benignSnapshot(t, specs)
	for name, got := range map[string]map[data.Key]data.Value{
		"sharded":         svc.Store().Snapshot(),
		"single-threaded": ref.Store().Snapshot(),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s final store has %d keys, want %d", name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s: %s = %d after recovery, benign value is %d", name, k, got[k], v)
			}
		}
	}
}

func TestRecoveryEquivalenceStrict(t *testing.T)     { runRecoveryEquivalence(t, true) }
func TestRecoveryEquivalenceConcurrent(t *testing.T) { runRecoveryEquivalence(t, false) }

// TestCleanShardsServeDuringRecovery is the §IV partial-quiescence property:
// while a slow repair replays a damaged component, a new run on clean keys is
// accepted AND completes with the service still in RECOVERY, while a new run
// touching the damaged keys is deferred until the repair lands — and the
// final store matches the ordered attack-free execution.
func TestCleanShardsServeDuringRecovery(t *testing.T) {
	svc := startService(t, Config{Shards: 2})
	// The damaged chain's computes sleep, so the repair's replay holds
	// RECOVERY open long enough to observe concurrent service.
	specD := chainSpec("d1", 10, 25*time.Millisecond)
	svc.Engine().AddAttack(engine.Attack{
		Run: "d1", Task: "t2", Visit: 1,
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"d1.k2": 9999}
		},
	})
	if err := svc.SubmitRun("d1", specD); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)

	if err := svc.Report([]wlog.InstanceID{wlog.FormatInstance("d1", "t2", 1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.State() != stg.Recovery {
		if time.Now().After(deadline) {
			t.Fatal("service never entered RECOVERY")
		}
		time.Sleep(100 * time.Microsecond)
	}

	specC := chainSpec("c1", 4, 0)
	if err := svc.SubmitRun("c1", specC); err != nil {
		t.Fatal(err)
	}
	specX := wf.NewBuilder("x", "t1").
		Task("t1").Reads("d1.k10").Writes("x.k1").Compute(wf.SumCompute(1, "x.k1")).
		End().MustBuild()
	if err := svc.SubmitRun("x1", specX); err != nil {
		t.Fatal(err)
	}

	for {
		info, err := svc.RunInfo("c1")
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clean run c1 stuck %q mid-recovery", info.Status)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := svc.State(); got != stg.Recovery {
		t.Fatalf("state %v after the clean run completed, want RECOVERY still active", got)
	}
	if info, err := svc.RunInfo("x1"); err != nil || info.Status != "deferred" {
		t.Fatalf("damaged-key run x1 mid-recovery: info %+v err %v, want deferred", info, err)
	}

	waitIdle(t, svc)
	if info, err := svc.RunInfo("x1"); err != nil || info.Status != "done" {
		t.Fatalf("run x1 after drain: info %+v err %v, want done", info, err)
	}
	m := svc.Metrics()
	if m.UnitsExecuted < 1 || m.RecoveryErrors > 0 {
		t.Fatalf("recovery accounting: %+v (last err %v)", m, svc.LastRecoveryError())
	}

	// Ordered attack-free reference: d1 alone first (x1 reads its final
	// key), then c1 and x1.
	ref := engine.New(data.NewStore(), wlog.New())
	ctx := context.Background()
	rd, err := ref.NewRun("d1", specD)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunAll(ctx, rd); err != nil {
		t.Fatal(err)
	}
	rc, err := ref.NewRun("c1", specC)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := ref.NewRun("x1", specX)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunAll(ctx, rc, rx); err != nil {
		t.Fatal(err)
	}
	want := ref.Store().Snapshot()
	got := svc.Store().Snapshot()
	if len(got) != len(want) {
		t.Fatalf("final store has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d after recovery, ordered benign value is %d", k, got[k], v)
		}
	}
}

// TestForgedInjectionRecovery injects a forged task through the commit
// pipeline of a live sharded service, reports it, and checks the repair
// restores the benign values while later runs proceed.
func TestForgedInjectionRecovery(t *testing.T) {
	specs := map[string]*wf.Spec{"v1": chainSpec("v1", 8, 0)}
	svc := startService(t, Config{Shards: 2})
	if err := svc.SubmitRun("v1", specs["v1"]); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	inst, err := svc.InjectForged("intruder", "evil", []data.Key{"v1.k8"},
		map[data.Key]data.Value{"v1.k8": -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	want := benignSnapshot(t, specs)
	got := svc.Store().Snapshot()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d after forged-injection recovery, benign value is %d", k, got[k], v)
		}
	}
	if m := svc.Metrics(); m.Undone < 1 {
		t.Fatalf("forged instance not undone: %+v", m)
	}
}

// TestRepairPhasesObserved runs one incident on an observed service and
// finds the analysis and every repair phase measured: the analyzer stage
// times its one analysis, and the repair tally records the repair's
// analyze, undo and redo phases, its components and its workers.
func TestRepairPhasesObserved(t *testing.T) {
	svc, err := New(Config{Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc.Observe(reg)
	svc.Start()
	t.Cleanup(svc.Stop)
	if err := svc.SubmitRun("v1", chainSpec("v1", 4, 0)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	if err := svc.Report([]wlog.InstanceID{"v1/t2#1"}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	snap := reg.Snapshot()
	for _, h := range []string{obs.MAnalyzeSeconds, obs.MRepairAnalyzeSeconds, obs.MRepairUndoSeconds,
		obs.MRepairRedoSeconds, obs.MRepairComponents, obs.MRepairWorkers} {
		if n := snap[h+"_count"]; n != 1 {
			t.Errorf("%s observed %v times, want once", h, n)
		}
	}
	if m := svc.Metrics(); m.UnitsExecuted != 1 || m.Undone < 1 || snap[obs.MUndone] != float64(m.Undone) {
		t.Errorf("metrics %+v, %v undone observed", m, snap[obs.MUndone])
	}
}

// TestConcurrentReportStress hammers Report from many goroutines while the
// shards execute and recovery drains — the -race proof that alert delivery,
// state classification and metrics are goroutine-safe.
func TestConcurrentReportStress(t *testing.T) {
	svc := startService(t, Config{Shards: 4, AlertBuf: 4})
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := svc.SubmitRun(id, chainSpec(id, 20, 200*time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	inst := wlog.FormatInstance("s0", "t1", 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := svc.Log().Get(inst); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first instance never committed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	done := make(chan int)
	for g := 0; g < 8; g++ {
		go func() {
			delivered := 0
			for i := 0; i < 25; i++ {
				err := svc.Report([]wlog.InstanceID{inst})
				switch {
				case err == nil:
					delivered++
				case errors.Is(err, ErrQueueFull):
				default:
					t.Errorf("report: %v", err)
				}
				svc.State()
				svc.Metrics()
				svc.QueueLengths()
			}
			done <- delivered
		}()
	}
	delivered := 0
	for g := 0; g < 8; g++ {
		delivered += <-done
	}
	waitIdle(t, svc)
	m := svc.Metrics()
	if m.AlertsReported != 200 || m.AlertsAnalyzed != delivered || m.AlertsLost != 200-delivered {
		t.Fatalf("alert accounting: %+v, delivered %d", m, delivered)
	}
	if m.UnitsExecuted != delivered || m.RecoveryErrors > 0 {
		t.Fatalf("units executed %d want %d (errors %d, last %v)",
			m.UnitsExecuted, delivered, m.RecoveryErrors, svc.LastRecoveryError())
	}
}

// TestTriageStormConverges floods the service with one forged instance's
// alert fifty times over with the full triage front-end on (coalescing,
// prefilter, dedupe). The storm must fold into a small number of damage-cone
// analyses — nothing lost, duplicates absorbed at admission — while recovery
// still converges to the benign state.
func TestTriageStormConverges(t *testing.T) {
	specs := map[string]*wf.Spec{"v1": chainSpec("v1", 8, 0)}
	svc := startService(t, Config{Shards: 2, AlertBuf: 64, Triage: triage.All()})
	if err := svc.SubmitRun("v1", specs["v1"]); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	inst, err := svc.InjectForged("intruder", "evil", []data.Key{"v1.k8"},
		map[data.Key]data.Value{"v1.k8": -1})
	if err != nil {
		t.Fatal(err)
	}
	const storm = 50
	alerts := make([]triage.Alert, storm)
	for i := range alerts {
		alerts[i] = triage.Alert{Bad: []wlog.InstanceID{inst}}
	}
	admitted, dropped, err := svc.ReportAlerts(alerts)
	if err != nil {
		t.Fatal(err)
	}
	if admitted != storm || dropped != 0 {
		t.Fatalf("admission under dedupe: admitted %d dropped %d, want %d/0",
			admitted, dropped, storm)
	}
	waitIdle(t, svc)

	want := benignSnapshot(t, specs)
	got := svc.Store().Snapshot()
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d after storm recovery, benign value is %d", k, got[k], v)
		}
	}
	m := svc.Metrics()
	if m.AlertsReported != storm || m.AlertsLost != 0 {
		t.Fatalf("storm accounting: reported %d lost %d, want %d/0",
			m.AlertsReported, m.AlertsLost, storm)
	}
	if m.AlertsDeduped == 0 {
		t.Error("no Report-time absorptions in a pure-duplicate storm")
	}
	if m.ConesAnalyzed == 0 || m.ConesAnalyzed*5 > storm {
		t.Errorf("storm did not fold: %d cone analyses for %d alerts (want ≥5× fold)",
			m.ConesAnalyzed, storm)
	}
	if m.Undone < 1 {
		t.Fatalf("forged instance not undone: %+v", m)
	}
}
