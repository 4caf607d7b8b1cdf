// Benchmark harness: one benchmark per reproduced table/figure of the
// paper's evaluation (§V), plus scaling benchmarks for the recovery analyzer
// and repair engine and a baseline comparison. Domain results (loss
// probabilities, undo/redo set sizes, discarded work) are attached to each
// benchmark via ReportMetric so `go test -bench` output doubles as the
// experiment record; EXPERIMENTS.md catalogs the series themselves
// (regenerate with cmd/ctmc-solve).
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"selfheal/internal/baseline"
	"selfheal/internal/campaign"
	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/design"
	"selfheal/internal/engine"
	"selfheal/internal/figures"
	"selfheal/internal/rates"
	"selfheal/internal/recovery"
	"selfheal/internal/rtsim"
	"selfheal/internal/scenario"
	"selfheal/internal/selfheal"
	"selfheal/internal/shard"
	"selfheal/internal/sim"
	"selfheal/internal/stg"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// benchFigure regenerates one paper figure per iteration and reports a
// headline number from it.
func benchFigure(b *testing.B, id string, series string, pick func([]float64) float64) {
	b.Helper()
	var headline float64
	for i := 0; i < b.N; i++ {
		fig, err := figures.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.Series {
			if s.Name == series {
				headline = pick(s.Y)
			}
		}
	}
	// ReportMetric rejects units containing whitespace.
	unit := strings.ReplaceAll(series, " ", "_") + "/headline"
	b.ReportMetric(headline, unit)
}

func last(y []float64) float64 { return y[len(y)-1] }

func minOf(y []float64) float64 {
	m := y[0]
	for _, v := range y {
		if v < m {
			m = v
		}
	}
	return m
}

// Figure 4: loss probability vs buffer size (§V.A.1).

func BenchmarkFig4aSlowDegradation(b *testing.B) {
	benchFigure(b, "4a", "f=g=sqrt", last) // loss at buffer 30: keeps falling
}

func BenchmarkFig4bLinearDegradation(b *testing.B) {
	benchFigure(b, "4b", "f=g=linear", minOf) // the interior optimum
}

func BenchmarkFig4cFastDegradation(b *testing.B) {
	benchFigure(b, "4c", "f=g=quad", minOf)
}

func BenchmarkFig4dMuFasterThanXi(b *testing.B) {
	benchFigure(b, "4d", "f=quad g=linear", minOf)
}

// Figure 5: steady-state sweeps (§V.A.2, Cases 2-4).

func BenchmarkFig5aLambdaSweepProbabilities(b *testing.B) {
	benchFigure(b, "5a", "loss probability", last) // loss at λ=4
}

func BenchmarkFig5bLambdaSweepExpectations(b *testing.B) {
	benchFigure(b, "5b", "E[recovery units]", last)
}

func BenchmarkFig5cMuSweepProbabilities(b *testing.B) {
	benchFigure(b, "5c", "P(NORMAL)", last) // P(NORMAL) at μ₁=20
}

func BenchmarkFig5dMuSweepExpectations(b *testing.B) {
	benchFigure(b, "5d", "E[alerts]", last)
}

func BenchmarkFig5eXiSweepProbabilities(b *testing.B) {
	benchFigure(b, "5e", "P(NORMAL)", last)
}

func BenchmarkFig5fXiSweepExpectations(b *testing.B) {
	benchFigure(b, "5f", "E[recovery units]", last)
}

// Figure 6: transient behavior (§V.B, Cases 5-6).

func BenchmarkFig6aGoodSystemTransient(b *testing.B) {
	benchFigure(b, "6a", "P(NORMAL)", last) // P(NORMAL) at t=4
}

func BenchmarkFig6bGoodSystemCumulative(b *testing.B) {
	benchFigure(b, "6b", "time in NORMAL", last)
}

func BenchmarkFig6cPoorSystemTransient(b *testing.B) {
	benchFigure(b, "6c", "loss probability", last) // loss at t=100 ∈ [0.9,1]
}

func BenchmarkFig6dPoorSystemCumulative(b *testing.B) {
	benchFigure(b, "6d", "time at right edge", last)
}

// Figure 1: the worked recovery example (§I, §III.B).

func BenchmarkFig1Recovery(b *testing.B) {
	attacked, err := scenario.Fig1(true)
	if err != nil {
		b.Fatal(err)
	}
	var res *recovery.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Undone)), "undone")
	b.ReportMetric(float64(len(res.Redone)), "redone")
	b.ReportMetric(float64(len(res.NewExecuted)), "new")
}

// CTMC engine primitives.

func BenchmarkSteadyStateBuffer15(b *testing.B) {
	m, err := stg.New(stg.Square(1, 15, 20, 15))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateBuffer30(b *testing.B) {
	m, err := stg.New(stg.Square(1, 15, 20, 30))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransientUniformization(b *testing.B) {
	m, err := stg.New(stg.Square(1, 2, 3, 15))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Transient(100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCumulativeTime(b *testing.B) {
	m, err := stg.New(stg.Square(1, 2, 3, 15))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CumulativeTime(100); err != nil {
			b.Fatal(err)
		}
	}
}

// §V validation: discrete-event simulation vs analytic steady state.

func BenchmarkSimVsCTMC(b *testing.B) {
	p := stg.Square(1, 15, 20, 8)
	m, err := stg.New(p)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := m.SteadyState()
	if err != nil {
		b.Fatal(err)
	}
	var tv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(p, 5000, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		tv = sim.TotalVariation(res.Distribution(m), ss)
	}
	b.ReportMetric(tv, "total-variation")
}

// Recovery engine scaling: analyzer (μ) and repair (ξ) cost vs workload
// size — the quantities §VI says to measure when designing a system.

func benchRepairScale(b *testing.B, tasks, runs int) {
	cfg := scenario.RandomConfig{
		Runs:    runs,
		Gen:     wf.GenConfig{Tasks: tasks, Keys: tasks / 2, MaxReads: 3, BranchProb: 0.35},
		Attacks: 2,
		Forged:  1,
	}
	attacked, err := scenario.Random(11, cfg, true)
	if err != nil {
		b.Fatal(err)
	}
	var res *recovery.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(attacked.Log().Len()), "log-entries")
	b.ReportMetric(float64(len(res.Undone)), "undone")
}

func BenchmarkRepairSmall(b *testing.B)  { benchRepairScale(b, 10, 2) }
func BenchmarkRepairMedium(b *testing.B) { benchRepairScale(b, 20, 4) }
func BenchmarkRepairLarge(b *testing.B)  { benchRepairScale(b, 40, 8) }

func BenchmarkAnalyzeMedium(b *testing.B) {
	cfg := scenario.RandomConfig{
		Runs:    4,
		Gen:     wf.GenConfig{Tasks: 20, Keys: 10, MaxReads: 3, BranchProb: 0.35},
		Attacks: 2,
		Forged:  1,
	}
	attacked, err := scenario.Random(11, cfg, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recovery.Analyze(attacked.Log(), attacked.Specs, attacked.Bad)
	}
}

// Incremental dependence analysis (the perf tentpole): per-alert damage
// assessment over the commit-time-maintained IncrementalGraph snapshot vs
// the batch path that rescans the whole log. The Batch/Incremental pairs
// share identical synthetic logs; EXPERIMENTS.md records the measured ratio.

// buildBenchLog commits n synthetic entries over a 256-key pool: entry i
// (run br(i%64), task n(i/64)) reads key (13i+7)%256 observing its latest
// writer and overwrites key (17i+3)%256, producing long tangled writer
// chains with nontrivial flow, anti and output dependence. The reported bad
// instance sits mid-log so the damage cone is realistic, not degenerate.
func buildBenchLog(b *testing.B, n int) (*wlog.Log, []wlog.InstanceID) {
	b.Helper()
	const keys = 256
	l := wlog.New()
	lastW := make([]string, keys)
	lastPos := make([]float64, keys)
	var bad []wlog.InstanceID
	for i := 0; i < n; i++ {
		e := &wlog.Entry{
			Run:   fmt.Sprintf("br%d", i%64),
			Task:  wf.TaskID(fmt.Sprintf("n%d", i/64)),
			Visit: 1,
		}
		rk := (i*13 + 7) % keys
		obs := wlog.ReadObs{WriterPos: wlog.MissingPos}
		if lastW[rk] != "" {
			obs = wlog.ReadObs{Writer: lastW[rk], WriterPos: lastPos[rk]}
		}
		e.Reads = wlog.ReadsOf(map[data.Key]wlog.ReadObs{data.Key(fmt.Sprintf("k%d", rk)): obs})
		wk := (i*17 + 3) % keys
		e.Writes = wlog.WritesOf(map[data.Key]data.Value{data.Key(fmt.Sprintf("k%d", wk)): data.Value(i)})
		lsn, err := l.Append(e)
		if err != nil {
			b.Fatal(err)
		}
		lastW[wk] = string(e.ID())
		lastPos[wk] = float64(lsn)
		if i == n/2 {
			bad = []wlog.InstanceID{e.ID()}
		}
	}
	return l, bad
}

func benchAnalyzeBatch(b *testing.B, n int) {
	l, bad := buildBenchLog(b, n)
	var an *recovery.Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an = recovery.Analyze(l, nil, bad)
	}
	b.ReportMetric(float64(len(an.DefiniteUndo)), "undo-set")
}

func benchAnalyzeIncremental(b *testing.B, n int) {
	l, bad := buildBenchLog(b, n)
	g := deps.NewIncremental(l) // maintained at commit time; built before the timer
	var an *recovery.Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an = recovery.AnalyzeGraph(g.Snapshot(), l, nil, bad)
	}
	b.ReportMetric(float64(len(an.DefiniteUndo)), "undo-set")
}

func BenchmarkAnalyzeBatch1k(b *testing.B)         { benchAnalyzeBatch(b, 1_000) }
func BenchmarkAnalyzeBatch10k(b *testing.B)        { benchAnalyzeBatch(b, 10_000) }
func BenchmarkAnalyzeBatch100k(b *testing.B)       { benchAnalyzeBatch(b, 100_000) }
func BenchmarkAnalyzeIncremental1k(b *testing.B)   { benchAnalyzeIncremental(b, 1_000) }
func BenchmarkAnalyzeIncremental10k(b *testing.B)  { benchAnalyzeIncremental(b, 10_000) }
func BenchmarkAnalyzeIncremental100k(b *testing.B) { benchAnalyzeIncremental(b, 100_000) }

// The other side of the ledger: what the O(Δ) hook costs each commit.
func BenchmarkIncrementalAppend(b *testing.B) {
	const keys = 256
	l := wlog.New()
	deps.NewIncremental(l)
	lastW := make([]string, keys)
	lastPos := make([]float64, keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &wlog.Entry{
			Run:   fmt.Sprintf("br%d", i%64),
			Task:  wf.TaskID(fmt.Sprintf("n%d", i/64)),
			Visit: 1,
		}
		rk := (i*13 + 7) % keys
		obs := wlog.ReadObs{WriterPos: wlog.MissingPos}
		if lastW[rk] != "" {
			obs = wlog.ReadObs{Writer: lastW[rk], WriterPos: lastPos[rk]}
		}
		e.Reads = wlog.ReadsOf(map[data.Key]wlog.ReadObs{data.Key(fmt.Sprintf("k%d", rk)): obs})
		wk := (i*17 + 3) % keys
		e.Writes = wlog.WritesOf(map[data.Key]data.Value{data.Key(fmt.Sprintf("k%d", wk)): data.Value(i)})
		lsn, err := l.Append(e)
		if err != nil {
			b.Fatal(err)
		}
		lastW[wk] = string(e.ID())
		lastPos[wk] = float64(lsn)
	}
}

// Sharded execution throughput (the concurrency tentpole, §III.D): commit
// throughput of the internal/shard group-commit pipeline as the worker-shard
// count grows. Tasks carry real latency (a sleep in each compute body) the
// way production workflow steps wait on I/O — that wait is what concurrent
// shards overlap, so throughput scales with shards even on a single-core
// host where pure-CPU workloads cannot. EXPERIMENTS.md records the measured
// series and the ≥2× claim at 4 shards.

// benchChainSpec is a key-disjoint linear chain (so runs land on distinct
// shards) whose every task sleeps for delay before writing.
func benchChainSpec(name string, n int, delay time.Duration) *wf.Spec {
	b := wf.NewBuilder(name, "t1")
	for i := 1; i <= n; i++ {
		out := data.Key(fmt.Sprintf("%s.k%d", name, i))
		tb := b.Task(wf.TaskID(fmt.Sprintf("t%d", i))).Writes(out)
		if i > 1 {
			tb.Reads(data.Key(fmt.Sprintf("%s.k%d", name, i-1)))
		}
		if i < n {
			tb.Then(wf.TaskID(fmt.Sprintf("t%d", i+1)))
		}
		step := int64(i)
		tb.Compute(func(in map[data.Key]data.Value) map[data.Key]data.Value {
			time.Sleep(delay)
			var sum data.Value
			for _, v := range in {
				sum += v
			}
			return map[data.Key]data.Value{out: sum + data.Value(step)}
		})
	}
	return b.MustBuild()
}

func benchShardedThroughput(b *testing.B, shards int) {
	const (
		runs      = 8
		chain     = 16
		taskDelay = 200 * time.Microsecond
	)
	var commits int64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := shard.New(shard.Config{Shards: shards, BatchMax: 8}, nil)
		if err != nil {
			b.Fatal(err)
		}
		svc.Start()
		start := time.Now()
		for r := 0; r < runs; r++ {
			name := fmt.Sprintf("w%d", r)
			if err := svc.SubmitRun(name, benchChainSpec(name, chain, taskDelay)); err != nil {
				b.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := svc.WaitIdle(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
		elapsed += time.Since(start)
		m := svc.Metrics()
		if m.CommitEntries != runs*chain {
			b.Fatalf("committed %d entries, want %d", m.CommitEntries, runs*chain)
		}
		commits += int64(m.CommitEntries)
		svc.Stop()
	}
	b.StopTimer()
	b.ReportMetric(float64(commits)/elapsed.Seconds(), "commits/s")
}

func BenchmarkShardedThroughput1(b *testing.B) { benchShardedThroughput(b, 1) }
func BenchmarkShardedThroughput2(b *testing.B) { benchShardedThroughput(b, 2) }
func BenchmarkShardedThroughput4(b *testing.B) { benchShardedThroughput(b, 4) }
func BenchmarkShardedThroughput8(b *testing.B) { benchShardedThroughput(b, 8) }

// Parallel DAG-driven repair (the §IV perf tentpole): 64 key-disjoint
// attacked chains form 64 independent key-footprint components, and the
// component executor replays them over a worker pool. Each compute sleeps —
// replay re-executes the computes, and that wait is what the workers
// overlap, so the executor scales even on a single-core host. EXPERIMENTS.md
// records the serial vs parallel series and the ≥2× claim.

func benchParallelRepairWorkload(b *testing.B) (*engine.Engine, map[string]*wf.Spec, []wlog.InstanceID) {
	b.Helper()
	const (
		runs  = 64
		chain = 4
		delay = time.Millisecond
	)
	eng := engine.New(data.NewStore(), wlog.New())
	specs := map[string]*wf.Spec{}
	var bad []wlog.InstanceID
	var rlist []*engine.Run
	for r := 0; r < runs; r++ {
		name := fmt.Sprintf("p%d", r)
		specs[name] = benchChainSpec(name, chain, delay)
		k1 := data.Key(name + ".k1")
		eng.AddAttack(engine.Attack{
			Run: name, Task: "t1", Visit: 1,
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				return map[data.Key]data.Value{k1: -1}
			},
		})
		run, err := eng.NewRun(name, specs[name])
		if err != nil {
			b.Fatal(err)
		}
		rlist = append(rlist, run)
		bad = append(bad, wlog.FormatInstance(name, "t1", 1))
	}
	if err := eng.RunAll(context.Background(), rlist...); err != nil {
		b.Fatal(err)
	}
	return eng, specs, bad
}

func benchRepairWorkers(b *testing.B, workers int) {
	eng, specs, bad := benchParallelRepairWorkload(b)
	var res *recovery.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = recovery.Repair(eng.Store(), eng.Log(), specs, bad, recovery.Options{Parallel: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Components), "components")
	b.ReportMetric(float64(res.Workers), "workers")
	b.ReportMetric(float64(len(res.Undone)), "undone")
}

func BenchmarkRepairSerial(b *testing.B)    { benchRepairWorkers(b, 0) }
func BenchmarkRepairParallel2(b *testing.B) { benchRepairWorkers(b, 2) }
func BenchmarkRepairParallel4(b *testing.B) { benchRepairWorkers(b, 4) }
func BenchmarkRepairParallel8(b *testing.B) { benchRepairWorkers(b, 8) }

// Mid-recovery service latency (§IV partial quiescence): how long a clean
// run submitted during an in-flight repair takes to complete. Strict mode
// gates every shard for the whole repair; partial quiescence pauses only the
// damaged component's owners, so the clean run's latency is independent of
// the repair duration.

func benchRepairMidRecovery(b *testing.B, strict bool) {
	const delay = 2 * time.Millisecond
	var clean time.Duration
	for i := 0; i < b.N; i++ {
		svc, err := shard.New(shard.Config{Shards: 2, Strict: strict}, nil)
		if err != nil {
			b.Fatal(err)
		}
		svc.Start()
		svc.Engine().AddAttack(engine.Attack{
			Run: "d", Task: "t2", Visit: 1,
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				return map[data.Key]data.Value{"d.k2": -1}
			},
		})
		if err := svc.SubmitRun("d", benchChainSpec("d", 16, delay)); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := svc.WaitIdle(ctx); err != nil {
			b.Fatal(err)
		}
		if err := svc.Report([]wlog.InstanceID{wlog.FormatInstance("d", "t2", 1)}); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for svc.State() != stg.Recovery {
			if time.Now().After(deadline) {
				b.Fatal("service never entered RECOVERY")
			}
			time.Sleep(50 * time.Microsecond)
		}
		start := time.Now()
		name := fmt.Sprintf("c%d", i)
		if err := svc.SubmitRun(name, benchChainSpec(name, 8, 0)); err != nil {
			b.Fatal(err)
		}
		for {
			info, err := svc.RunInfo(name)
			if err != nil {
				b.Fatal(err)
			}
			if info.Status == "done" {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("clean run stuck %q mid-recovery", info.Status)
			}
			time.Sleep(50 * time.Microsecond)
		}
		clean += time.Since(start)
		if err := svc.WaitIdle(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
		if m := svc.Metrics(); m.RecoveryErrors > 0 {
			b.Fatalf("recovery failed: %v", svc.LastRecoveryError())
		}
		svc.Stop()
	}
	b.ReportMetric(clean.Seconds()/float64(b.N)*1e3, "clean-run-ms")
}

func BenchmarkRepairMidRecoveryPartial(b *testing.B) { benchRepairMidRecovery(b, false) }
func BenchmarkRepairMidRecoveryStrict(b *testing.B)  { benchRepairMidRecovery(b, true) }

// Baseline comparison (§I, §VII): dependency-based recovery vs
// checkpoint/rollback on the same attacked history. The reported metrics
// show rollback discarding far more committed work than recovery undoes.

func BenchmarkBaselineVsRecovery(b *testing.B) {
	cfg := scenario.RandomConfig{
		Runs:    4,
		Gen:     wf.GenConfig{Tasks: 20, Keys: 10, MaxReads: 3, BranchProb: 0.35},
		Attacks: 1,
	}
	attacked, err := scenario.Random(23, cfg, true)
	if err != nil {
		b.Fatal(err)
	}
	if len(attacked.Bad) == 0 {
		b.Skip("seed produced no committed attack")
	}
	var undone, discarded int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cp, err := baseline.LastCheckpointBefore(attacked.Log(), attacked.Bad, 10)
		if err != nil {
			b.Fatal(err)
		}
		undone = len(rec.Undone)
		discarded = attacked.Log().Len() - cp
	}
	b.ReportMetric(float64(undone), "recovery-undone")
	b.ReportMetric(float64(discarded), "rollback-discarded")
}

// §VI design procedure.

func BenchmarkGuidelinesChoose(b *testing.B) {
	req := design.Requirements{Lambda: 1, Epsilon: 1e-3, MaxBuffer: 20}
	var buf int
	for i := 0; i < b.N; i++ {
		c, err := design.Choose(req, 15, 20, stg.DegradeLinear, stg.DegradeLinear)
		if err != nil {
			b.Fatal(err)
		}
		buf = c.Buffer
	}
	b.ReportMetric(float64(buf), "chosen-buffer")
}

// State occupancy across the paper's named cases (the implicit table of
// §V.A.2).

func BenchmarkStateOccupancy(b *testing.B) {
	cases := []struct {
		name string
		p    stg.Params
	}{
		{"case2-good", stg.Square(0.5, 15, 20, 15)},
		{"case2-overload", stg.Square(4, 15, 20, 15)},
		{"case5-good", stg.Square(1, 15, 20, 15)},
		{"case6-poor", stg.Square(1, 2, 3, 15)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m, err := stg.New(c.p)
			if err != nil {
				b.Fatal(err)
			}
			var met stg.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				met, err = m.SteadyMetrics()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(met.PNormal, "P(NORMAL)")
			b.ReportMetric(met.Loss, "loss")
		})
	}
}

// Example-scale sanity: keep the examples' workloads benchmarked so
// regressions in the recovery path surface here.

func BenchmarkSelfhealUnitExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		attacked, err := scenario.Fig1(true)
		if err != nil {
			b.Fatal(err)
		}
		res, err := recovery.Repair(attacked.Store(), attacked.Log(), attacked.Specs, attacked.Bad, recovery.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Undone) != 7 {
			b.Fatalf("undo set drifted: %v", res.Undone)
		}
	}
}

func TestFigureInventoryComplete(t *testing.T) {
	// Every reproduced figure must be regenerable by ID.
	if got := len(figures.IDs()); got != 15 {
		t.Fatalf("figure inventory has %d entries, want 15", got)
	}
}

// Real-runtime validation (integration of the production state machine with
// the CTMC, internal/rtsim).

func BenchmarkRealRuntimeVsCTMC(b *testing.B) {
	p := stg.Square(1, 6, 8, 4)
	m, err := stg.New(p)
	if err != nil {
		b.Fatal(err)
	}
	met, err := m.SteadyMetrics()
	if err != nil {
		b.Fatal(err)
	}
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rtsim.Run(p, 2000, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		gap = res.LossOccupancy() - met.Loss
		if gap < 0 {
			gap = -gap
		}
	}
	b.ReportMetric(gap, "loss-gap-vs-model")
}

// §VI step 1: measuring μ_k and ξ_k on the real implementation.

func BenchmarkMeasureRates(b *testing.B) {
	cfg := rates.Config{MaxK: 4, Repeats: 1, Tasks: 8, Seed: 1}
	var name string
	for i := 0; i < b.N; i++ {
		mu, err := rates.MeasureAnalyzer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fam, _, err := rates.FitDegradation(mu)
		if err != nil {
			b.Fatal(err)
		}
		name = fam.Name
	}
	b.Logf("analyzer degradation classified as %q", name)
}

// Ablation: strict (Theorem-4 gating) vs concurrent (§III.D strategy 3)
// runtime on the Figure 1 workload with a mid-run alert.

func BenchmarkStrategyAblation(b *testing.B) {
	for _, mode := range []struct {
		name       string
		concurrent bool
	}{{"strict", false}, {"concurrent", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var overlap int
			for i := 0; i < b.N; i++ {
				sys := mustFig1System(b, mode.concurrent)
				if err := sys.Tick(); err != nil {
					b.Fatal(err)
				}
				sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{"r1/t1#1"}})
				if err := sys.RunToCompletion(context.Background(), 300); err != nil {
					b.Fatal(err)
				}
				overlap = sys.Metrics().ConcurrentNormalSteps
			}
			b.ReportMetric(float64(overlap), "overlap-steps")
		})
	}
}

func mustFig1System(b *testing.B, concurrent bool) *selfheal.System {
	b.Helper()
	st := data.NewStore()
	st.Init("e", 0)
	sys, err := selfheal.New(selfheal.Config{AlertBuf: 8, RecoveryBuf: 8, Concurrent: concurrent}, st)
	if err != nil {
		b.Fatal(err)
	}
	wf1, wf2 := wf.Fig1Specs()
	sys.Engine().AddAttack(engine.Attack{
		Run: "r1", Task: "t1",
		Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
			return map[data.Key]data.Value{"a": 100}
		},
	})
	if err := sys.StartRun("r1", wf1); err != nil {
		b.Fatal(err)
	}
	if err := sys.StartRun("r2", wf2); err != nil {
		b.Fatal(err)
	}
	return sys
}

// Extension experiment E1: asymmetric buffer sizing (§VI advice).

func BenchmarkFigE1BufferGrid(b *testing.B) {
	benchFigure(b, "e1", "recovery buffer 15", minOf)
}

// Alert-storm triage (the streaming-triage tentpole, docs/TRIAGE.md): the
// sharded service under an IDS alert storm at 1×, 10× and 100× the base
// rate, with the full triage front-end on (cone coalescing, covered-alert
// prefilter, Report-time dedupe) versus the naive per-alert pipeline. The
// reported metrics are the acceptance numbers: loss-rate must stay within
// 2× of the 1× baseline at 100×, analyses/alert must fall below 0.2 (a
// coalesce fold ≥ 5). EXPERIMENTS.md records the measured series next to
// the §V CTMC prediction for the same arrival ratio.

func benchAlertStorm(b *testing.B, scale int, opts triage.Options) {
	const (
		alerts    = 200
		baseGap   = 200 * time.Microsecond
		runs      = 4
		chain     = 8
		taskDelay = 100 * time.Microsecond
	)
	gap := baseGap / time.Duration(scale)
	var reported, lost, analyses, deduped, prefiltered int
	for i := 0; i < b.N; i++ {
		svc, err := shard.New(shard.Config{Shards: 2, AlertBuf: 32, Triage: opts}, nil)
		if err != nil {
			b.Fatal(err)
		}
		svc.Start()
		var bad []wlog.InstanceID
		for r := 0; r < runs; r++ {
			name := fmt.Sprintf("st%d", r)
			key := data.Key(name + ".k2")
			svc.Engine().AddAttack(engine.Attack{
				Run: name, Task: "t2", Visit: 1,
				Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
					return map[data.Key]data.Value{key: -1}
				},
			})
			if err := svc.SubmitRun(name, benchChainSpec(name, chain, taskDelay)); err != nil {
				b.Fatal(err)
			}
			bad = append(bad, wlog.FormatInstance(name, "t2", 1))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		if err := svc.WaitIdle(ctx); err != nil {
			b.Fatal(err)
		}
		// The storm: alerts cycle over the attacked instances at the scaled
		// arrival rate. Drops surface in the metrics, not as test failures —
		// loss under pressure is exactly what is being measured.
		for a := 0; a < alerts; a++ {
			_ = svc.Report([]wlog.InstanceID{bad[a%len(bad)]})
			time.Sleep(gap)
		}
		if err := svc.WaitIdle(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
		m := svc.Metrics()
		if m.RecoveryErrors > 0 {
			b.Fatalf("recovery failed under storm: %v", svc.LastRecoveryError())
		}
		reported += m.AlertsReported
		lost += m.AlertsLost
		analyses += m.ConesAnalyzed
		deduped += m.AlertsDeduped
		prefiltered += m.AlertsPrefiltered
		svc.Stop()
	}
	b.ReportMetric(float64(lost)/float64(reported), "loss-rate")
	b.ReportMetric(float64(analyses)/float64(reported), "analyses/alert")
	if analyses > 0 {
		b.ReportMetric(float64(reported)/float64(analyses), "coalesce-ratio")
	}
	b.ReportMetric(float64(deduped)/float64(b.N), "deduped")
	b.ReportMetric(float64(prefiltered)/float64(b.N), "prefiltered")
}

func BenchmarkAlertStorm1x(b *testing.B)   { benchAlertStorm(b, 1, triage.All()) }
func BenchmarkAlertStorm10x(b *testing.B)  { benchAlertStorm(b, 10, triage.All()) }
func BenchmarkAlertStorm100x(b *testing.B) { benchAlertStorm(b, 100, triage.All()) }

// The contrast series: the same storms with the front-end off — one
// degraded analysis per admitted alert, bounded-queue drops under pressure.
func BenchmarkAlertStormNaive1x(b *testing.B)   { benchAlertStorm(b, 1, triage.Options{}) }
func BenchmarkAlertStormNaive100x(b *testing.B) { benchAlertStorm(b, 100, triage.Options{}) }

// End-to-end campaign (workload + attacks + IDS + on-line recovery).

func BenchmarkCampaign(b *testing.B) {
	var undone int
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(campaign.DefaultConfig(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Verified {
			b.Fatalf("campaign %d produced an invalid history", i)
		}
		undone = rep.Metrics.Undone
	}
	b.ReportMetric(float64(undone), "undone")
}
