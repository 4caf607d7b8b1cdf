package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"selfheal/internal/fuzz"
	"selfheal/internal/obs"
	"selfheal/internal/shard"
)

// plan sizes one workload. Every workload is the same pipeline — boot, sat
// phase, paced phase, incidents, gates — and a plan says which deployment it
// runs on, how much of each phase it does and whether the attacks run after
// the paced phase or during it. Counts are operations, not seconds: per-run
// cost grows with the log, so two commits are comparable only if they do
// identical work.
type plan struct {
	name string
	kind string

	tenants      int     // closed-loop sessions' tenants
	satPerTenant int     // sat phase: runs per tenant
	pacedRuns    int     // paced phase: arrivals
	pacedRate    float64 // paced phase: arrivals per second

	// Serial incidents (every workload but heal-storm): one per victim, with
	// detection delay d. They follow the paced phase, unless concurrent runs
	// them during it, back to back, over victims that take no paced traffic,
	// or earlyPerTenant > 0 runs them first, after a closed-loop build-up of
	// that many runs per tenant (cluster3: a cluster's heal time is quadratic
	// in its history, so it heals in a short one).
	incidents      int
	d              int
	concurrent     bool
	earlyPerTenant int

	// Storm (heal-storm), during the paced phase: stormWaves waves, each over
	// stormVictims fresh victims forged once with detection delay stormD and
	// then accused by stormAlerts alerts at stormRate per second.
	stormWaves   int
	stormVictims int
	stormD       int
	stormAlerts  int
	stormRate    float64

	// prefaultMB is the heap the warm-up touches before set-up: a little
	// above the workload's peak heap.
	prefaultMB int
}

// falseAccuseFrac is the share of storm alerts that also accuse a legitimate
// start task.
const falseAccuseFrac = 0.3

// basePlans are the frozen sizes for --seconds 10 on the reference box (2
// vCPU); planFor scales the counts with --seconds. README.md records how they
// were chosen.
var basePlans = map[string]plan{
	"steady-mem": {kind: kindMem, tenants: 128, satPerTenant: 120, pacedRuns: 3500, pacedRate: 1000, prefaultMB: 512},
	"durable": {kind: kindDurable, tenants: 128, satPerTenant: 32, pacedRuns: 1000, pacedRate: 250,
		incidents: 32, d: 2, prefaultMB: 256},
	"heal-needle": {kind: kindMem, tenants: 128, satPerTenant: 48, pacedRuns: 3000, pacedRate: 300,
		incidents: 96, d: 2, concurrent: true, prefaultMB: 256},
	"heal-storm": {kind: kindMem, tenants: 128, satPerTenant: 24, pacedRuns: 3000, pacedRate: 300,
		concurrent: true, stormWaves: 16, stormVictims: 4, stormD: 8, stormAlerts: 32, stormRate: 200, prefaultMB: 256},
	"cluster3": {kind: kindCluster, tenants: 128, earlyPerTenant: 5, satPerTenant: 20, pacedRuns: 500, pacedRate: 100,
		incidents: 16, d: 2, prefaultMB: 256},
}

// planFor returns the workload's plan with its operation counts scaled by
// seconds/10. Rates, windows and detection delays do not scale.
func planFor(name string, seconds float64) (plan, error) {
	p, ok := basePlans[name]
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return plan{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	p.name = name
	f := seconds / 10
	scale := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(floor, int(math.Round(float64(n)*f)))
	}
	p.earlyPerTenant = scale(p.earlyPerTenant, 1)
	p.satPerTenant = scale(p.satPerTenant, 1)
	p.pacedRuns = scale(p.pacedRuns, 20)
	p.incidents = scale(p.incidents, 1)
	p.stormWaves = scale(p.stormWaves, 1)
	p.prefaultMB = scale(p.prefaultMB, 64)
	return p, nil
}

// victims is how many tenants the attacks need.
func (p plan) victims() int {
	if p.stormWaves > 0 {
		return p.stormWaves * p.stormVictims
	}
	return p.incidents
}

// perTenant returns how many runs each tenant commits under this plan. The
// first victims() tenants are attacked; when attacks run during the paced
// phase the paced arrivals go to the other tenants only.
func (p plan) perTenant() []int {
	per := make([]int, p.tenants)
	first := 0
	if p.concurrent {
		first = p.victims()
	}
	pacedSet := p.tenants - first
	for i := range per {
		per[i] = p.earlyPerTenant + p.satPerTenant
		if i >= first {
			j := i - first
			per[i] += p.pacedRuns / pacedSet
			if j < p.pacedRuns%pacedSet {
				per[i]++
			}
		}
		if i < p.victims() {
			if p.stormWaves > 0 {
				per[i] += p.stormD
			} else {
				per[i] += p.d
			}
		}
	}
	return per
}

// runConfig is one benchmark run's input.
type runConfig struct {
	plan   plan
	seed   int64
	traced bool
	conns  int
	fault  shard.FaultInjection // anti-vacuity test only
	env    map[string]any
	// setups repeats the set-up this many times and reports the median.
	setups int
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int64
	values            map[string]float64 // every metric the run produced, by name
	samples           map[string]int     // sample counts behind the percentiles
	fingerprint       uint64
	tracePath         string
}

// gateError marks a failed correctness gate: the run exits non-zero and
// prints no metrics.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate failed: " + e.msg }

func gatef(format string, a ...any) error { return &gateError{fmt.Sprintf(format, a...)} }

// setUp generates the inputs and boots the deployment.
func setUp(res *resources, cfg runConfig) (*inputs, *deployment, error) {
	in, err := generate(cfg.seed, "a", cfg.plan.perTenant(), cfg.traced)
	if err != nil {
		return nil, nil, err
	}
	var reg *obs.Registry
	if cfg.traced {
		reg = obs.NewRegistry()
	}
	var dep *deployment
	switch cfg.plan.kind {
	case kindMem:
		dep, err = bootShard(res, shardConfig(cfg.fault, cfg.plan.stormAlerts), "", reg)
	case kindDurable:
		var dir string
		if dir, err = res.tempDir("wal-"); err == nil {
			dep, err = bootShard(res, shardConfig(cfg.fault, cfg.plan.stormAlerts), dir, reg)
		}
	case kindCluster:
		dep, err = bootCluster(res, cfg.traced)
	default:
		err = fmt.Errorf("unknown deployment kind %q", cfg.plan.kind)
	}
	return in, dep, err
}

// runWorkload executes one workload end to end and checks its gates.
func runWorkload(ctx context.Context, res *resources, cfg runConfig) (*outcome, error) {
	p := cfg.plan
	out := &outcome{values: map[string]float64{}, samples: map[string]int{}}

	pf := prefault(p.prefaultMB)
	fmt.Printf("# %s: warm-up touched %d MiB of heap in %.2fs (not in setup_s)\n", p.name, p.prefaultMB, pf.Seconds())

	// Set-up, repeated: inputs from the seed, then boot. All but the last
	// deployment are closed at once; the median is what is reported.
	var in *inputs
	var dep *deployment
	var setupS []float64
	for i := 0; i < max(1, cfg.setups); i++ {
		if dep != nil {
			dep.close()
		}
		start := time.Now()
		var err error
		if in, dep, err = setUp(res, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer dep.close()
	out.values["setup_s"] = quantile(setupS, 0.5)
	out.fingerprint = in.fingerprint()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	c := newClient(dep.url, cfg.conns, tr)
	defer c.close()
	c.recoveryErrors = dep.recoveryErrors
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	before := snapshotRuntime(dep)
	smp := startSampler(dep, cfg.traced)
	defer smp.stop()
	measureStart := time.Now()

	workers := cfg.conns * inflightPerConn
	victims := in.tenants[:p.victims()]
	attack := func() (*latencies, error) {
		if p.stormWaves > 0 {
			heal := &latencies{}
			for w := 0; w < p.stormWaves; w++ {
				wave := victims[w*p.stormVictims : (w+1)*p.stormVictims]
				d, err := storm(ctx, c, wave, w, p.stormD, p.stormAlerts, p.stormRate, falseAccuseFrac, workers, rng)
				if err != nil {
					return nil, fmt.Errorf("storm wave %d: %w", w, err)
				}
				heal.add(d)
			}
			return heal, nil
		}
		return serialIncidents(ctx, c, victims, p.d, rng)
	}
	var heal *latencies
	var err error
	if p.earlyPerTenant > 0 {
		if _, err = sat(ctx, c, in.tenants, p.earlyPerTenant, workers); err != nil {
			return nil, fmt.Errorf("build-up: %w", err)
		}
		if heal, err = attack(); err != nil {
			return nil, fmt.Errorf("incidents: %w", err)
		}
	}

	// Sat phase: closed loop.
	settle()
	sr, err := sat(ctx, c, in.tenants, p.satPerTenant, workers)
	if err != nil {
		return nil, fmt.Errorf("sat phase: %w", err)
	}
	out.values["runs_per_s"] = sr.runsPerSec()

	// Paced phase: open loop; the attacks run during it or after it, unless
	// they came first.
	pacedSet := in.tenants
	if p.concurrent {
		pacedSet = in.tenants[p.victims():]
	}
	settle()
	var pr *pacedResult
	pacedRng := rand.New(rand.NewSource(cfg.seed ^ 0xacced))
	if p.concurrent {
		var wg sync.WaitGroup
		var perr, aerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, perr = paced(ctx, c, pacedSet, p.pacedRuns, p.pacedRate, pacedRng)
		}()
		heal, aerr = attack()
		wg.Wait()
		if err := errors.Join(perr, aerr); err != nil {
			return nil, fmt.Errorf("paced phase with attacks: %w", err)
		}
	} else {
		if pr, err = paced(ctx, c, pacedSet, p.pacedRuns, p.pacedRate, pacedRng); err != nil {
			return nil, fmt.Errorf("paced phase: %w", err)
		}
		if p.kind == kindDurable {
			// Every forge → alert pair must fall inside one snapshot epoch:
			// an auto-checkpoint between the two turns the repair into
			// recovery.ErrHorizon. Forcing one here leaves the incidents
			// snapshotEvery entries of room; they commit far fewer.
			start := time.Now()
			if err := c.checkpoint(ctx); err != nil {
				return nil, fmt.Errorf("forced checkpoint: %w", err)
			}
			out.values["durable.snapshot_ms"] = time.Since(start).Seconds() * 1e3
		}
		if heal == nil {
			if heal, err = attack(); err != nil {
				return nil, fmt.Errorf("incidents: %w", err)
			}
		}
	}
	out.values["commit_p50_ms"] = quantile(pr.commit.ms, 0.5)
	out.values["commit_p99_ms"] = quantile(pr.commit.ms, 0.99)
	out.samples["commit_p50_ms"] = len(pr.commit.ms)
	out.values["loadgen.late_p99_ms"] = quantile(pr.late.ms, 0.99)
	if len(heal.ms) > 0 { // steady-mem is attack-free
		out.values["heal_p25_ms"] = quantile(heal.ms, 0.25)
		out.values["heal_p50_ms"] = quantile(heal.ms, 0.5)
		out.values["heal_p90_ms"] = quantile(heal.ms, 0.9)
		out.samples["heal_p25_ms"] = len(heal.ms)
	}
	if p.stormWaves > 0 {
		// The whole storm: every wave's first alert due → drained, summed.
		total := 0.0
		for _, ms := range heal.ms {
			total += ms
		}
		out.values["storm_heal_s"] = total / 1e3
	}

	// End of the measured window: everything retired, then the heap after a
	// forced collection ("nothing grows without bound").
	if err := c.drainIdle(ctx); err != nil {
		return nil, fmt.Errorf("final drain: %w", err)
	}
	if p.kind == kindCluster {
		start := time.Now()
		if err := waitConverged(ctx, dep); err != nil {
			return nil, err
		}
		out.values["cluster.converge_ms"] = time.Since(start).Seconds() * 1e3
	}
	elapsed := time.Since(measureStart)
	smp.stop()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.values["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	runs := c.runsDone.Load()
	forges := p.victims()
	counterMetrics(out.values, before, snapshotRuntime(dep), runs, forges, elapsed)
	smp.report(out.values, forges)
	out.values["loadgen.polls_per_run"] = float64(c.polls.Load()) / float64(runs)
	out.values["httpapi.requests"] = float64(c.requests.Load())

	// Correctness gates. A failure returns a gateError: no metrics.
	if err := gates(ctx, c, dep, in, out.values); err != nil {
		return nil, err
	}
	// Every workload is sized so that no operation fails, and any other than a
	// dropped repair unit (drainHealed) has already ended the run.
	out.attempted, out.failed = c.attempted.Load(), c.failed.Load()

	if cfg.traced {
		if err := layerWalk(ctx, res, cfg, c, dep, in, tr, out.values); err != nil {
			return nil, fmt.Errorf("layer walk: %w", err)
		}
		spanMetrics(tr, out.values)
	}
	if p.kind == kindDurable {
		if err := restartGate(ctx, c, dep, out.values, cfg.traced); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		doc := traceFile{Workload: p.name, Seed: cfg.seed, Env: cfg.env,
			Registry: registryDelta(before.registry, snapshotRuntime(dep).registry),
			Metrics:  filled(perLayer, out.values), SelfNS: tr.selfTimes()}
		if out.tracePath, err = tr.write(traceDir, doc); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}

// gates checks the paper's contract after the workload: the live store equals
// the attack-free reference, the soundness verdicts are clean, no run failed
// and cluster stores are byte-identical. It also sizes the journal on disk,
// before the traced run's layer walk appends to it.
func gates(ctx context.Context, c *client, dep *deployment, in *inputs, vals map[string]float64) error {
	raw, got, err := c.store(ctx)
	if err != nil {
		return err
	}
	if diff := fuzz.DiffStores(in.reference, got); diff != "" {
		return gatef("store differs from the attack-free reference:\n%s", firstLines(diff, 12))
	}
	v, err := c.verify(ctx)
	if err != nil {
		return err
	}
	switch {
	case v.CheckIndex != "ok":
		return gatef("check_index: %s", v.CheckIndex)
	case v.AuditViolations > 0:
		return gatef("audit_violations: %d (%s)", v.AuditViolations, v.AuditError)
	case int64(dep.recoveryErrors()) != c.rereported.Load():
		return gatef("%d repair units dropped, %d re-reported: %s", dep.recoveryErrors(), c.rereported.Load(), v.RecoveryError)
	case v.RecoveryError != "" && c.rereported.Load() == 0:
		// Not a dropped unit: a failed checkpoint reports here too.
		return gatef("recovery_error: %s", v.RecoveryError)
	}
	switch dep.kind {
	case kindCluster:
		for i, u := range dep.urls {
			nc := newClient(u, 1, nil)
			other, _, err := nc.store(ctx)
			nc.close()
			if err != nil {
				return err
			}
			if !bytes.Equal(other, raw) {
				return gatef("cluster store divergence: node %d differs from the client's node", i)
			}
		}
		if m := dep.nodes[dep.stamper].MetricsDoc(); m.RunsFailed > 0 {
			return gatef("%d runs failed", m.RunsFailed)
		}
		n, err := dirBytes(dep.dir, func(name string) bool {
			return strings.HasPrefix(name, dep.nodes[dep.stamper].ID()+".")
		})
		if err != nil {
			return err
		}
		vals["wal_bytes_per_run"] = float64(n) / float64(c.runsDone.Load())
	default:
		if m := dep.svc.Metrics(); m.RunsFailed > 0 {
			return gatef("%d runs failed", m.RunsFailed)
		}
		if dep.kind == kindDurable {
			n, err := dirBytes(dep.dir, nil)
			if err != nil {
				return err
			}
			vals["wal_bytes_per_run"] = float64(n) / float64(c.runsDone.Load())
		}
	}
	return nil
}

// restartGate stops the durable service, reopens its directory and waits for
// the first GET /api/v1/store equal to the pre-stop one: restart_s, and the
// "store identical across restart" gate.
func restartGate(ctx context.Context, c *client, dep *deployment, vals map[string]float64, traced bool) error {
	want, _, err := c.store(ctx)
	if err != nil {
		return err
	}
	c.close()
	dep.close()
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
	}
	start := time.Now()
	re, err := dep.reopen(reg)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer re.close()
	rc := newClient(re.url, 1, nil)
	defer rc.close()
	got, _, err := rc.store(ctx)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	vals["restart_s"] = time.Since(start).Seconds()
	if !bytes.Equal(got, want) {
		return gatef("store differs across restart (%d vs %d bytes)", len(got), len(want))
	}
	if reg != nil {
		snap := reg.Snapshot()
		vals["durable.replay_records"] = snap[obs.MWalReplayedRecords]
		vals["durable.replay_ms"] = snap[obs.MWalReplaySeconds] * 1e3
	}
	return nil
}

// waitConverged polls every node's store until all three bodies are
// byte-identical: the cluster workload ends there.
func waitConverged(ctx context.Context, dep *deployment) error {
	clients := make([]*client, len(dep.urls))
	for i, u := range dep.urls {
		clients[i] = newClient(u, 1, nil)
		defer clients[i].close()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var ref []byte
		same := true
		for i, nc := range clients {
			raw, _, err := nc.store(ctx)
			if err != nil {
				return err
			}
			if i == 0 {
				ref = raw
			} else if !bytes.Equal(raw, ref) {
				same = false
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return gatef("cluster stores did not converge within 30s")
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return err
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines[n] = "..."
	}
	return strings.Join(lines, "\n")
}
