package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/shard"
)

// toyPlan shrinks a workload to a fraction of a second while keeping every
// phase: each still commits runs in a closed and an open loop, is attacked,
// and passes through every gate.
func toyPlan(t *testing.T, name string) plan {
	t.Helper()
	p, err := planFor(name, 10)
	if err != nil {
		t.Fatal(err)
	}
	p.tenants, p.satPerTenant = 12, 2
	p.earlyPerTenant = min(p.earlyPerTenant, 1)
	p.pacedRuns, p.pacedRate = 24, 400
	p.prefaultMB = 0
	if p.stormWaves > 0 {
		p.stormWaves, p.stormVictims, p.stormD, p.stormAlerts = 2, 3, 2, 8
	} else if p.incidents > 0 {
		p.incidents = 2
	}
	return p
}

func runToy(t *testing.T, p plan, traced bool, fault shard.FaultInjection) (*outcome, error) {
	t.Helper()
	// The scratch root and the trace file live under the working directory.
	back, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	res := &resources{}
	defer func() {
		res.releaseAll()
		if err := res.selfCheck(); err != nil {
			t.Error(err)
		}
		if ents, _ := os.ReadDir(".bench_build"); len(ents) > 0 {
			t.Errorf("scratch root not removed: %d entries left", len(ents))
		}
		if err := os.Chdir(back); err != nil {
			t.Fatal(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := runConfig{plan: p, seed: 7, traced: traced, conns: 2, fault: fault,
		env: map[string]any{"test": true}, setups: 1}
	return runWorkload(ctx, res, cfg)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsEmitEveryMetric runs each workload at toy size, untraced and
// traced, and checks that every end-to-end metric comes out non-zero and that
// the traced run emits every per-layer metric the workload's layers feed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			p := toyPlan(t, w.Name)
			out, err := runToy(t, p, false, shard.FaultInjection{})
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("attempted=%d failed=%d", out.attempted, out.failed)
			}
			for _, d := range endToEnd {
				if v, ok := out.values[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (present=%v)", d.Name, v, ok)
				}
			}

			tout, err := runToy(t, p, true, shard.FaultInjection{})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exercised(p) {
				if v, ok := tout.values[name]; !ok || math.IsNaN(v) {
					t.Errorf("per-layer metric %s missing on %s (%v)", name, w.Name, v)
				}
			}
			for name, v := range tout.values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %v", name, v)
				}
			}
			var doc traceFile
			raw, err := os.ReadFile(tout.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 || len(doc.Metrics) != len(perLayer) {
				t.Errorf("trace file: %d spans, %d metrics (want %d)", len(doc.Spans), len(doc.Metrics), len(perLayer))
			}
		})
	}
}

// exercised lists per-layer metrics that must be produced (not merely
// defaulted to 0) by a traced run of p.
func exercised(p plan) []string {
	names := []string{
		"runs_per_s", "commit_p99_ms", "httpapi.post_runs_us", "httpapi.get_run_us",
		"httpapi.requests", "httpapi.self_us_per_run", "wfjson.build_us", "shard.submit_us", "shard.run_us",
		"engine.step_us", "engine.steps", "wlog.append_us", "deps.append_us", "durable.encode_us",
		"loadgen.late_p99_ms", "loadgen.polls_per_run", "runtime.gc_cpu_frac", "runtime.alloc_mb_per_krun",
		"obs.overhead_frac", "budget.unexplained_frac",
	}
	if p.kind != kindCluster {
		names = append(names, "shard.commit_batch_entries", "wlog.hook_frac", "deps.snapshot_us", "data.clone_ms",
			"data.versions", "data.versions_per_key", "triage.partition_us", "triage.cones", "triage.coalesce_ratio",
			"recovery.analyze_ms", "recovery.closure_ms", "recovery.schedule_ms", "recovery.repair_ms",
			"recovery.components", "recovery.log_entries", "recovery.useful_ratio")
	}
	switch p.kind {
	case kindDurable:
		names = append(names, "restart_s", "wal_bytes_per_run", "durable.fsyncs_per_run", "durable.group_entries",
			"durable.fsync_us", "durable.bytes_per_entry", "durable.spec_sync_us", "durable.snapshots",
			"durable.snapshot_ms", "durable.replay_records", "durable.replay_ms")
	case kindCluster:
		names = append(names, "wal_bytes_per_run", "cluster.stamp_batch_entries", "cluster.submit_rtt_us",
			"cluster.bytes_per_record", "cluster.journal_fsyncs_per_run", "cluster.converge_ms", "cluster.proxied",
			"cluster.tokens_sent")
	}
	if p.victims() > 0 {
		names = append(names, "heal_p25_ms", "heal_p50_ms", "heal_p90_ms", "httpapi.post_alerts_us")
		if p.kind != kindCluster {
			names = append(names, "recovery.undone_per_incident")
		}
	}
	if p.stormWaves > 0 {
		names = append(names, "storm_heal_s")
	}
	return names
}

// TestSameSeedSameInputs: the same seed gives identical generated inputs and
// identical exact-count metrics; another seed gives other inputs.
func TestSameSeedSameInputs(t *testing.T) {
	p := toyPlan(t, "heal-needle")
	a, err := runToy(t, p, false, shard.FaultInjection{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runToy(t, p, false, shard.FaultInjection{})
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint != b.fingerprint {
		t.Errorf("same seed, different inputs: %x vs %x", a.fingerprint, b.fingerprint)
	}
	for _, name := range []string{"engine.steps", "triage.cones"} {
		if a.values[name] != b.values[name] || a.values[name] == 0 {
			t.Errorf("exact count %s: %v vs %v", name, a.values[name], b.values[name])
		}
	}
	if a.attempted != b.attempted {
		t.Errorf("attempted: %d vs %d", a.attempted, b.attempted)
	}
	in1, err := generate(1, "a", []int{3, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := generate(2, "a", []int{3, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	if in1.fingerprint() == in2.fingerprint() {
		t.Error("seeds 1 and 2 generated identical inputs")
	}
}

// TestGatesBite is the anti-vacuity check: a service that acknowledges
// repairs without performing them must fail the benchmark's gates.
func TestGatesBite(t *testing.T) {
	// With no detection delay nothing overwrites the forged value, so an
	// unrepaired forge is certain to show in the final store.
	p := toyPlan(t, "heal-needle")
	p.incidents, p.d = 4, 0
	if _, err := runToy(t, p, false, shard.FaultInjection{}); err != nil {
		t.Fatalf("sound target failed: %v", err)
	}
	_, err := runToy(t, p, false, shard.FaultInjection{SkipRepair: true})
	var ge *gateError
	if !errors.As(err, &ge) {
		t.Fatalf("faulty target passed the gates (err = %v)", err)
	}
}

// TestDrainHealedReportsAgain: a repair unit the service drops is a failed
// operation and one more report; a unit dropped twice is a failed gate.
func TestDrainHealedReportsAgain(t *testing.T) {
	var alerts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/alerts" {
			alerts.Add(1)
			w.WriteHeader(http.StatusAccepted)
		}
	}))
	defer srv.Close()
	for _, tc := range []struct {
		errs       []int // what the service's counter reads, call by call
		wantAlerts int64
		wantFailed int64
		wantGate   bool
	}{
		{errs: []int{3}, wantAlerts: 0, wantFailed: 0},
		{errs: []int{4, 4}, wantAlerts: 1, wantFailed: 1},
		{errs: []int{5, 6}, wantAlerts: 1, wantFailed: 2, wantGate: true},
	} {
		alerts.Store(0)
		c := newClient(srv.URL, 1, nil)
		calls := 0
		c.recoveryErrors = func() int { calls++; return tc.errs[calls-1] }
		err := c.drainHealed(context.Background(), spanRef{}, 3, []string{"atk/x#1"})
		c.close()
		var ge *gateError
		if errors.As(err, &ge) != tc.wantGate || (err != nil && !tc.wantGate) {
			t.Errorf("%v: err = %v, want gate error %v", tc.errs, err, tc.wantGate)
		}
		if alerts.Load() != tc.wantAlerts || c.failed.Load() != tc.wantFailed || c.rereported.Load() != tc.wantFailed {
			t.Errorf("%v: %d alerts, %d failed, %d re-reported; want %d, %d", tc.errs, alerts.Load(), c.failed.Load(), c.rereported.Load(), tc.wantAlerts, tc.wantFailed)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in metrics.go
// identical, and every name and unit inside the contract's character sets.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the benchmark has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %+v", i, doc.Workloads[i], w)
		}
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, u, better string) {
		if !metricName.MatchString(name) || !unit.MatchString(u) || (better != "lower" && better != "higher") || seen[name] {
			t.Errorf("metric %q unit %q better %q: outside the contract or repeated", name, u, better)
		}
		seen[name] = true
	}
	for i, d := range endToEnd {
		e := doc.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, e, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		check(d.Name, d.Unit, d.Better)
	}
	for i, d := range perLayer {
		e := doc.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, e, d)
		}
		check(d.Name, d.Unit, d.Better)
	}
}
