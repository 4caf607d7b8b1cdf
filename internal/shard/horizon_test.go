package shard

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/durable"
	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// horizonView is the state a checkpoint prunes and a restart rebuilds: the
// log (base and entries), the dependence graph's edges, the store chains,
// every run's status and the pre-epoch set.
type horizonView struct {
	base                int
	entries             [][]byte
	flow, anti, output  []deps.Edge
	chains              map[data.Key][]data.Version
	runs                []RunInfo
	preEpoch            map[string]bool
	tombs               map[string]tombstone
	specs, states, live int
}

func viewOf(s *Service) horizonView {
	v := horizonView{base: s.Log().Base(), chains: s.Store().ChainsCopy()}
	s.Log().Range(func(e *wlog.Entry) bool {
		v.entries = append(v.entries, durable.EncodeEntry(nil, e))
		return true
	})
	g := s.graph.Snapshot()
	v.flow, v.anti, v.output = g.Flow(), g.Anti(), g.Output()
	v.runs = s.Runs()
	for i := range v.runs {
		v.runs[i].Shard = 0 // placement is scheduling state, not durable state
	}
	s.mu.Lock()
	v.preEpoch = maps.Clone(s.preEpoch)
	v.specs, v.states = len(s.specs), len(s.specStates)
	s.mu.Unlock()
	s.exec.mu.Lock()
	v.tombs = maps.Clone(s.exec.tombs)
	v.live = len(s.exec.runs)
	s.exec.mu.Unlock()
	return v
}

// answer classifies an alert admission the way a client sees it.
func answer(err error) string {
	switch {
	case err == nil:
		return "admitted"
	case errors.Is(err, recovery.ErrHorizon):
		return "below horizon"
	case errors.Is(err, engine.ErrUnknownRun):
		return "unknown"
	}
	return err.Error()
}

// assertRestartEqualsLive waits for svc to go idle, boots a second service on
// a copy of its WAL directory, and requires the two to hold the same
// horizonView and to answer the same alerts the same way. It returns how many
// pre-epoch runs and tombstones the comparison covered.
func assertRestartEqualsLive(t *testing.T, svc *Service, dir, label string, forged []wlog.InstanceID) (pre, tombs int) {
	t.Helper()
	waitIdle(t, svc)
	drainRecovery(t, svc)
	waitIdle(t, svc)
	cp := t.TempDir()
	copyTree(t, dir, cp)
	re, err := NewDurable(svc.cfg, cp, durable.Options{NoSync: true})
	if err != nil {
		t.Fatalf("%s: restart: %v", label, err)
	}
	// Never started: the copy is inspected, not run.
	defer re.wal.Close()

	live, back := viewOf(svc), viewOf(re)
	for _, c := range []struct {
		what       string
		live, back any
	}{
		{"log base", live.base, back.base},
		{"log entries", live.entries, back.entries},
		{"flow edges", live.flow, back.flow},
		{"anti edges", live.anti, back.anti},
		{"output edges", live.output, back.output},
		{"store chains", live.chains, back.chains},
		{"runs", live.runs, back.runs},
		{"pre-epoch runs", live.preEpoch, back.preEpoch},
		{"tombstones", live.tombs, back.tombs},
		{"live runs, specs and documents", []int{live.live, live.specs, live.states}, []int{back.live, back.specs, back.states}},
	} {
		if !reflect.DeepEqual(c.live, c.back) {
			t.Fatalf("%s: %s differ between the live service and its restart:\n live    %+v\n restart %+v", label, c.what, c.live, c.back)
		}
	}
	if live.specs != live.live || live.states != live.live {
		t.Fatalf("%s: %d live runs keep %d specs and %d documents", label, live.live, live.specs, live.states)
	}

	// The same alerts get the same answers: an instance of a tombstoned run
	// is refused as below the horizon, one of a run nobody registered is
	// unknown, and the latest forge — above the horizon unless a checkpoint
	// came between — is admitted (and repaired by the live service).
	ids := make([]string, 0, len(live.tombs))
	for id := range live.tombs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	probes := []wlog.InstanceID{"nobody/t0#1"}
	for _, id := range ids[:min(3, len(ids))] {
		probes = append(probes, wlog.FormatInstance(id, "t0", 1))
	}
	if len(forged) > 0 {
		probes = append(probes, forged[len(forged)-1])
	}
	for _, p := range probes {
		alert := []triage.Alert{{Bad: []wlog.InstanceID{p}}}
		_, _, errBack := re.ReportAlerts(alert)
		_, _, errLive := svc.ReportAlerts(alert)
		if a, b := answer(errLive), answer(errBack); a != b {
			t.Fatalf("%s: an alert naming %s is %s live, %s after a restart", label, p, a, b)
		}
	}
	if m, n := svc.Metrics().AlertsBelowHorizon, re.Metrics().AlertsBelowHorizon; len(ids) > 0 && (m == 0 || n == 0) {
		t.Fatalf("%s: below-horizon refusals counted %d live, %d after a restart", label, m, n)
	}
	drainRecovery(t, svc)
	return len(live.preEpoch), len(live.tombs)
}

// TestRestartEqualsLive: a checkpoint forgets, while the service runs,
// exactly what a restart from its snapshot forgets. Seeded episodes of runs,
// forged tasks with their alerts, and checkpoints at random points — with
// runs in flight, so some straddle the horizon — compare the live service
// after every checkpoint with a service booted on a copy of its directory.
func TestRestartEqualsLive(t *testing.T) {
	const seeds, ops, tenants = 6, 48, 3
	checkpoints, pre, tombs := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		svc := startDurable(t, dir, Config{Shards: 2}, durable.Options{NoSync: true})
		gen := wf.GenConfig{Tasks: 6, Keys: 5, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3}
		var forged []wlog.InstanceID
		for op := 0; op < ops; op++ {
			label := fmt.Sprintf("seed %d op %d", seed, op)
			tenant := rng.Intn(tenants)
			gen.Prefix = fmt.Sprintf("s%d_%d_", seed, tenant)
			switch r := rng.Intn(10); {
			case r < 6:
				name := fmt.Sprintf("s%d-r%d", seed, op)
				doc := wfjson.FromBlueprint(wf.GenerateBlueprint(name, gen, rng))
				if err := svc.SubmitRunSpec(name, doc); err != nil && !errors.Is(err, ErrQueueFull) {
					t.Fatalf("%s: %v", label, err)
				}
			case r < 8:
				k := gen.PoolKey(rng.Intn(gen.Keys))
				inst, err := svc.InjectForged("intruder", wf.TaskID(fmt.Sprintf("f%d", op)),
					[]data.Key{k}, map[data.Key]data.Value{k: data.Value(-1 - op)})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				forged = append(forged, inst)
				if err := svc.Report([]wlog.InstanceID{inst}); err != nil && !errors.Is(err, ErrQueueFull) {
					t.Fatalf("%s: %v", label, err)
				}
			default:
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				err := svc.Checkpoint(ctx)
				cancel()
				if err != nil {
					t.Fatalf("%s: checkpoint: %v", label, err)
				}
				p, tb := assertRestartEqualsLive(t, svc, dir, label, forged)
				checkpoints, pre, tombs = checkpoints+1, pre+p, tombs+tb
			}
		}
	}
	t.Logf("%d checkpoints compared, %d pre-epoch runs and %d tombstones among them", checkpoints, pre, tombs)
	if checkpoints < seeds || pre == 0 || tombs == 0 {
		t.Fatalf("%d checkpoints, %d pre-epoch runs, %d tombstones: the episodes are near-vacuous", checkpoints, pre, tombs)
	}
}

// TestAlertBelowHorizon: once a checkpoint has retired a run beneath its
// horizon, the run answers status queries from its tombstone — done, no
// steps — its ID stays taken, and an alert naming one of its instances is
// refused with recovery.ErrHorizon and counted, not admitted and not
// reported unknown. A restarted service gives the same answers. An alert
// admitted and analyzed before the checkpoint fails its repair with the same
// typed error once the checkpoint has forgotten the accused instance.
func TestAlertBelowHorizon(t *testing.T) {
	dir := t.TempDir()
	svc := newDurableSvc(t, dir, Config{Shards: 2})
	if err := svc.SubmitRunSpec("a", durableDoc("a", 3)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, svc)
	inst, err := svc.InjectForged("intruder", "evil", nil, map[data.Key]data.Value{"a.k3": -1})
	if err != nil {
		t.Fatal(err)
	}
	g, specs := svc.pinView()
	u := &unit{bad: []wlog.InstanceID{inst}, an: recovery.AnalyzeGraph(g, svc.Log(), specs, []wlog.InstanceID{inst})}
	if err := svc.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.executeDurable(u); !errors.Is(err, recovery.ErrHorizon) {
		t.Errorf("repairing an instance the checkpoint forgot = %v, want ErrHorizon", err)
	}
	check := func(label string, s *Service) {
		t.Helper()
		if info, err := s.RunInfo("a"); err != nil || info.Status != RunDone.String() || info.Steps != 0 {
			t.Errorf("%s: RunInfo(a) = %+v, %v; want done with no steps", label, info, err)
		}
		if err := s.Report([]wlog.InstanceID{"a/t2#1"}); !errors.Is(err, recovery.ErrHorizon) {
			t.Errorf("%s: alert on a tombstoned run's instance = %v, want ErrHorizon", label, err)
		}
		if err := s.Report([]wlog.InstanceID{"ghost/t2#1"}); !errors.Is(err, engine.ErrUnknownRun) {
			t.Errorf("%s: alert on an unknown run = %v, want ErrUnknownRun", label, err)
		}
		if n := s.Metrics().AlertsBelowHorizon; n != 1 {
			t.Errorf("%s: %d below-horizon refusals counted, want 1", label, n)
		}
		if err := s.SubmitRunSpec("a", durableDoc("a", 3)); !errors.Is(err, engine.ErrRunExists) {
			t.Errorf("%s: resubmitting a tombstoned run = %v, want ErrRunExists", label, err)
		}
	}
	check("live", svc)
	svc.Stop()
	check("restarted", newDurableSvc(t, dir, Config{Shards: 2}))
}
