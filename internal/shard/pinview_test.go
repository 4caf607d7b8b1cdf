package shard

import (
	"fmt"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/data"
	"selfheal/internal/durable"
	"selfheal/internal/obs"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// TestRunRegisteredWhileRepairPins: clean shards keep registering and
// committing runs while a repair pins its view. A run that is registered
// AND commits between the graph snapshot and the spec copy must not make the
// repair fail ("run … has no workflow spec") and the unit be dropped — which
// is what copying the specs before taking the snapshot did. The hook runs
// exactly between the two steps, at every site that pins a view (triage
// analysis and repair), in both the in-memory and the durable service.
func TestRunRegisteredWhileRepairPins(t *testing.T) {
	for _, durableSvc := range []bool{false, true} {
		name := "memory"
		if durableSvc {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			var svc *Service
			if durableSvc {
				svc = newDurableSvc(t, t.TempDir(), Config{Shards: 2})
			} else {
				svc = startService(t, Config{Shards: 2})
			}
			if err := svc.SubmitRunSpec("v1", durableDoc("v1", 6)); err != nil {
				t.Fatal(err)
			}
			waitIdle(t, svc)
			inst, err := svc.InjectForged("intruder", "evil", []data.Key{"v1.k6"},
				map[data.Key]data.Value{"v1.k6": -1})
			if err != nil {
				t.Fatal(err)
			}

			var pins atomic.Int32
			svc.pinHook = func() {
				run := fmt.Sprintf("late%d", pins.Add(1))
				if err := svc.SubmitRunSpec(run, durableDoc(run, 2)); err != nil {
					t.Errorf("submit %s inside the pin window: %v", run, err)
					return
				}
				deadline := time.Now().Add(10 * time.Second)
				for {
					if info, err := svc.RunInfo(run); err == nil && info.Status == "done" {
						return
					}
					if time.Now().After(deadline) {
						t.Errorf("clean run %s did not commit inside the pin window", run)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
				t.Fatal(err)
			}
			drainRecovery(t, svc)
			waitIdle(t, svc)

			if n := pins.Load(); n < 2 {
				t.Fatalf("view pinned %d times, want the analysis and the repair", n)
			}
			m := svc.Metrics()
			if m.RecoveryErrors != 0 || m.UnitsExecuted < 1 {
				t.Fatalf("repair dropped: %+v (last error: %v)", m, svc.LastRecoveryError())
			}
			if v, _ := svc.Store().Get("v1.k6"); v.Value != durableVal(6) {
				t.Errorf("v1.k6 = %d after repair, benign value is %d", v.Value, durableVal(6))
			}
			for i := int32(1); i <= pins.Load(); i++ {
				k := data.Key(fmt.Sprintf("late%d.k2", i))
				if v, _ := svc.Store().Get(k); v.Value != durableVal(2) {
					t.Errorf("%s = %d, want %d", k, v.Value, durableVal(2))
				}
			}
		})
	}
}

// TestCoverageViolationFallsBackScoped reaches the repair's coverage
// fallback: a run registered and committed between the damage-key closure
// and the pause reads a damaged key and a clean one, so the repair's damaged
// components reach keys outside the quiesced set. The unit must be repaired
// again with every shard quiesced — still damage-scoped — and end at the
// benign execution with no recovery error. Strict mode holds every shard
// already: there the late run only registers, and executes after the repair.
func TestCoverageViolationFallsBackScoped(t *testing.T) {
	for _, mode := range []string{"memory", "durable", "strict"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{Shards: 2, Strict: mode == "strict"}
			var svc *Service
			var err error
			if mode == "durable" {
				svc, err = NewDurable(cfg, t.TempDir(), durable.Options{})
			} else {
				svc, err = New(cfg, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			svc.Observe(reg)
			svc.Start()
			t.Cleanup(svc.Stop)

			if err := svc.SubmitRunSpec("v", durableDoc("v", 4)); err != nil {
				t.Fatal(err)
			}
			if err := svc.SubmitRunSpec("c", durableDoc("c", 2)); err != nil {
				t.Fatal(err)
			}
			waitIdle(t, svc)
			inst, err := svc.InjectForged("intruder", "evil", nil, map[data.Key]data.Value{"v.k4": -1})
			if err != nil {
				t.Fatal(err)
			}

			bridge := &wfjson.SpecJSON{Name: "bridge", Start: "t1", Tasks: []wfjson.TaskJSON{
				{ID: "t1", Reads: []string{"v.k4", "c.k2"}, Writes: []string{"bridge.k1"}, Bias: 1},
			}}
			var hooked atomic.Bool
			svc.closureHook = func() {
				if hooked.Swap(true) {
					return
				}
				if err := svc.SubmitRunSpec("bridge", bridge); err != nil {
					t.Errorf("submit inside the closure window: %v", err)
					return
				}
				if cfg.Strict {
					return
				}
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
					if info, err := svc.RunInfo("bridge"); err == nil && info.Status == "done" {
						return
					}
					if time.Now().After(deadline) {
						t.Error("bridging run did not commit inside the closure window")
						return
					}
				}
			}
			if err := svc.Report([]wlog.InstanceID{inst}); err != nil {
				t.Fatal(err)
			}
			drainRecovery(t, svc)
			waitIdle(t, svc)

			m := svc.Metrics()
			if !hooked.Load() || m.RecoveryErrors != 0 || m.UnitsExecuted != 1 {
				t.Fatalf("hooked %v, metrics %+v (last error: %v)", hooked.Load(), m, svc.LastRecoveryError())
			}
			h := reg.Histogram(obs.MShardQuiescedShards, obs.TickBuckets)
			if h.Count() != 1 || h.Total() != float64(cfg.Shards) {
				t.Errorf("quiesced shards: %d observations totalling %v, want one of %d (the full-quiescence fallback)",
					h.Count(), h.Total(), cfg.Shards)
			}
			want := map[data.Key]data.Value{
				"v.k1": 1, "v.k2": 3, "v.k3": 6, "v.k4": 10,
				"c.k1": 1, "c.k2": 3,
				"bridge.k1": 10 + 3 + 1,
			}
			if got := svc.Store().Snapshot(); !maps.Equal(got, want) {
				t.Errorf("store after repair = %v, benign execution = %v", got, want)
			}
		})
	}
}
