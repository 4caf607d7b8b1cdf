package shard

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"selfheal/internal/data"
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
