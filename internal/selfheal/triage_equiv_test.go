package selfheal_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/scenario"
	"selfheal/internal/selfheal"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// TestTriageEquivalentToNaive is the triage soundness property: across
// randomized attacked workloads and randomized alert schedules (bursts with
// duplicates, interleaved ticks), the fully triaged pipeline — cone
// coalescing, covered-alert prefilter and Report-time dedupe — must reach
// exactly the final store the naive per-alert pipeline reaches, with intact
// version indexes. Triage may only change how many analyses run, never what
// gets repaired. Run under -race in CI, so the Coverage refcounting and
// dedupe bookkeeping are exercised for data races too.
func TestTriageEquivalentToNaive(t *testing.T) {
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := scenario.RandomConfig{
				Runs:    2,
				Gen:     wf.GenConfig{Tasks: 7, Keys: 6, MaxReads: 2, BranchProb: 0.3},
				Attacks: 2,
				Forged:  1,
			}
			// Two independent builds of the same seed yield identical
			// engines; each system repairs its own copy.
			scA, err := scenario.Random(seed, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			scB, err := scenario.Random(seed, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if !data.Equal(scA.Store(), scB.Store()) {
				t.Fatal("scenario build is not deterministic per seed")
			}
			if len(scA.Bad) == 0 {
				t.Skip("no committed attacks for this seed")
			}

			naive, err := selfheal.NewWithEngine(
				selfheal.Config{AlertBuf: 256, RecoveryBuf: 4},
				scA.Engine, scA.Specs)
			if err != nil {
				t.Fatal(err)
			}
			triaged, err := selfheal.NewWithEngine(
				selfheal.Config{AlertBuf: 256, RecoveryBuf: 4, Triage: triage.All()},
				scB.Engine, scB.Specs)
			if err != nil {
				t.Fatal(err)
			}

			// Identical randomized alert schedule for both systems: bursts
			// with duplicate and overlapping bad sets, ticks interleaved so
			// coverage is armed (prefilter hits) and queues refill
			// mid-recovery. Every committed attack is reported at least
			// once at the end so both systems repair everything.
			rng := rand.New(rand.NewSource(seed*7919 + 13))
			drive := func(a selfheal.Alert) {
				if !naive.Report(selfheal.Alert{Bad: append([]wlog.InstanceID(nil), a.Bad...)}) {
					t.Fatal("naive system lost an alert (buffer sized for zero loss)")
				}
				if !triaged.Report(selfheal.Alert{Bad: append([]wlog.InstanceID(nil), a.Bad...)}) {
					t.Fatal("triaged system lost an alert (buffer sized for zero loss)")
				}
			}
			bursts := 2 + rng.Intn(4)
			for b := 0; b < bursts; b++ {
				n := 1 + rng.Intn(8)
				for i := 0; i < n; i++ {
					bad := []wlog.InstanceID{scA.Bad[rng.Intn(len(scA.Bad))]}
					if rng.Intn(3) == 0 { // multi-instance alert
						bad = append(bad, scA.Bad[rng.Intn(len(scA.Bad))])
					}
					drive(selfheal.Alert{Bad: bad})
				}
				for ticks := rng.Intn(6); ticks > 0; ticks-- {
					_ = naive.Tick()
					_ = triaged.Tick()
				}
			}
			for _, bad := range scA.Bad {
				drive(selfheal.Alert{Bad: []wlog.InstanceID{bad}})
			}

			ctx := context.Background()
			if err := naive.DrainRecovery(ctx, 100000); err != nil {
				t.Fatalf("naive drain: %v", err)
			}
			if err := triaged.DrainRecovery(ctx, 100000); err != nil {
				t.Fatalf("triaged drain: %v", err)
			}

			if !data.Equal(naive.Store(), triaged.Store()) {
				t.Errorf("final stores diverge\nnaive:   %v\ntriaged: %v",
					naive.Store().Snapshot(), triaged.Store().Snapshot())
			}
			if err := naive.Store().CheckIndex(); err != nil {
				t.Errorf("naive index: %v", err)
			}
			if err := triaged.Store().CheckIndex(); err != nil {
				t.Errorf("triaged index: %v", err)
			}

			nm, tm := naive.Metrics(), triaged.Metrics()
			if nm.AlertsLost != 0 || tm.AlertsLost != 0 {
				t.Fatalf("alert loss in a zero-loss schedule: naive %d, triaged %d",
					nm.AlertsLost, tm.AlertsLost)
			}
			// The triaged pipeline must not do more analyses than naive.
			if tm.ConesAnalyzed > nm.ConesAnalyzed {
				t.Errorf("triage increased analyses: %d > %d", tm.ConesAnalyzed, nm.ConesAnalyzed)
			}
		})
	}
}
