// Package campaign runs end-to-end attack campaigns against the live
// self-healing runtime: a generated workload executes under the system's
// normal processing while injected attacks corrupt task instances, the
// simulated IDS reports each committed attack after a detection delay, and
// the system scans and recovers on-line. The campaign report aggregates
// what the whole pipeline did and verifies the final corrected history —
// the "system evaluation" complement to the paper's analytical §V.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"selfheal/internal/data"
	"selfheal/internal/engine"
	"selfheal/internal/ids"
	"selfheal/internal/recovery"
	"selfheal/internal/selfheal"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Config describes one campaign.
type Config struct {
	// Seed drives workload generation, attack placement and IDS timing.
	Seed int64
	// Runs is the number of concurrent workflow runs.
	Runs int
	// Gen configures the generated workflows.
	Gen wf.GenConfig
	// Attacks is the number of task corruptions the attacker plants.
	Attacks int
	// AlertRate is the Poisson rate of IDS reporting (per tick).
	AlertRate float64
	// DetectionDelay is the mean exponential delay between an attack
	// committing and its report (in ticks).
	DetectionDelay float64
	// System configures the runtime.
	System selfheal.Config
	// MaxTicks bounds the campaign.
	MaxTicks int
}

// DefaultConfig returns a small but complete campaign.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Runs:           4,
		Gen:            wf.GenConfig{Tasks: 12, Keys: 9, MaxReads: 3, BranchProb: 0.35},
		Attacks:        3,
		AlertRate:      0.2,
		DetectionDelay: 3,
		System:         selfheal.Config{AlertBuf: 8, RecoveryBuf: 8},
		MaxTicks:       2000,
	}
}

// Report aggregates a campaign.
type Report struct {
	// Committed is the total number of committed task instances.
	Committed int
	// AttacksPlanted and AttacksCommitted count corruptions (an attack
	// aimed at a branch the run never took does not fire).
	AttacksPlanted, AttacksCommitted int
	// Reported counts IDS reports delivered; Lost counts those dropped
	// at a full alert buffer.
	Reported, Lost int
	// Metrics is the runtime's own accounting.
	Metrics selfheal.Metrics
	// Ticks is the number of ticks the campaign consumed.
	Ticks int
	// Verified reports whether the final corrected history passed the
	// intrinsic checker.
	Verified bool
	// VerifyErrors lists checker findings when Verified is false.
	VerifyErrors []string
}

// Run executes the campaign.
func Run(cfg Config) (*Report, error) {
	if cfg.Runs < 1 || cfg.MaxTicks < 1 {
		return nil, fmt.Errorf("campaign: bad config: runs=%d maxTicks=%d", cfg.Runs, cfg.MaxTicks)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Workload: generated workflows over a shared pool, with attacks
	// planted on random tasks.
	st := data.NewStore()
	for i := 0; i < cfg.Gen.Keys; i++ {
		st.Init(wf.GenKey(i), data.Value(rng.Intn(20)))
	}
	sys, err := selfheal.New(cfg.System, st)
	if err != nil {
		return nil, err
	}
	specs := make(map[string]*wf.Spec, cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		run := fmt.Sprintf("run%d", i)
		spec := wf.Generate(run, cfg.Gen, rng)
		specs[run] = spec
		if err := sys.StartRun(run, spec); err != nil {
			return nil, err
		}
	}
	rep := &Report{}
	var planned []wlog.InstanceID
	for i := 0; i < cfg.Attacks; i++ {
		runIdx := rng.Intn(cfg.Runs)
		run := fmt.Sprintf("run%d", runIdx)
		spec := specs[run]
		task := wf.TaskID(fmt.Sprintf("t%d", rng.Intn(len(spec.Tasks))))
		corrupt := data.Value(5000 + rng.Intn(1000))
		writes := append([]data.Key(nil), spec.Task(task).Writes...)
		sys.Engine().AddAttack(engine.Attack{
			Run: run, Task: task,
			Compute: func(map[data.Key]data.Value) map[data.Key]data.Value {
				out := make(map[data.Key]data.Value, len(writes))
				for _, k := range writes {
					out[k] = corrupt
				}
				return out
			},
		})
		planned = append(planned, wlog.FormatInstance(run, task, 1))
		rep.AttacksPlanted++
	}

	// IDS timing: Poisson report opportunities with detection delay, in
	// tick units.
	events, err := ids.Schedule(planned, cfg.AlertRate, cfg.DetectionDelay, float64(cfg.MaxTicks), rng)
	if err != nil {
		return nil, err
	}

	// Drive the system tick by tick, delivering due reports for attacks
	// that have committed. Reports whose instance never committed are
	// dropped silently (the attack aimed at an untaken branch).
	next := 0
	reported := make(map[wlog.InstanceID]bool)
	for tick := 0; tick < cfg.MaxTicks; tick++ {
		for next < len(events) && events[next].Time <= float64(tick) {
			ev := events[next]
			next++
			id := ev.Bad[0]
			if _, committed := sys.Log().Get(id); !committed {
				continue
			}
			if reported[id] {
				continue
			}
			reported[id] = true
			rep.Reported++
			if !sys.Report(selfheal.Alert{Bad: ev.Bad}) {
				rep.Lost++
			}
		}
		err := sys.Tick()
		switch {
		case err == nil:
			rep.Ticks++
			continue
		case errors.Is(err, selfheal.ErrIdle):
			rep.Ticks++
			if next >= len(events) && allReportedOrDead(planned, reported, sys.Log()) {
				tick = cfg.MaxTicks // drain complete
			}
			continue
		default:
			return nil, fmt.Errorf("campaign: tick %d: %w", tick, err)
		}
	}

	// Late reports: any committed attack not yet reported gets a final
	// catch-up report (the administrator of §IV.D), then drains.
	for _, id := range planned {
		if _, committed := sys.Log().Get(id); committed && !reported[id] {
			reported[id] = true
			rep.Reported++
			if !sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{id}}) {
				rep.Lost++
			}
		}
	}
	if err := sys.DrainRecovery(context.Background(), 10*cfg.MaxTicks); err != nil {
		return nil, err
	}

	rep.Committed = sys.Log().Len()
	for _, id := range planned {
		if _, ok := sys.Log().Get(id); ok {
			rep.AttacksCommitted++
		}
	}
	rep.Metrics = sys.Metrics()

	// Final verification: one repair over everything reported must yield
	// a valid corrected history.
	var allBad []wlog.InstanceID
	for id := range reported {
		allBad = append(allBad, id)
	}
	res, err := recovery.Repair(sys.Store(), sys.Log(), specs, allBad, cfg.System.Repair)
	if err != nil {
		return nil, err
	}
	errs := recovery.VerifyResult(res, sys.Log(), specs)
	rep.Verified = len(errs) == 0
	for _, e := range errs {
		rep.VerifyErrors = append(rep.VerifyErrors, e.Error())
	}
	return rep, nil
}

// allReportedOrDead reports whether every planned attack has either been
// reported or can never commit (its run is complete without it).
func allReportedOrDead(planned []wlog.InstanceID, reported map[wlog.InstanceID]bool, log *wlog.Log) bool {
	for _, id := range planned {
		if reported[id] {
			continue
		}
		if _, committed := log.Get(id); committed {
			return false
		}
	}
	return true
}
