// Package rtsim validates the self-healing runtime's queueing discipline
// against the analytical STG model by driving the real selfheal.System — the
// real analyzer, the real repair engine, the real bounded queues — in
// virtual time: IDS alerts arrive as a Poisson process, and every SCAN and
// RECOVERY action consumes an exponential virtual duration with the same
// queue-length-dependent rates the CTMC assumes (μ_a = F(μ₁, a),
// ξ_r = G(ξ₁, r)).
//
// Unlike internal/sim, which simulates the transition rules directly, rtsim
// exercises the production code path end to end, so a divergence between the
// implementation's state machine and the model (for example in the
// full-buffer drain rule or the Theorem-4 gating) shows up as a loss or
// occupancy mismatch. The analyzer and the repair it drives are the ones the
// sharded service runs (triage.Stage, machine.Machine); only the §IV.C tick
// discipline is selfheal's own, and RunTriaged passes its triage.Options to
// selfheal.Config unchanged.
package rtsim

import (
	"fmt"
	"math/rand"

	"selfheal/internal/obs"
	"selfheal/internal/scenario"
	"selfheal/internal/selfheal"
	"selfheal/internal/stg"
	"selfheal/internal/triage"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Result aggregates one virtual-time run of the real system.
type Result struct {
	// Horizon is the simulated virtual time.
	Horizon float64
	// TimeNormal, TimeScan, TimeRecovery split the horizon by the
	// system's state.
	TimeNormal, TimeScan, TimeRecovery float64
	// TimeAlertFull is the time the alert buffer was full (arrivals in
	// this window are lost): the loss probability estimate.
	TimeAlertFull float64
	// Reported and Lost count alerts delivered to the system.
	Reported, Lost int
	// Runtime is the system's own accounting.
	Runtime selfheal.Metrics
}

// LossOccupancy returns the fraction of time the alert buffer was full.
func (r *Result) LossOccupancy() float64 {
	if r.Horizon == 0 {
		return 0
	}
	return r.TimeAlertFull / r.Horizon
}

// LostFraction returns the fraction of delivered alerts that were dropped.
func (r *Result) LostFraction() float64 {
	if r.Reported == 0 {
		return 0
	}
	return float64(r.Lost) / float64(r.Reported)
}

// Run drives the real runtime for the given virtual horizon. The workload is
// a completed randomized scenario (seeded); alerts cycle over its malicious
// instances, so every analysis and repair is real work.
func Run(p stg.Params, horizon float64, seed int64) (*Result, error) {
	return RunObserved(p, horizon, seed, nil)
}

// RunObserved is Run with the observability layer wired in: the system, its
// engine and its log register their metrics in reg (see
// docs/OBSERVABILITY.md), and the driver accumulates the virtual-time
// occupancy sums (selfheal_time_*_seconds_total) whose ratios to the
// horizon are the measured π_N/π_S/π_R and loss-edge occupancy that
// `selfheal-sim -metrics` compares against the CTMC predictions. A nil
// registry degrades to Run.
func RunObserved(p stg.Params, horizon float64, seed int64, reg *obs.Registry) (*Result, error) {
	return run(p, horizon, seed, triage.Options{}, reg)
}

// RunTriaged drives the runtime with the streaming triage front-end enabled
// (docs/TRIAGE.md) under the same virtual-time discipline the CTMC assumes
// for the per-alert pipeline. With Coalesce on, one SCAN service drains the
// whole alert queue in a single batched pass charged at the degraded
// single-alert rate μ_a = F(μ₁, a) — the batched walk touches the same
// damage cones one alert's analysis would — and each additional cone the
// partition produced is charged one further exponential service at the base
// rate μ₁ (arrivals during those windows queue without preempting). The gap
// between RunTriaged's measured loss and the model's prediction for the
// same parameters is exactly the coalescing win: the CTMC charges one
// degraded service per alert, triage pays per cone.
func RunTriaged(p stg.Params, horizon float64, seed int64, opts triage.Options, reg *obs.Registry) (*Result, error) {
	return run(p, horizon, seed, opts, reg)
}

func run(p stg.Params, horizon float64, seed int64, opts triage.Options, reg *obs.Registry) (*Result, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("rtsim: horizon must be positive, got %g", horizon)
	}
	if _, err := stg.New(p); err != nil {
		return nil, err
	}
	f, g := p.F, p.G
	if f == nil {
		f = stg.DegradeLinear
	}
	if g == nil {
		g = stg.DegradeLinear
	}

	// A small attacked workload: its bad instances feed the alert stream.
	sc, err := attackedWorkload(seed)
	if err != nil {
		return nil, err
	}
	sys, err := selfheal.NewWithEngine(
		selfheal.Config{AlertBuf: p.AlertBuf, RecoveryBuf: p.RecoveryBuf, Triage: opts},
		sc.Engine, sc.Specs)
	if err != nil {
		return nil, err
	}
	sys.Observe(reg)
	// Virtual-time occupancy sums; nil when reg is nil, and the nil-safe
	// obs primitives swallow the Adds.
	timeByClass := [3]*obs.Sum{
		stg.Normal:   reg.Sum(obs.MTimeNormalSeconds),
		stg.Scan:     reg.Sum(obs.MTimeScanSeconds),
		stg.Recovery: reg.Sum(obs.MTimeRecoverySeconds),
	}
	timeLossEdge := reg.Sum(obs.MTimeLossEdgeSeconds)

	rng := rand.New(rand.NewSource(seed))
	res := &Result{Horizon: horizon}
	clock := 0.0
	nextArrival := clock + rng.ExpFloat64()/p.Lambda
	badIdx := 0

	account := func(dt float64) {
		cls := sys.State()
		timeByClass[cls].Add(dt)
		switch cls {
		case stg.Normal:
			res.TimeNormal += dt
		case stg.Scan:
			res.TimeScan += dt
		case stg.Recovery:
			res.TimeRecovery += dt
		}
		if a, _ := sys.QueueLengths(); a == p.AlertBuf {
			res.TimeAlertFull += dt
			timeLossEdge.Add(dt)
		}
	}

	prevCones := 0
	for clock < horizon {
		// Determine the system's next action and its virtual duration.
		a, r := sys.QueueLengths()
		var rate float64
		scanAction := false
		switch {
		case r >= p.RecoveryBuf: // forced drain
			rate = g(p.Xi1, r)
		case a > 0: // scan
			rate = f(p.Mu1, a)
			scanAction = true
		case r > 0: // recovery
			rate = g(p.Xi1, r)
		default:
			// Idle: jump to the next arrival.
			dt := nextArrival - clock
			if clock+dt > horizon {
				account(horizon - clock)
				clock = horizon
				continue
			}
			account(dt)
			clock = nextArrival
			deliver(sys, sc, &badIdx, res)
			nextArrival = clock + rng.ExpFloat64()/p.Lambda
			continue
		}
		dur := rng.ExpFloat64() / rate
		end := clock + dur
		// An arrival during the service interval changes the state — and
		// with it which transition is enabled (recovery is disabled once
		// an alert is queued, §IV.C). Mirror the CTMC exactly: deliver
		// the alert and re-evaluate the action. Exponential
		// memorylessness makes abandoning the in-flight service
		// statistically identical to suspending it.
		if nextArrival < end && nextArrival < horizon {
			account(nextArrival - clock)
			clock = nextArrival
			deliver(sys, sc, &badIdx, res)
			nextArrival = clock + rng.ExpFloat64()/p.Lambda
			continue
		}
		if end > horizon {
			account(horizon - clock)
			clock = horizon
			break
		}
		account(end - clock)
		clock = end
		if err := sys.Tick(); err != nil {
			return nil, fmt.Errorf("rtsim: tick at t=%g: %w", clock, err)
		}
		// A coalesced SCAN pass already paid one degraded service; charge
		// each additional damage cone it produced a base-rate analysis.
		// Arrivals inside these windows queue without preempting — the
		// batched pass is one uninterruptible walk.
		if scanAction && opts.Coalesce {
			m := sys.Metrics()
			extra := m.ConesAnalyzed - prevCones - 1
			prevCones = m.ConesAnalyzed
			for ; extra > 0 && clock < horizon; extra-- {
				end := clock + rng.ExpFloat64()/p.Mu1
				for nextArrival < end && nextArrival < horizon {
					account(nextArrival - clock)
					clock = nextArrival
					deliver(sys, sc, &badIdx, res)
					nextArrival = clock + rng.ExpFloat64()/p.Lambda
				}
				if end > horizon {
					account(horizon - clock)
					clock = horizon
					break
				}
				account(end - clock)
				clock = end
			}
		}
	}
	res.Runtime = sys.Metrics()
	return res, nil
}

func deliver(sys *selfheal.System, sc *scenario.Scenario, badIdx *int, res *Result) {
	bad := sc.Bad[*badIdx%len(sc.Bad)]
	*badIdx++
	res.Reported++
	if !sys.Report(selfheal.Alert{Bad: []wlog.InstanceID{bad}}) {
		res.Lost++
	}
}

func attackedWorkload(seed int64) (*scenario.Scenario, error) {
	cfg := scenario.RandomConfig{
		Runs:    2,
		Gen:     wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, BranchProb: 0.3},
		Attacks: 3,
		Forged:  1,
	}
	for attempt := int64(0); attempt < 20; attempt++ {
		sc, err := scenario.Random(seed+attempt*7919, cfg, true)
		if err != nil {
			return nil, err
		}
		if len(sc.Bad) > 0 {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("rtsim: no committed attacks for seed %d", seed)
}
