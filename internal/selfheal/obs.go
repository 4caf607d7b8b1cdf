package selfheal

import (
	"selfheal/internal/obs"
	"selfheal/internal/stg"
)

// sysObs is the runtime's instrumentation. The zero value is "off": every
// metric pointer is nil and the nil-safe obs primitives swallow all
// updates, so an uninstrumented System pays only the enabled check on the
// paths that need a State() computation.
type sysObs struct {
	enabled bool

	reported, lost             *obs.Counter
	normalSteps                *obs.Counter
	concurrentSteps, eagerUnit *obs.Counter

	// ticks counts processed ticks per state class, indexed by stg.Class.
	ticks [3]*obs.Counter
	// dwell observes consecutive ticks spent in a state before leaving it.
	dwell [3]*obs.Histogram

	alertDepth, recoveryDepth, state *obs.Gauge
	transitions                      *obs.Counter

	repairSeconds *obs.Histogram
	prevState     stg.Class
	ticksInState  int64
}

// Observe wires the runtime, its engine, its log, its analyzer stage and
// its repair tally into reg — the metric catalog is docs/OBSERVABILITY.md.
// Call it before driving the system; a nil registry leaves instrumentation
// off (the default).
func (s *System) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.Engine().Observe(reg)
	s.Log().Observe(reg)
	s.stage.Observe(reg)
	s.tally.Observe(reg)
	s.o = sysObs{
		enabled:         true,
		reported:        reg.Counter(obs.MAlertsReported),
		lost:            reg.Counter(obs.MAlertsLost),
		normalSteps:     reg.Counter(obs.MNormalSteps),
		concurrentSteps: reg.Counter(obs.MConcurrentNormalSteps),
		eagerUnit:       reg.Counter(obs.MEagerUnits),
		ticks: [3]*obs.Counter{
			stg.Normal:   reg.Counter(obs.MTicksNormal),
			stg.Scan:     reg.Counter(obs.MTicksScan),
			stg.Recovery: reg.Counter(obs.MTicksRecovery),
		},
		dwell: [3]*obs.Histogram{
			stg.Normal:   reg.Histogram(obs.MDwellNormalTicks, obs.TickBuckets),
			stg.Scan:     reg.Histogram(obs.MDwellScanTicks, obs.TickBuckets),
			stg.Recovery: reg.Histogram(obs.MDwellRecoveryTicks, obs.TickBuckets),
		},
		alertDepth:    reg.Gauge(obs.MAlertQueueDepth),
		recoveryDepth: reg.Gauge(obs.MRecoveryQueueDepth),
		state:         reg.Gauge(obs.MState),
		transitions:   reg.Counter(obs.MStateTransitions),
		repairSeconds: reg.Histogram(obs.MRepairSeconds, obs.LatencyBuckets),
		prevState:     s.State(),
	}
	s.o.state.Set(int64(s.o.prevState))
	s.o.alertDepth.Set(int64(len(s.alertQ)))
	s.o.recoveryDepth.Set(int64(len(s.recoveryQ)))
}

// queues refreshes the depth gauges (STG coordinates a and r).
func (o *sysObs) queues(alerts, units int) {
	o.alertDepth.Set(int64(alerts))
	o.recoveryDepth.Set(int64(units))
}

// checkState records a NORMAL/SCAN/RECOVERY transition: the dwell time (in
// ticks) of the state being left, the transition count, and the new class.
func (o *sysObs) checkState(now stg.Class) {
	if !o.enabled || now == o.prevState {
		return
	}
	o.dwell[o.prevState].Observe(float64(o.ticksInState))
	o.ticksInState = 0
	o.prevState = now
	o.transitions.Inc()
	o.state.Set(int64(now))
}

// afterTick attributes one processed tick to the current state and detects
// transitions the tick caused.
func (o *sysObs) afterTick(now stg.Class) {
	if !o.enabled {
		return
	}
	o.ticksInState++
	o.checkState(now)
}
