package machine

import (
	"fmt"
	"sync"

	"selfheal/internal/obs"
	"selfheal/internal/recovery"
)

// Tally is the repair accounting every runtime keeps beside its machine:
// units installed, the instances they undid, redid and newly executed, the
// repairs that failed and the Theorem-3 audit violations found, with the
// last error of each kind. Safe from any goroutine.
type Tally struct {
	mu sync.Mutex
	c  Counts
	o  tallyObs
}

// Counts is a Tally's cumulative accounting.
type Counts struct {
	Units, Undone, Redone, NewExecuted, Errors, AuditViolations int
	// LastErr is the last failure recorded (Fail, Note); LastAudit the
	// last audit violation.
	LastErr, LastAudit error
}

// tallyObs is the tally's optional instrumentation; zero means off (obs
// handles are nil-safe).
type tallyObs struct {
	units, undone, redone, newExec           *obs.Counter
	analyze, undo, redo, components, workers *obs.Histogram
}

// Observe wires the tally into reg: the unit and instance counters and the
// repair phase histograms (docs/OBSERVABILITY.md); nil leaves them off.
func (t *Tally) Observe(reg *obs.Registry) {
	t.o = tallyObs{
		units:      reg.Counter(obs.MUnitsExecuted),
		undone:     reg.Counter(obs.MUndone),
		redone:     reg.Counter(obs.MRedone),
		newExec:    reg.Counter(obs.MNewExecuted),
		analyze:    reg.Histogram(obs.MRepairAnalyzeSeconds, obs.LatencyBuckets),
		undo:       reg.Histogram(obs.MRepairUndoSeconds, obs.LatencyBuckets),
		redo:       reg.Histogram(obs.MRepairRedoSeconds, obs.LatencyBuckets),
		components: reg.Histogram(obs.MRepairComponents, obs.TickBuckets),
		workers:    reg.Histogram(obs.MRepairWorkers, obs.TickBuckets),
	}
}

// Computed records what only the machine that computed a repair knows: its
// phase timings and, with audit set, a check of its schedule against the
// Theorem-3 partial orders (recovery.AuditSchedule).
func (t *Tally) Computed(res *recovery.Result, audit bool) {
	if audit {
		if violations := recovery.AuditSchedule(res); len(violations) > 0 {
			t.mu.Lock()
			t.c.AuditViolations += len(violations)
			t.c.LastAudit = fmt.Errorf("repair schedule violates Theorem-3 orders: %w", violations[0])
			t.mu.Unlock()
		}
	}
	t.o.analyze.Observe(res.Phases.Analyze.Seconds())
	t.o.undo.Observe(res.Phases.Undo.Seconds())
	t.o.redo.Observe(res.Phases.Redo.Seconds())
	t.o.components.Observe(float64(res.Components))
	t.o.workers.Observe(float64(res.Workers))
}

// Installed adds one installed repair: a unit and the instances its effect
// undid, redid and newly executed.
func (t *Tally) Installed(eff Effect) {
	t.mu.Lock()
	t.c.Units++
	t.c.Undone += eff.Undone
	t.c.Redone += eff.Redone
	t.c.NewExecuted += eff.NewExecuted
	t.mu.Unlock()
	t.o.units.Inc()
	t.o.undone.Add(int64(eff.Undone))
	t.o.redone.Add(int64(eff.Redone))
	t.o.newExec.Add(int64(eff.NewExecuted))
}

// Fail counts a unit whose repair failed and keeps err as the last error.
func (t *Tally) Fail(err error) {
	t.mu.Lock()
	t.c.Errors++
	t.c.LastErr = err
	t.mu.Unlock()
}

// Note keeps err as the last error without counting a failed unit: a
// failure beside the repairs, such as a checkpoint's.
func (t *Tally) Note(err error) {
	t.mu.Lock()
	t.c.LastErr = err
	t.mu.Unlock()
}

// Counts returns a copy of the accounting.
func (t *Tally) Counts() Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}
