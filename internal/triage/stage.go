package triage

import (
	"sync"
	"time"

	"selfheal/internal/deps"
	"selfheal/internal/obs"
	"selfheal/internal/recovery"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Stage is the recovery analyzer of Fig 2 (§IV.C) as every runtime runs it:
// queued alerts in, units of recovery tasks out, with the mechanisms its
// Options select. Each runtime keeps its own queues, locks and scheduling
// discipline, and calls the stage at the two points they share: when an
// alert is admitted to its queue (Absorbs, Queued) and when a drained batch
// is analyzed (Analyze). Safe from any goroutine.
type Stage struct {
	opts Options

	mu sync.Mutex
	// pending refcounts the canonical bad-set keys sitting unanalyzed in
	// the runtime's alert queue (Options.Dedupe).
	pending map[string]int
	// covered refcounts the instances in the signatures of the units not
	// yet done (Options.Prefilter), so overlapping units compose: an
	// instance stays covered until every unit whose closure holds it is
	// done.
	covered map[wlog.InstanceID]int
	counts  Counts

	o stageObs
}

// Counts is a stage's cumulative accounting.
type Counts struct {
	// Analyzed counts alerts that reached an analysis; Cones counts the
	// analyses (AnalyzeGraph calls), so Analyzed/Cones is the coalescing
	// fold.
	Analyzed, Cones int
	// Prefiltered counts alerts dropped because an in-flight unit's damage
	// closure covered them; Deduped counts alerts absorbed at admission by
	// a queued twin.
	Prefiltered, Deduped int
}

// stageObs is the stage's optional instrumentation; zero means off (obs
// handles are nil-safe).
type stageObs struct {
	analyzed, cones, prefiltered, deduped *obs.Counter
	coneSize, coalesceRatio, seconds      *obs.Histogram
}

// Unit is one unit of recovery tasks: one damage cone and its analysis
// (§IV.C: "1 unit of recovery tasks corresponds to a set of tasks for
// repairing damages caused by 1 attack").
type Unit struct {
	Cone
	Analysis *recovery.Analysis
	// armed is the stage whose prefilter the unit's signature covers, until
	// Done; nil when Options.Prefilter is off.
	armed *Stage
}

// Done re-arms the covered-alert prefilter once the unit's repair is over,
// failed or not: a finished unit covers nothing. Idempotent; the unit's
// driver calls it.
func (u *Unit) Done() {
	if s := u.armed; s != nil {
		u.armed = nil
		s.mu.Lock()
		for _, id := range u.Analysis.DefiniteUndo {
			if s.covered[id]--; s.covered[id] <= 0 {
				delete(s.covered, id)
			}
		}
		s.mu.Unlock()
	}
}

// NewStage returns a stage running the mechanisms opts selects.
func NewStage(opts Options) *Stage {
	return &Stage{opts: opts, pending: make(map[string]int), covered: make(map[wlog.InstanceID]int)}
}

// Observe wires the stage's metrics into reg (docs/OBSERVABILITY.md); nil
// leaves them off.
func (s *Stage) Observe(reg *obs.Registry) {
	s.o = stageObs{
		analyzed:      reg.Counter(obs.MAlertsAnalyzed),
		cones:         reg.Counter(obs.MTriageCones),
		prefiltered:   reg.Counter(obs.MTriagePrefilterHits),
		deduped:       reg.Counter(obs.MTriageDeduped),
		coneSize:      reg.Histogram(obs.MTriageConeSize, obs.TickBuckets),
		coalesceRatio: reg.Histogram(obs.MTriageCoalesceRatio, obs.TickBuckets),
		seconds:       reg.Histogram(obs.MAnalyzeSeconds, obs.LatencyBuckets),
	}
}

// Counts returns a copy of the stage's accounting.
func (s *Stage) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// Absorbs reports whether an alert about to be admitted is absorbed by a
// queued, unanalyzed twin with the same bad set (Options.Dedupe), and
// counts it: the twin's analysis covers it, so it takes neither queue space
// nor an analysis.
func (s *Stage) Absorbs(bad []wlog.InstanceID) bool {
	if !s.opts.Dedupe {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[Key(bad)] == 0 {
		return false
	}
	s.counts.Deduped++
	s.o.deduped.Inc()
	return true
}

// Queued notes that an alert entered the runtime's queue, so a twin
// admitted before it is analyzed is absorbed.
func (s *Stage) Queued(bad []wlog.InstanceID) {
	if s.opts.Dedupe {
		s.mu.Lock()
		s.pending[Key(bad)]++
		s.mu.Unlock()
	}
}

// Analyze turns a batch drained from the runtime's queue into units of
// recovery tasks, over a dependence graph g pinned by the caller and the
// specs registered when it was pinned. The batch's alerts leave the dedupe
// set; an alert whose bad set lies inside the damage closure of a queued or
// executing unit is dropped (Options.Prefilter); the rest are partitioned
// into damage cones (Options.Coalesce) or each is its own cone, and every
// cone gets exactly one recovery.AnalyzeGraph call. Each unit arms the
// prefilter with its DefiniteUndo set — the instances its repair is
// guaranteed to undo and, per Theorem 2, re-execute where legitimate;
// candidate undos would cover an alert with work that might not happen —
// until its Done.
func (s *Stage) Analyze(g *deps.Graph, log *wlog.Log, specs map[string]*wf.Spec, batch []Alert) []*Unit {
	survivors := make([]Alert, 0, len(batch))
	s.mu.Lock()
	for _, a := range batch {
		if s.opts.Dedupe {
			k := Key(a.Bad)
			if s.pending[k]--; s.pending[k] <= 0 {
				delete(s.pending, k)
			}
		}
		if s.opts.Prefilter && s.coveredLocked(a.Bad) {
			s.counts.Prefiltered++
			s.o.prefiltered.Inc()
			continue
		}
		survivors = append(survivors, a)
	}
	s.mu.Unlock()

	var cones []Cone
	switch {
	case len(survivors) == 0:
		// Every drained alert was covered by an in-flight unit.
	case s.opts.Coalesce:
		cones = Partition(g, survivors)
	default:
		for _, a := range survivors {
			cones = append(cones, ConeOf(a))
		}
	}
	units := make([]*Unit, len(cones))
	for i, c := range cones {
		start := time.Now()
		u := &Unit{Cone: c, Analysis: recovery.AnalyzeGraph(g, log, specs, c.Bad)}
		s.o.seconds.Observe(time.Since(start).Seconds())
		if s.opts.Prefilter {
			s.mu.Lock()
			for _, id := range u.Analysis.DefiniteUndo {
				s.covered[id]++
			}
			s.mu.Unlock()
			u.armed = s
		}
		units[i] = u
		s.o.coneSize.Observe(float64(c.Alerts))
	}
	if len(cones) > 0 {
		s.o.coalesceRatio.Observe(float64(len(survivors)) / float64(len(cones)))
	}
	s.mu.Lock()
	s.counts.Analyzed += len(survivors)
	s.counts.Cones += len(cones)
	s.mu.Unlock()
	s.o.analyzed.Add(int64(len(survivors)))
	s.o.cones.Add(int64(len(cones)))
	return units
}

// coveredLocked reports whether every instance of bad lies inside the
// signature of a unit not yet done — O(|bad|). An empty bad set is never
// covered. Callers hold s.mu.
func (s *Stage) coveredLocked(bad []wlog.InstanceID) bool {
	for _, id := range bad {
		if s.covered[id] == 0 {
			return false
		}
	}
	return len(bad) > 0
}
