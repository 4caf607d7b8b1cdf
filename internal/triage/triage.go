// Package triage is the streaming front-end of the alert pipeline: it turns
// a burst of raw IDS alerts into the minimum set of damage-assessment calls
// the recovery analyzer actually has to make. Under Poisson alert storms the
// per-alert pipeline is exactly the overload regime §V's CTMC predicts — the
// analyzer's service rate μ_a degrades with queue length while arrivals keep
// coming, the bounded buffer fills, and the loss probability spikes. Triage
// attacks the arrival side of that balance the way SLEUTH's real-time tag
// propagation does (PAPERS.md): aggregate provenance cheaply *before* deep
// analysis, so the expensive work scales with the number of independent
// attacks, not with the number of alerts the IDS emitted about them.
//
// Three independent mechanisms compose (each its own Options flag):
//
//   - Cone coalescing (Partition): alerts whose damage cones — the →_f*
//     flow closures of their reported bad sets over an epoch-pinned
//     deps.Graph snapshot — intersect are folded into one Cone, producing
//     one AnalyzeGraph call per cone instead of per alert. A union-find
//     over closure membership keeps the partition O(cone) per alert.
//   - Covered-alert prefilter: a refcounted signature set over
//     the damage closures of in-flight recovery units. An alert whose bad
//     set lies entirely inside a queued or executing unit's closure is
//     dropped in O(|bad|): the unit's repair re-analyzes the log at
//     execution time, so the alert's damage is already scheduled for undo
//     and (per Theorem 2) redo. Signatures are released — the prefilter
//     re-arms — when the unit completes, so nothing is silently lost:
//     alerts arriving after completion trigger a fresh analysis.
//   - Report-time dedupe (Key): an alert whose canonical bad set is
//     already sitting in the alert queue is absorbed without consuming
//     buffer space or an analysis.
//
// Stage composes them into the recovery analyzer of Fig 2, the one both
// runtimes that analyze alerts run: internal/selfheal under its
// deterministic tick discipline and internal/shard on its recovery
// goroutine, each with its own queue. docs/TRIAGE.md maps each mechanism
// to the paper's loss model.
package triage

import (
	"slices"
	"sort"
	"strings"

	"selfheal/internal/deps"
	"selfheal/internal/wlog"
)

// Alert is one IDS report entering triage: the set of instances reported
// malicious.
type Alert struct {
	Bad []wlog.InstanceID
}

// Options selects the triage mechanisms. The zero value disables all of
// them — the runtime behaves exactly like the pre-triage per-alert
// pipeline (the configuration the CTMC models).
type Options struct {
	// Coalesce drains the alert queue in batches and partitions the batch
	// into damage cones, analyzing once per cone.
	Coalesce bool
	// Prefilter drops alerts whose bad set is already inside the damage
	// closure of a queued or executing recovery unit.
	Prefilter bool
	// Dedupe absorbs Report-time repeats of a bad set that is already
	// queued and unanalyzed.
	Dedupe bool
}

// All enables every triage mechanism.
func All() Options { return Options{Coalesce: true, Prefilter: true, Dedupe: true} }

// Enabled reports whether any mechanism is on.
func (o Options) Enabled() bool { return o.Coalesce || o.Prefilter || o.Dedupe }

// Key returns the canonical dedupe key of a bad set: member order and
// multiplicity do not matter. Instance IDs never contain NUL, so the join
// is unambiguous.
func Key(bad []wlog.InstanceID) string {
	ids := make([]string, len(bad))
	for i, id := range bad {
		ids[i] = string(id)
	}
	sort.Strings(ids)
	return strings.Join(ids, "\x00")
}

// Cone is one coalesced damage cone: the union of the bad sets of every
// alert whose flow closure touches it.
type Cone struct {
	// Bad is the deduplicated, sorted union of the member alerts' bad sets.
	Bad []wlog.InstanceID
	// Alerts counts the source alerts folded into the cone.
	Alerts int
}

// Partition groups alerts into damage cones over the graph snapshot g: two
// alerts share a cone iff their →_f* closures intersect. Because the flow
// closure of a union of seeds is the union of the seeds' closures, each
// cone's eventual AnalyzeGraph call assesses exactly the damage the member
// alerts would have produced separately — coalescing changes the number of
// analyses, never the analyzed set.
//
// Alerts with an empty bad set name no damage: they are dropped first and
// join no cone.
//
// Cost: one closure walk per alert (each scales with that alert's cone, not
// the log) plus near-O(1) union-find folds. Cones are returned in
// deterministic order (sorted by their smallest bad instance).
func Partition(g *deps.Graph, alerts []Alert) []Cone {
	alerts = slices.DeleteFunc(slices.Clone(alerts), func(a Alert) bool { return len(a.Bad) == 0 })
	if len(alerts) == 0 {
		return nil
	}
	// Union-find over alert indices.
	parent := make([]int, len(alerts))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}

	// claimed maps each closure instance to the first alert that reached
	// it; a second alert reaching it proves the cones intersect.
	claimed := make(map[wlog.InstanceID]int)
	seed := make(map[wlog.InstanceID]bool)
	for i, a := range alerts {
		clear(seed)
		for _, id := range a.Bad {
			seed[id] = true
		}
		for id := range g.ReadersClosure(seed) {
			if j, ok := claimed[id]; ok {
				parent[find(i)] = find(j)
			} else {
				claimed[id] = i
			}
		}
	}

	// Fold each group's bad sets into one cone, groups in order of their
	// first alert, then cones by their smallest bad instance.
	groups := make(map[int][]Alert)
	var roots []int
	for i, a := range alerts {
		r := find(i)
		if groups[r] == nil {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], a)
	}
	out := make([]Cone, len(roots))
	for i, r := range roots {
		out[i] = fold(groups[r])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bad[0] < out[j].Bad[0] })
	return out
}

// ConeOf wraps a single alert as its own cone — the degenerate partition
// the per-alert pipeline uses — deduplicating and sorting its bad set
// without touching the dependence graph.
func ConeOf(a Alert) Cone { return fold([]Alert{a}) }

// fold unions the alerts' bad sets into one deduplicated, sorted cone.
func fold(alerts []Alert) Cone {
	seen := make(map[wlog.InstanceID]bool)
	c := Cone{Alerts: len(alerts)}
	for _, a := range alerts {
		for _, id := range a.Bad {
			if !seen[id] {
				seen[id] = true
				c.Bad = append(c.Bad, id)
			}
		}
	}
	sort.Slice(c.Bad, func(i, j int) bool { return c.Bad[i] < c.Bad[j] })
	return c
}
