package recovery

import (
	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// DamageKeyClosure computes the §IV quiesce scope for a repair: the union of
// the key-footprint components containing any key an instance in the seed
// sets (the accused instances plus the worst-case undo estimate) read or
// wrote. Quiescing whole components — not just the touched keys — is what
// lets the repair's fixpoint grow safely: any instance the replay later
// discovers to be damaged shares a component with the seeds, because damage
// propagates only through shared data objects. Keys touched only by forged
// instances, outside every specification's footprint, are included directly.
//
// The single-process service quiesces execution on these keys; the cluster
// uses the same closure to decide which nodes' key ranges must pause, so a
// node owning no damaged component keeps serving during repair.
func DamageKeyClosure(log *wlog.Log, specs map[string]*wf.Spec, seedSets ...[]wlog.InstanceID) map[data.Key]bool {
	// Runs of one workflow shape share one footprint (a sealed spec's is
	// interned), so each distinct footprint is joined once.
	uf := newKeyUnion()
	for _, sp := range specs {
		uf.join(sp.Footprint())
	}

	seeds := make(map[data.Key]bool)
	addEntry := func(id wlog.InstanceID) {
		e, ok := log.Get(id)
		if !ok {
			return
		}
		for _, w := range e.Writes {
			seeds[w.Key] = true
		}
		for _, r := range e.Reads {
			seeds[r.Key] = true
		}
		if sp := specs[e.Run]; sp != nil {
			for _, k := range sp.Footprint() {
				seeds[k] = true
			}
		}
	}
	for _, set := range seedSets {
		for _, id := range set {
			addEntry(id)
		}
	}

	roots := make(map[data.Key]bool)
	for k := range seeds {
		roots[uf.find(k)] = true
	}
	out := make(map[data.Key]bool, len(seeds))
	for k := range uf.parent {
		if roots[uf.find(k)] {
			out[k] = true
		}
	}
	for k := range seeds {
		out[k] = true // forged-only keys outside every footprint
	}
	return out
}
