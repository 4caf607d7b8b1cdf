// Package cluster turns the single-process self-healing workflow service
// into a networked deployment: N selfheal-server processes, each holding a
// full replica of the system log, the versioned store and the per-run
// execution state, coordinating over an internal HTTP API
// (/internal/v1/...).
//
// The design follows §VII of the paper (per-node log segments merged into
// one global stamp order) with a single sequencer: the cluster member with
// the lowest sorted node ID — the stamper — assigns every record its dense
// stream position and validates task submissions against its replica
// (optimistic concurrency: a submission whose observed read versions are no
// longer current is rejected and re-executed by its owner). All other state
// is derived deterministically from the replicated record stream, so any
// two nodes that applied the same prefix hold byte-identical stores — the
// equivalence the cluster tests assert against a single-node deployment.
//
// A run's first window of tasks executes on the node that admits it and
// travels with its registration, so the spec and those entries commit in one
// stamp group. Ownership decides who continues a run that window did not
// finish: work is partitioned by a static key-range ring — each run is owned
// by the node owning the hash of its ID, and each task by the node owning
// the task's first write key — so such a workflow's control token genuinely
// travels between processes. The stamper is also the cluster's one incident
// leader: every node admits its alerts on the stamper's queue, and for each
// incident the stamper pauses only the damaged keys at its admission gate
// (§IV partial quiescence), computes the repair once at the stream head and
// stamps its effect as an adopt record, which every node installs at the
// same position.
package cluster

import (
	"hash/fnv"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/wf"
)

// Ring is the static key-range ownership map: the sorted member IDs split
// the 32-bit FNV-1a hash space into len(ids) contiguous equal ranges, range
// i owned by member i. Membership is fixed at boot (-peers), so every node
// derives the identical ring with no coordination.
type Ring struct {
	ids []string
}

// NewRing builds the ring over the given member IDs (order irrelevant).
func NewRing(ids []string) *Ring {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	return &Ring{ids: sorted}
}

// Members returns the sorted member IDs.
func (r *Ring) Members() []string { return append([]string(nil), r.ids...) }

// Stamper returns the sequencer's ID: the lowest sorted member.
func (r *Ring) Stamper() string { return r.ids[0] }

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// ownerIndex maps a hash to the member owning its range.
func (r *Ring) ownerIndex(h uint32) int {
	n := uint64(len(r.ids))
	i := int(uint64(h) * n >> 32)
	if i >= len(r.ids) { // unreachable, but keep the index safe
		i = len(r.ids) - 1
	}
	return i
}

// OwnerOfKey returns the member owning a store key's range.
func (r *Ring) OwnerOfKey(k data.Key) string {
	return r.ids[r.ownerIndex(hash32(string(k)))]
}

// OwnerIndexOfRun returns the owning member's ring position for a run.
func (r *Ring) OwnerIndexOfRun(run string) int {
	return r.ownerIndex(hash32(run))
}

// OwnerOfRun returns the member owning a run: the executor of its
// write-free tasks. (A run's repair is led by the stamper, whoever owns it.)
func (r *Ring) OwnerOfRun(run string) string {
	return r.ids[r.OwnerIndexOfRun(run)]
}

// OwnerOfTask returns the member that executes a task: the owner of the
// task's first sorted write key, or the run's owner for write-free tasks.
// Tying execution to data ownership is what makes a multi-task workflow's
// control token hop between nodes.
func (r *Ring) OwnerOfTask(run string, spec *wf.Spec, task wf.TaskID) string {
	t := spec.Task(task)
	if t == nil || len(t.Writes) == 0 {
		return r.OwnerOfRun(run)
	}
	first := t.Writes[0]
	for _, k := range t.Writes[1:] {
		if k < first {
			first = k
		}
	}
	return r.OwnerOfKey(first)
}
