// Package shard is the concurrent execution layer of the self-healing
// workflow system: normal processing is partitioned across N worker shards,
// each driving its own engine step loop against the shared versioned store,
// with every commit serialized through one commit pipeline into the system
// log — the paper's §IV claim that attack recovery can proceed concurrently
// with normal task processing, realized as a service.
//
// The layer has three pieces:
//
//   - pipeline: the one commit order. Shards prepare task executions in
//     parallel (engine.Prepare) and each commits its own step under the
//     pipeline's mutex (engine.Commit: the next LSN, the OnAppend hooks in
//     LSN order), so deps.IncrementalGraph observes exactly the
//     commit-order sequence it depends on. Exclusive jobs (recovery-unit
//     installs, forgets, snapshot captures, registrations' initial values,
//     forged injections) hold the same mutex while they run, which makes
//     them atomic with respect to commits. The pipeline never waits on a
//     disk: a step is acknowledged once applied; whoever publishes a result
//     waits for the WAL to cover it.
//
//   - executor: the shard workers plus the dispatcher that assigns each
//     submitted run to a shard by data-key footprint. Runs whose footprints
//     overlap are serialized on the same shard, so every read a task
//     observes is the latest committed version of its keys and the
//     resulting trace is equivalent to a serial execution in LSN order
//     (the stress tests replay the log to prove it). Conflicting
//     cross-shard submissions are deferred in a bounded queue —
//     backpressure surfaces as ErrQueueFull, never as an unsound
//     placement.
//
//   - Service: the self-healing runtime over the executor. Alert reporting
//     is goroutine-safe with a bounded queue and explicit drop accounting
//     (the CTMC's loss model); a dedicated recovery worker analyzes alerts
//     against O(1) epoch-pinned snapshots of the incremental dependence
//     graph while normal shards keep stepping, and executes recovery units
//     with only the damaged keys paused (machine.KeyGate: a run whose
//     footprint avoids them keeps stepping, whatever its shard), merging
//     the repaired chains into the live store inside the pipeline.
package shard

import (
	"sync"
	"sync/atomic"

	"selfheal/internal/engine"
	"selfheal/internal/obs"
)

// pipeline is the commit pipeline: one mutex that every commit and every
// exclusive job holds, so each sees the other either wholly before or
// wholly after it.
type pipeline struct {
	mu  sync.Mutex
	eng *engine.Engine
	// fault, when set, returns the sticky failure of the log's persistent
	// copy (the durable service points it at the WAL's error). It is read,
	// never waited on, after every applied commit: a step that committed
	// while the disk is failed reports the failure instead of succeeding.
	fault func() error

	commits atomic.Int64 // entries committed through the pipeline
	obs     comObs       // optional instrumentation; zero means off
}

// comObs mirrors the pipeline's commits into the obs registry; a commit is
// one batch of one entry.
type comObs struct {
	batches, entries *obs.Counter
}

// commit appends one prepared step to the log and applies it.
func (c *pipeline) commit(p *engine.Prepared) error {
	c.mu.Lock()
	err := c.eng.Commit(p)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.commits.Add(1)
	c.obs.batches.Inc()
	c.obs.entries.Inc()
	// No durability wait, but a failed disk is reported: the commit is
	// applied in memory yet will never be durable, so its run must not
	// finish.
	if c.fault == nil {
		return nil
	}
	return c.fault()
}

// exec runs fn exclusively with respect to all commits: none lands while fn
// runs. Recovery installs, forgets, snapshot captures, registrations and
// forged injections use this to serialize store and log mutations.
func (c *pipeline) exec(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn()
}
