// Package shard is the concurrent execution layer of the self-healing
// workflow system: normal processing is partitioned across N worker shards,
// each driving its own engine step loop against the shared versioned store,
// with all commits funneled through a batched, LSN-ordered group-commit
// pipeline into the system log — the paper's §IV claim that attack recovery
// can proceed concurrently with normal task processing, realized as a
// service.
//
// The layer has three pieces:
//
//   - committer: the single commit pipeline. Shards prepare task executions
//     in parallel (engine.Prepare) and submit them here; the committer
//     groups concurrent submissions into one engine.CommitBatch — a single
//     log-lock acquisition assigning dense LSNs and running the OnAppend
//     hooks in LSN order, so deps.IncrementalGraph observes exactly the
//     commit-order sequence it depends on. Exclusive jobs (recovery-unit
//     repairs, forged injections) run through the same pipeline, which
//     makes them atomic with respect to commits without extra locking.
//     The committer never waits on a disk: a step is acknowledged once
//     applied; whoever publishes a result waits for the WAL to cover it.
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
//     under a brief commit-pipeline quiescence for the store swap.
package shard

import (
	"sync/atomic"

	"selfheal/internal/engine"
	"selfheal/internal/obs"
)

// commitReq is one submission to the commit pipeline: either a prepared
// task execution or an exclusive job.
type commitReq struct {
	p    *engine.Prepared
	fn   func() error
	resp chan error
}

// committer is the group-commit pipeline: a single goroutine draining a
// submission channel, batching concurrently submitted prepared steps into
// one CommitBatch and running exclusive jobs between batches.
type committer struct {
	eng      *engine.Engine
	batchMax int
	reqs     chan commitReq
	stopCh   chan struct{}
	doneCh   chan struct{}
	// fault, when set, returns the sticky failure of the log's persistent
	// copy (the durable service points it at the WAL's error). It is read,
	// never waited on, after every applied batch: a step that committed
	// while the disk is failed reports the failure instead of succeeding.
	fault func() error

	batches atomic.Int64 // group commits executed
	entries atomic.Int64 // entries committed through the pipeline
	obs     comObs       // optional instrumentation; zero means off
}

// comObs mirrors the committer's counters into the obs registry.
type comObs struct {
	batches, entries *obs.Counter
}

func (o comObs) record(entries int) {
	o.batches.Inc()
	o.entries.Add(int64(entries))
}

func newCommitter(eng *engine.Engine, batchMax, queue int) *committer {
	if batchMax < 1 {
		batchMax = 1
	}
	if queue < 1 {
		queue = 1
	}
	return &committer{
		eng:      eng,
		batchMax: batchMax,
		reqs:     make(chan commitReq, queue),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
}

func (c *committer) start() { go c.loop() }

// stop shuts the pipeline down after the queue drains. All submitters must
// have stopped before calling it.
func (c *committer) stop() {
	close(c.stopCh)
	<-c.doneCh
}

// commit submits one prepared step and blocks until the group commit that
// includes it has been applied.
func (c *committer) commit(p *engine.Prepared) error {
	resp := make(chan error, 1)
	c.reqs <- commitReq{p: p, resp: resp}
	return <-resp
}

// exec runs fn on the committer goroutine, exclusively with respect to all
// commits: every commit submitted before it is applied first, none
// submitted after runs until fn returns. Recovery repairs and forged
// injections use this to serialize store mutations without a second lock.
func (c *committer) exec(fn func() error) error {
	resp := make(chan error, 1)
	c.reqs <- commitReq{fn: fn, resp: resp}
	return <-resp
}

func (c *committer) loop() {
	defer close(c.doneCh)
	for {
		var req commitReq
		select {
		case req = <-c.reqs:
		case <-c.stopCh:
			// Drain what is already queued so no submitter stays blocked.
			for {
				select {
				case req = <-c.reqs:
					c.serve(req)
				default:
					return
				}
			}
		}
		c.serve(req)
	}
}

// serve handles one request, greedily folding further queued commit
// requests into the same batch up to batchMax. An exclusive job encountered
// while folding is deferred until after the batch commits.
func (c *committer) serve(req commitReq) {
	if req.fn != nil {
		req.resp <- req.fn()
		return
	}
	batch := []commitReq{req}
fold:
	for len(batch) < c.batchMax {
		select {
		case next := <-c.reqs:
			if next.fn != nil {
				c.commitBatch(batch)
				next.resp <- next.fn()
				return
			}
			batch = append(batch, next)
		default:
			break fold
		}
	}
	c.commitBatch(batch)
}

func (c *committer) commitBatch(batch []commitReq) {
	ps := make([]*engine.Prepared, len(batch))
	for i, r := range batch {
		ps[i] = r.p
	}
	err := c.eng.CommitBatch(ps)
	if err == nil {
		c.batches.Add(1)
		c.entries.Add(int64(len(ps)))
		c.obs.record(len(ps))
		// No durability wait, but a failed disk is reported to every
		// submitter: the commit is applied in memory yet will never be
		// durable, so its run must not finish.
		ferr := c.failure()
		for _, r := range batch {
			r.resp <- ferr
		}
		return
	}
	// The batch is atomic, so a single bad entry (a duplicate instance)
	// failed all of it. Retry the steps one by one so only the culprit's
	// submitter sees the error.
	for _, r := range batch {
		e := c.eng.Commit(r.p)
		if e == nil {
			c.batches.Add(1)
			c.entries.Add(1)
			c.obs.record(1)
			e = c.failure()
		}
		r.resp <- e
	}
}

func (c *committer) failure() error {
	if c.fault == nil {
		return nil
	}
	return c.fault()
}
