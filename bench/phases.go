package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// inflightPerConn is the closed-loop window: runs in flight per connection in
// the sat phase. Concurrency above the connection count comes from this
// window, not from more connections.
const inflightPerConn = 16

// pacedInflightMax bounds the open loop's in-flight runs. Reaching it means
// the system fell far behind the arrival schedule; the dispatcher then waits,
// which shows up as generator lateness instead of unbounded goroutines.
const pacedInflightMax = 4096

// settle forces a garbage collection. The generator shares its process with
// the servers, so it can start every phase on a freshly collected heap
// instead of wherever in a GC cycle the previous phase happened to stop.
// Incidents are not settled one by one: a repair allocates more than the
// live heap, so a collection runs during it either way.
func settle() { runtime.GC() }

// firstErr keeps the first error several goroutines report and cancels the
// rest.
type firstErr struct {
	once   sync.Once
	err    error
	cancel context.CancelFunc
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.once.Do(func() {
		f.err = err
		f.cancel()
	})
}

// satResult is the closed-loop phase's outcome.
type satResult struct {
	runs    int
	elapsed time.Duration
}

func (s satResult) runsPerSec() float64 { return float64(s.runs) / s.elapsed.Seconds() }

// sat is the closed-loop phase: workers = conns × inflightPerConn sessions,
// each cycling over its own tenants and submitting a tenant's next run as soon
// as the previous one is done. Every tenant commits exactly perTenant runs, so
// the work is the same on every commit whatever the speed.
func sat(ctx context.Context, c *client, tenants []*tenant, perTenant, workers int) (satResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := &firstErr{cancel: cancel}
	if workers > len(tenants) {
		workers = len(tenants)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < perTenant; round++ {
				for i := w; i < len(tenants); i += workers {
					r, err := tenants[i].take()
					if err == nil {
						_, err = c.submitAndWait(ctx, r)
					}
					if err != nil {
						fe.set(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return satResult{runs: perTenant * len(tenants), elapsed: time.Since(start)}, fe.err
}

// pacedResult is the open-loop phase's outcome: commit latency from the due
// time, and how late the generator itself sent.
type pacedResult struct {
	commit latencies
	late   latencies
}

// paced is the open-loop phase: n Poisson arrivals at rate per second.
// Arrival i belongs to tenant i mod len(tenants); because a tenant is a
// sequential session, an arrival whose tenant is still busy waits for it, and
// that wait counts: latency runs from the due time to the observed `done`.
func paced(ctx context.Context, c *client, tenants []*tenant, n int, rate float64, rng *rand.Rand) (*pacedResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := &firstErr{cancel: cancel}
	due := poissonDue(n, rate, rng)
	res := &pacedResult{}
	sem := make(chan struct{}, pacedInflightMax) // counting semaphore
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		at := start.Add(time.Duration(due[i] * float64(time.Second)))
		if err := sleepCtx(ctx, time.Until(at)); err != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(t *tenant, at time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			t.mu.Lock()
			defer t.mu.Unlock()
			r, err := t.take()
			if err != nil {
				fe.set(err)
				return
			}
			out, err := c.submitAndWait(ctx, r)
			if err != nil {
				fe.set(err)
				return
			}
			res.late.add(out.sent.Sub(at))
			res.commit.add(out.done.Sub(at))
		}(tenants[i%len(tenants)], at)
	}
	wg.Wait()
	if fe.err == nil && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, fe.err
}

// forgeAndRun forges a write into the victim's keys after its latest run and
// lets d more of its runs commit (the detection delay). It returns the forged
// instance's ID.
func forgeAndRun(ctx context.Context, c *client, parent spanRef, victim *tenant, n, d int, rng *rand.Rand) (string, error) {
	inst, err := c.forge(ctx, parent, forgeAfter(victim.last(), n, rng))
	if err != nil {
		return "", fmt.Errorf("forge on %s: %w", victim.name, err)
	}
	for j := 0; j < d; j++ {
		r, err := victim.take()
		if err == nil {
			_, err = c.submitAndWait(ctx, r)
		}
		if err != nil {
			return "", fmt.Errorf("victim %s: %w", victim.name, err)
		}
	}
	return inst, nil
}

// serialIncidents runs one incident per victim, back to back: forge, d runs
// of the victim, POST /alerts, POST /chaos/drain?wait=recovery. Heal time is
// alert-send → drain-return (drainHealed).
func serialIncidents(ctx context.Context, c *client, victims []*tenant, d int, rng *rand.Rand) (*latencies, error) {
	heal := &latencies{}
	for i, v := range victims {
		root := c.tr.root("incident", fmt.Sprintf("inc-%s-%d", v.name, i))
		inst, err := forgeAndRun(ctx, c, root.ref(), v, i, d, rng)
		if err != nil {
			root.end()
			return heal, err
		}
		errs := c.recoveryErrors()
		sent := time.Now()
		err = c.alert(ctx, root.ref(), []string{inst})
		if err == nil {
			err = c.drainHealed(ctx, root.ref(), errs, []string{inst})
		}
		if err != nil {
			root.end()
			return heal, fmt.Errorf("incident %d: %w", i, err)
		}
		heal.add(time.Since(sent))
		root.end()
	}
	return heal, nil
}

// storm is one alert storm: every victim is forged once and runs d more runs
// (closed loop, workers sessions), then nAlerts alerts built from those
// forges — duplicates, overlapping pairs, falseFrac of them with a false
// accusation of a victim's start task — arrive open-loop on a Poisson
// timeline at rate per second. It returns first alert due → drained NORMAL.
// Every forge is named, so the drained store must equal the attack-free
// reference.
func storm(ctx context.Context, c *client, victims []*tenant, round, d, nAlerts int, rate, falseFrac float64, workers int, rng *rand.Rand) (time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := &firstErr{cancel: cancel}

	// Draw every random choice up front, in one goroutine, so that the alert
	// set depends on the seed and not on goroutine scheduling.
	forgeSeeds := make([]int64, len(victims))
	for i := range forgeSeeds {
		forgeSeeds[i] = rng.Int63()
	}
	forged := make([]string, len(victims))
	accusable := make([]string, len(victims))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(victims); i += workers {
				v := victims[i]
				accusable[i] = v.last().id + "/t0#1"
				inst, err := forgeAndRun(ctx, c, spanRef{}, v, round, d, rand.New(rand.NewSource(forgeSeeds[i])))
				if err != nil {
					fe.set(err)
					return
				}
				forged[i] = inst
			}
		}(w)
	}
	wg.Wait()
	if fe.err != nil {
		return 0, fe.err
	}

	// Alert i names forge i mod V (so every forge is named, again and again);
	// from the second round on it also names the next forge, so that the
	// pairs overlap in a chain over all victims and coalescing can merge what
	// one batch holds into a single cone. The structure is fixed — a random
	// one makes the number of repair passes per storm a matter of the seed.
	alerts := make([][]string, nAlerts)
	for i := range alerts {
		bad := []string{forged[i%len(victims)]}
		if i >= len(victims) && len(victims) > 1 {
			bad = append(bad, forged[(i+1)%len(victims)])
		}
		if rng.Float64() < falseFrac {
			bad = append(bad, accusable[rng.Intn(len(victims))])
		}
		alerts[i] = bad
	}
	due := poissonDue(nAlerts, rate, rng)

	root := c.tr.root("incident", fmt.Sprintf("storm-%d", round))
	defer root.end()
	errs := c.recoveryErrors()
	start := time.Now()
	first := start.Add(time.Duration(due[0] * float64(time.Second)))
	for i := range alerts {
		at := start.Add(time.Duration(due[i] * float64(time.Second)))
		if err := sleepCtx(ctx, time.Until(at)); err != nil {
			break
		}
		wg.Add(1)
		go func(bad []string) {
			defer wg.Done()
			fe.set(c.alert(ctx, root.ref(), bad))
		}(alerts[i])
	}
	wg.Wait()
	if fe.err != nil {
		return 0, fe.err
	}
	if err := c.drainHealed(ctx, root.ref(), errs, forged); err != nil {
		return 0, err
	}
	return time.Since(first), nil
}
