package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// pollBackoff is the documented poll policy for GET /api/v1/runs/{id}: the
// first poll follows the 201 immediately, the next ones wait these delays,
// and every later poll waits the last one. It is fixed so that two commits
// observe `done` with the same granularity.
var pollBackoff = []time.Duration{
	0,
	200 * time.Microsecond,
	400 * time.Microsecond,
	800 * time.Microsecond,
	1600 * time.Microsecond,
	3200 * time.Microsecond,
	5 * time.Millisecond,
}

// runTimeout bounds submit → done for one run; exceeding it is a failed
// operation and aborts the workload.
const runTimeout = 30 * time.Second

// errHorizon marks a repair the service refused with recovery.ErrHorizon.
var errHorizon = errors.New("repair refused at the compaction horizon")

// client is the load generator's only way to reach a deployment: the real
// HTTP surface over loopback TCP, through at most conns connections.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer // nil when untraced

	// attempted/failed count operations (runs, forges, alert posts, drains,
	// checkpoints): the result line's totals.
	attempted atomic.Int64
	failed    atomic.Int64
	requests  atomic.Int64
	polls     atomic.Int64
	runsDone  atomic.Int64

	// recoveryErrors reads how many repair units the deployment has dropped
	// so far; rereported counts those the generator reported again.
	recoveryErrors func() int
	rereported     atomic.Int64
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: t}, base: base, tr: tr}
}

// close drops the idle connections so the server side can shut down at once.
func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	body   []byte
}

// do performs one request and reads the whole response. name labels the
// client-call span recorded under parent when tracing is on.
func (c *client) do(ctx context.Context, parent spanRef, name, method, path string, body []byte) (reply, error) {
	sp := c.tr.start(parent, name)
	defer sp.end()
	c.requests.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: raw}, nil
}

func (r reply) errorf(what string) error {
	return fmt.Errorf("%s: status %d: %s", what, r.status, strings.TrimSpace(string(r.body)))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runOutcome is what the generator learns about one committed run.
type runOutcome struct {
	sent time.Time // just before the POST was written
	done time.Time // when a GET first reported "done"
}

// submitAndWait submits one run and polls until GET /api/v1/runs/{id} reports
// done. The run counts as one attempted operation; a non-201 (a 429 from a
// full deferred-run queue included), a `failed` status or the timeout make it
// a failed one and return an error.
func (c *client) submitAndWait(ctx context.Context, r *runInput) (runOutcome, error) {
	root := c.tr.root("run", r.id)
	defer root.end()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	c.attempted.Add(1)
	out := runOutcome{sent: time.Now()}
	rp, err := c.do(ctx, root.ref(), "httpapi.post_runs", "POST", "/api/v1/runs", r.body)
	if err != nil {
		c.failed.Add(1)
		return out, fmt.Errorf("run %s: %w", r.id, err)
	}
	if rp.status != http.StatusCreated {
		c.failed.Add(1)
		return out, rp.errorf("run " + r.id + ": POST /api/v1/runs")
	}
	path := "/api/v1/runs/" + r.id
	for i := 0; ; i++ {
		d := pollBackoff[len(pollBackoff)-1]
		if i < len(pollBackoff) {
			d = pollBackoff[i]
		}
		if err := sleepCtx(ctx, d); err != nil {
			c.failed.Add(1)
			return out, fmt.Errorf("run %s: not done after %v: %w", r.id, runTimeout, err)
		}
		c.polls.Add(1)
		rp, err := c.do(ctx, root.ref(), "httpapi.get_run", "GET", path, nil)
		if err != nil {
			c.failed.Add(1)
			return out, fmt.Errorf("run %s: %w", r.id, err)
		}
		if rp.status != http.StatusOK {
			c.failed.Add(1)
			return out, rp.errorf("run " + r.id + ": GET " + path)
		}
		var info struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(rp.body, &info); err != nil {
			c.failed.Add(1)
			return out, fmt.Errorf("run %s: decode status: %w", r.id, err)
		}
		switch info.Status {
		case "done":
			out.done = time.Now()
			c.runsDone.Add(1)
			// The inputs are consumed; dropping them keeps the generator's
			// own footprint out of heap_mb.
			r.body, r.doc = nil, nil
			return out, nil
		case "failed":
			c.failed.Add(1)
			return out, fmt.Errorf("run %s failed: %s", r.id, info.Error)
		}
	}
}

// post performs one control operation (forge, alert, drain, checkpoint) that
// must answer with want; anything else is a failed operation.
func (c *client) post(ctx context.Context, parent spanRef, name, path string, payload any, want int, out any) error {
	var body []byte
	if payload != nil {
		var err error
		if body, err = json.Marshal(payload); err != nil {
			return err
		}
	}
	c.attempted.Add(1)
	rp, err := c.do(ctx, parent, name, "POST", path, body)
	if err != nil {
		c.failed.Add(1)
		return err
	}
	if rp.status != want {
		c.failed.Add(1)
		return rp.errorf("POST " + path)
	}
	if out != nil {
		if err := json.Unmarshal(rp.body, out); err != nil {
			return fmt.Errorf("POST %s: decode: %w", path, err)
		}
	}
	return nil
}

// forge commits a forged instance and returns its ID.
func (c *client) forge(ctx context.Context, parent spanRef, f forgeInput) (string, error) {
	var out struct {
		Instance string `json:"instance"`
	}
	err := c.post(ctx, parent, "httpapi.post_forge", "/api/v1/chaos/forge", f, http.StatusCreated, &out)
	return out.Instance, err
}

// alert delivers one alert naming bad. Anything but a 202 — a 429 from a full
// alert queue included — is a failed operation.
func (c *client) alert(ctx context.Context, parent spanRef, bad []string) error {
	return c.post(ctx, parent, "httpapi.post_alerts", "/api/v1/alerts", map[string]any{"bad": bad}, http.StatusAccepted, nil)
}

// drainRecovery blocks until the deployment is back to NORMAL.
func (c *client) drainRecovery(ctx context.Context, parent spanRef) error {
	return c.post(ctx, parent, "httpapi.post_drain", "/api/v1/chaos/drain?wait=recovery&timeout=60s", nil, http.StatusOK, nil)
}

// drainHealed ends an incident whose alerts named bad: it waits for NORMAL. A
// repair unit the service dropped since errsBefore was read (README.md,
// Findings: a race in shard.executePartial leaves the forge in the store and
// an error in the service) is a failed operation, not the end of the run: bad
// is reported once more, as an IDS does when the damage persists, and the
// incident lasts until that is drained. A unit dropped again is a failed
// gate, as is one no incident accounts for (gates).
func (c *client) drainHealed(ctx context.Context, parent spanRef, errsBefore int, bad []string) error {
	if err := c.drainRecovery(ctx, parent); err != nil {
		return err
	}
	dropped := c.recoveryErrors() - errsBefore
	if dropped == 0 {
		return nil
	}
	c.failed.Add(int64(dropped))
	c.rereported.Add(int64(dropped))
	if err := c.alert(ctx, parent, bad); err != nil {
		return err
	}
	if err := c.drainRecovery(ctx, parent); err != nil {
		return err
	}
	if again := c.recoveryErrors() - errsBefore - dropped; again > 0 {
		return gatef("%d repair units dropped again after the re-report of %v", again, bad)
	}
	return nil
}

// drainIdle blocks until every run retired and recovery drained.
func (c *client) drainIdle(ctx context.Context) error {
	return c.post(ctx, spanRef{}, "httpapi.post_drain", "/api/v1/chaos/drain?wait=idle&timeout=60s", nil, http.StatusOK, nil)
}

func (c *client) checkpoint(ctx context.Context) error {
	return c.post(ctx, spanRef{}, "httpapi.post_checkpoint", "/api/v1/chaos/checkpoint", nil, http.StatusOK, nil)
}

// get fetches a document that must answer 200.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	rp, err := c.do(ctx, spanRef{}, "httpapi.get", "GET", path, nil)
	if err != nil {
		return nil, err
	}
	if rp.status != http.StatusOK {
		return nil, rp.errorf("GET " + path)
	}
	return rp.body, nil
}

// store fetches GET /api/v1/store, raw and decoded.
func (c *client) store(ctx context.Context) ([]byte, map[string]int64, error) {
	raw, err := c.get(ctx, "/api/v1/store")
	if err != nil {
		return nil, nil, err
	}
	var m map[string]int64
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, nil, fmt.Errorf("GET /api/v1/store: decode: %w", err)
	}
	return raw, m, nil
}

// verifyDoc mirrors httpapi.VerifyDoc.
type verifyDoc struct {
	State           string `json:"state"`
	CheckIndex      string `json:"check_index"`
	AuditViolations int    `json:"audit_violations"`
	AuditError      string `json:"audit_error"`
	RecoveryError   string `json:"recovery_error"`
}

func (c *client) verify(ctx context.Context) (verifyDoc, error) {
	var v verifyDoc
	raw, err := c.get(ctx, "/api/v1/chaos/verify")
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(raw, &v)
}

// latencies collects millisecond samples from many goroutines.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}
