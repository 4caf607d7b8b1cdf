package fuzz

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"selfheal/internal/shard"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// ErrRestartUnsupported is returned by targets that cannot crash-restart
// (in-memory servers lose everything; restart ops are skipped on them).
var ErrRestartUnsupported = errors.New("fuzz: target does not support restart")

// A Target is one live service under test. Episodes need reset semantics:
// callers create a fresh target per episode and Close it afterwards.
type Target interface {
	// BaseURL is the server's current root, e.g. "http://127.0.0.1:41327".
	// It may change across Restart.
	BaseURL() string
	// Durable reports whether the target persists state (restarts are
	// meaningful; checkpoints are on every target).
	Durable() bool
	// Restart crash-restarts the server on its persistent state and
	// returns once it serves again, or ErrRestartUnsupported.
	Restart() error
	// Close tears the target down.
	Close() error
}

// Report is the outcome of one episode.
type Report struct {
	// Violations lists every failed oracle; empty means the episode passed.
	Violations []Violation
	// Ops counts executed schedule operations (restarts skipped on
	// incapable targets are not counted).
	Ops int
}

// Failed reports whether any oracle failed.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Runner executes schedules against targets. The zero value is usable;
// Timeout bounds each episode (default 30s).
type Runner struct {
	Timeout time.Duration
}

func (r *Runner) timeout() time.Duration {
	if r.Timeout > 0 {
		return r.Timeout
	}
	return 30 * time.Second
}

// RunEpisode replays sch against t, appends a final drain, and checks the
// global oracles. A non-nil error is a harness failure (the target broke or
// timed out), not an oracle violation.
func (r *Runner) RunEpisode(t Target, sch *Schedule) (*Report, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	c := &client{base: t, deadline: time.Now().Add(r.timeout())}
	rep := &Report{}
	var acked []string // run IDs acknowledged with 201

	for i, op := range sch.Ops {
		var err error
		switch op.Kind {
		case OpSubmit:
			err = c.submit(op.Run, wfjson.FromBlueprint(op.Blueprint))
			if err == nil {
				acked = append(acked, op.Run)
			}
		case OpForge:
			err = c.forge(&op)
		case OpAlert:
			err = c.alert(op.Batch)
		case OpCheckpoint:
			err = c.checkpoint()
		case OpDrain:
			err = c.drain()
		case OpRestart:
			if !t.Durable() {
				continue
			}
			if err = t.Restart(); err != nil {
				return nil, fmt.Errorf("fuzz: op %d: %w", i, err)
			}
			// Acknowledged submissions are fsynced before the 201, so
			// every acked run must survive the crash.
			for _, id := range acked {
				if _, gerr := c.runInfo(id); gerr != nil {
					rep.Violations = append(rep.Violations, Violation{
						Oracle: "restart",
						Detail: fmt.Sprintf("run %s lost across restart: %v", id, gerr),
					})
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("fuzz: op %d (%s): %w", i, op.Kind, err)
		}
		rep.Ops++
	}

	if err := c.drain(); err != nil {
		return nil, fmt.Errorf("fuzz: final drain: %w", err)
	}

	// Oracle: every submitted run retired successfully.
	runs, err := c.runs()
	if err != nil {
		return nil, err
	}
	for _, info := range runs {
		if info.Status != "done" {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "run-failed",
				Detail: fmt.Sprintf("run %s ended %q (%s)", info.ID, info.Status, info.Error),
			})
		}
	}

	// Oracle: repaired state equals the attack-free serial execution.
	want, err := BenignStore(sch)
	if err != nil {
		return nil, err
	}
	got, err := c.store()
	if err != nil {
		return nil, err
	}
	if diff := DiffStores(want, got); diff != "" {
		rep.Violations = append(rep.Violations, Violation{
			Oracle: "benign-store",
			Detail: "store differs from attack-free execution:\n" + diff,
		})
	}

	// Oracles: version-index integrity, repair completion and Theorem-3
	// repair ordering.
	v, err := c.verify()
	if err != nil {
		return nil, err
	}
	if v.CheckIndex != "ok" {
		rep.Violations = append(rep.Violations, Violation{Oracle: "check-index", Detail: v.CheckIndex})
	}
	if v.RecoveryError != "" {
		// Every generated alert is repairable by construction (validated
		// against the checkpoint horizon), so a refused or failed repair is
		// a soundness violation, not an expected ErrHorizon refusal.
		rep.Violations = append(rep.Violations, Violation{Oracle: "recovery-error", Detail: v.RecoveryError})
	}
	if v.AuditViolations > 0 {
		rep.Violations = append(rep.Violations, Violation{
			Oracle: "dag-audit",
			Detail: fmt.Sprintf("%d repair-schedule violations; last: %s", v.AuditViolations, v.AuditError),
		})
	}
	return rep, nil
}

// client drives one target over HTTP with a per-episode deadline.
type client struct {
	base     Target
	deadline time.Time
}

func (c *client) url(path string) string { return c.base.BaseURL() + path }

func (c *client) do(method, path string, payload, out any) (int, error) {
	var body bytes.Buffer
	if payload != nil {
		if err := json.NewEncoder(&body).Encode(payload); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, c.url(path), &body)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw.String())
	}
	return resp.StatusCode, nil
}

func (c *client) submit(id string, spec *wfjson.SpecJSON) error {
	_, err := c.do("POST", "/api/v1/runs", map[string]any{"id": id, "spec": spec}, nil)
	return err
}

func (c *client) forge(op *Op) error {
	payload := map[string]any{
		"run": op.Run, "task": ForgeTask,
		"reads": op.Reads, "writes": op.Writes,
	}
	_, err := c.do("POST", "/api/v1/chaos/forge", payload, nil)
	return err
}

// alert waits for every accused instance to be committed, then posts the
// whole batch, retrying until no alert is dropped by the bounded queue.
// Retries repost the full batch: repeat alerts naming the same instances
// are valid and their repairs idempotent, so over-reporting is safe.
func (c *client) alert(batch [][]string) error {
	need := map[wlog.InstanceID]bool{}
	for _, bad := range batch {
		for _, id := range bad {
			need[wlog.InstanceID(id)] = true
		}
	}
	if err := c.waitCommitted(need); err != nil {
		return err
	}
	for {
		var resp struct {
			Admitted int `json:"admitted"`
			Dropped  int `json:"dropped"`
		}
		status, err := c.do("POST", "/api/v1/alerts", map[string]any{"batch": batch}, &resp)
		switch {
		case err == nil && resp.Dropped == 0:
			return nil
		case err != nil && status != http.StatusTooManyRequests:
			return err
		}
		// Backpressure (whole or partial drop): pace and repost.
		if time.Now().After(c.deadline) {
			return fmt.Errorf("fuzz: alert batch never fully admitted before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCommitted polls the committed log until every instance in need is
// present (legitimately accused tasks may not have executed yet).
func (c *client) waitCommitted(need map[wlog.InstanceID]bool) error {
	for {
		var doc struct {
			Entries []struct {
				ID string `json:"id"`
			} `json:"entries"`
		}
		if _, err := c.do("GET", "/api/v1/chaos/log", nil, &doc); err != nil {
			return err
		}
		seen := map[wlog.InstanceID]bool{}
		for _, e := range doc.Entries {
			seen[wlog.InstanceID(e.ID)] = true
		}
		var missing []string
		for id := range need {
			if !seen[id] {
				missing = append(missing, string(id))
			}
		}
		if len(missing) == 0 {
			return nil
		}
		if time.Now().After(c.deadline) {
			sort.Strings(missing)
			return fmt.Errorf("fuzz: accused instances never committed before deadline: %s", strings.Join(missing, ", "))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *client) checkpoint() error {
	_, err := c.do("POST", "/api/v1/chaos/checkpoint", nil, nil)
	return err
}

func (c *client) drain() error {
	left := time.Until(c.deadline)
	if left <= 0 {
		return fmt.Errorf("fuzz: episode deadline exceeded before drain")
	}
	_, err := c.do("POST", "/api/v1/chaos/drain?wait=idle&timeout="+left.Truncate(time.Millisecond).String(), nil, nil)
	return err
}

func (c *client) runs() ([]shard.RunInfo, error) {
	var out []shard.RunInfo
	_, err := c.do("GET", "/api/v1/runs", nil, &out)
	return out, err
}

func (c *client) runInfo(id string) (shard.RunInfo, error) {
	var out shard.RunInfo
	_, err := c.do("GET", "/api/v1/runs/"+id, nil, &out)
	return out, err
}

func (c *client) store() (map[string]int64, error) {
	var out map[string]int64
	_, err := c.do("GET", "/api/v1/store", nil, &out)
	return out, err
}

func (c *client) verify() (*verifyDoc, error) {
	var out verifyDoc
	_, err := c.do("GET", "/api/v1/chaos/verify", nil, &out)
	return &out, err
}

// verifyDoc mirrors httpapi's GET /api/v1/chaos/verify document.
type verifyDoc struct {
	State           string `json:"state"`
	CheckIndex      string `json:"check_index"`
	AuditViolations int    `json:"audit_violations"`
	AuditError      string `json:"audit_error"`
	RecoveryError   string `json:"recovery_error"`
}
