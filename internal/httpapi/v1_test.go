package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"selfheal/internal/durable"
	"selfheal/internal/shard"
	"selfheal/internal/wfjson"
)

func chainSpecJSON(name string, n int) wfjson.SpecJSON {
	sj := wfjson.SpecJSON{Name: name, Start: "t1"}
	for i := 1; i <= n; i++ {
		tj := wfjson.TaskJSON{
			ID:     fmt.Sprintf("t%d", i),
			Writes: []string{fmt.Sprintf("%s.k%d", name, i)},
			Bias:   int64(i),
		}
		if i > 1 {
			tj.Reads = []string{fmt.Sprintf("%s.k%d", name, i-1)}
		}
		if i < n {
			tj.Next = []string{fmt.Sprintf("t%d", i+1)}
		}
		sj.Tasks = append(sj.Tasks, tj)
	}
	return sj
}

func v1Server(t *testing.T) (*httptest.Server, *shard.Service) {
	return v1ServerCfg(t, shard.Config{Shards: 2, AlertBuf: 1})
}

func v1ServerCfg(t *testing.T, cfg shard.Config) (*httptest.Server, *shard.Service) {
	t.Helper()
	svc, err := shard.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Stop)
	ts := httptest.NewServer(Server(nil, svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// envelopeCode decodes the error envelope and returns its code, failing the
// test if the body is not the canonical envelope shape.
func envelopeCode(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v (%s)", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env.Error.Code
}

func TestV1RunLifecycle(t *testing.T) {
	ts, _ := v1Server(t)

	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
		map[string]any{"id": "r1", "spec": chainSpecJSON("w", 5)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	var info shard.RunInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "r1" {
		t.Fatalf("submit response: %+v", info)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = doJSON(t, "GET", ts.URL+"/api/v1/runs/r1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get run: status %d body %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never completed: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	if info.Steps != 5 {
		t.Fatalf("run steps = %d, want 5", info.Steps)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/api/v1/runs", nil)
	var list []shard.RunInfo
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &list) != nil || len(list) != 1 {
		t.Fatalf("list runs: status %d body %s", resp.StatusCode, body)
	}
}

func TestV1ErrorEnvelopes(t *testing.T) {
	ts, svc := v1Server(t)

	// 404 with envelope for an unknown run.
	resp, body := doJSON(t, "GET", ts.URL+"/api/v1/runs/ghost", nil)
	if resp.StatusCode != http.StatusNotFound || envelopeCode(t, body) != "not_found" {
		t.Fatalf("unknown run: status %d body %s", resp.StatusCode, body)
	}

	// 400 for an invalid spec.
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/runs", map[string]any{
		"id":   "bad",
		"spec": wfjson.SpecJSON{Name: "bad", Start: "missing"},
	})
	if resp.StatusCode != http.StatusBadRequest || envelopeCode(t, body) != "bad_request" {
		t.Fatalf("bad spec: status %d body %s", resp.StatusCode, body)
	}

	// 409 for a duplicate run ID.
	submit := map[string]any{"id": "dup", "spec": chainSpecJSON("d", 2)}
	if resp, body = doJSON(t, "POST", ts.URL+"/api/v1/runs", submit); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: status %d body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/runs", submit)
	if resp.StatusCode != http.StatusConflict || envelopeCode(t, body) != "run_exists" {
		t.Fatalf("dup run: status %d body %s", resp.StatusCode, body)
	}

	// 404 for an alert naming an unlogged instance.
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"bad": []string{"ghost/t1#1"}})
	if resp.StatusCode != http.StatusNotFound || envelopeCode(t, body) != "not_found" {
		t.Fatalf("unknown instance alert: status %d body %s", resp.StatusCode, body)
	}

	// 429 with envelope and Retry-After once the alert queue (capacity 1)
	// is full. The service is stopped first so the recovery worker cannot
	// drain the queue mid-test.
	waitNormal(t, ts, 1)
	svc.Stop()
	alert := map[string]any{"bad": []string{"dup/t1#1"}}
	if resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts", alert); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alert: status %d body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts", alert)
	if resp.StatusCode != http.StatusTooManyRequests || envelopeCode(t, body) != "queue_full" {
		t.Fatalf("overflow alert: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestV1BelowHorizon: after a checkpoint retires a run, its status comes from
// its tombstone — done, no steps, an empty trace — and an alert naming one of
// its instances is a 410 with its own envelope code, not a 404.
func TestV1BelowHorizon(t *testing.T) {
	svc, err := shard.NewDurable(shard.Config{Shards: 2}, t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Stop)
	ts := httptest.NewServer(Server(nil, svc))
	t.Cleanup(ts.Close)

	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs", map[string]any{"id": "r1", "spec": chainSpecJSON("w", 3)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"bad": []string{"r1/t2#1"}}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alert above the horizon: status %d body %s", resp.StatusCode, body)
	}
	if err := svc.DrainRecovery(ctx); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, "GET", ts.URL+"/api/v1/runs/r1?trace=1", nil)
	var info struct {
		shard.RunInfo
		Trace []string `json:"trace"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &info) != nil ||
		info.Status != "done" || info.Steps != 0 || info.Trace == nil || len(info.Trace) != 0 {
		t.Fatalf("retired run: status %d body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"bad": []string{"r1/t2#1"}})
	if resp.StatusCode != http.StatusGone || envelopeCode(t, body) != "below_horizon" {
		t.Fatalf("alert below the horizon: status %d body %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/runs", map[string]any{"id": "r1", "spec": chainSpecJSON("w", 3)})
	if resp.StatusCode != http.StatusConflict || envelopeCode(t, body) != "run_exists" {
		t.Fatalf("resubmitting a retired run: status %d body %s", resp.StatusCode, body)
	}
}

// TestV1RetryAfterScalesWithQueueDepth: the 429 Retry-After is derived from
// the current alert-queue depth and drain rate, not a hardcoded constant —
// a 40-deep queue at the default drain estimate (50 ms/alert) needs 2 s.
func TestV1RetryAfterScalesWithQueueDepth(t *testing.T) {
	ts, svc := v1ServerCfg(t, shard.Config{Shards: 1, AlertBuf: 40})
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
		map[string]any{"id": "r1", "spec": chainSpecJSON("w", 2)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	waitNormal(t, ts, 1)
	// Stop the service so the recovery worker cannot drain while the queue
	// fills; the estimator then sees the full depth.
	svc.Stop()
	batch := make([][]string, 40)
	for i := range batch {
		batch[i] = []string{"r1/t1#1"}
	}
	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"batch": batch})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch fill: status %d body %s", resp.StatusCode, body)
	}
	var ack struct{ Admitted, Dropped int }
	if err := json.Unmarshal(body, &ack); err != nil || ack.Admitted != 40 || ack.Dropped != 0 {
		t.Fatalf("batch fill ack = %s (err %v)", body, err)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"bad": []string{"r1/t1#1"}})
	if resp.StatusCode != http.StatusTooManyRequests || envelopeCode(t, body) != "queue_full" {
		t.Fatalf("overflow: status %d body %s", resp.StatusCode, body)
	}
	want := shard.EstimateRetryAfter(40, shard.DefaultDrainSecPerAlert)
	if want <= 1 {
		t.Fatalf("test premise broken: want Retry-After > 1, got %d", want)
	}
	if got := resp.Header.Get("Retry-After"); got != fmt.Sprint(want) {
		t.Fatalf("Retry-After = %q, want %d (queue-depth-derived, not hardcoded)", got, want)
	}
}

// TestV1AlertBatchAdmission drives the batch form of POST /api/v1/alerts:
// all-upfront validation, then admission with per-batch accounting.
func TestV1AlertBatchAdmission(t *testing.T) {
	ts, svc := v1ServerCfg(t, shard.Config{Shards: 2, AlertBuf: 8})
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
		map[string]any{"id": "r1", "spec": chainSpecJSON("w", 4)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	waitNormal(t, ts, 1)

	// One unknown instance rejects the whole batch — nothing admitted.
	before := svc.Metrics().AlertsReported
	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/alerts",
		map[string]any{"batch": [][]string{{"r1/t1#1"}, {"ghost/t9#9"}}})
	if resp.StatusCode != http.StatusNotFound || envelopeCode(t, body) != "not_found" {
		t.Fatalf("invalid batch: status %d body %s", resp.StatusCode, body)
	}
	if got := svc.Metrics().AlertsReported; got != before {
		t.Fatalf("rejected batch still counted reported: %d -> %d", before, got)
	}

	// A valid batch is admitted in one request and recovered.
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts",
		map[string]any{"batch": [][]string{{"r1/t1#1"}, {"r1/t2#1"}, {"r1/t3#1"}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, body)
	}
	var ack struct {
		Admitted, Dropped int
		Status            string
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Admitted != 3 || ack.Dropped != 0 || ack.Status != "queued" {
		t.Fatalf("batch ack = %s (err %v)", body, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := waitNormal(t, ts, 1)
		if st.Metrics.UnitsExecuted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch recovery never executed: %+v", st.Metrics)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitNormal polls /api/v1/state until the service is NORMAL with the given
// number of completed runs.
func waitNormal(t *testing.T, ts *httptest.Server, runsDone int) stateResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := doJSON(t, "GET", ts.URL+"/api/v1/state", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("state: status %d body %s", resp.StatusCode, body)
		}
		var st stateResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "NORMAL" && st.Metrics.RunsCompleted >= runsDone {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never settled: %s", body)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestV1AlertRecoveryFlow drives the full loop through the wire: submit a
// run, report one of its committed instances, and observe the recovery in
// /api/v1/state.
func TestV1AlertRecoveryFlow(t *testing.T) {
	ts, _ := v1Server(t)
	if resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
		map[string]any{"id": "r1", "spec": chainSpecJSON("w", 4)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}
	waitNormal(t, ts, 1)

	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"bad": []string{"r1/t2#1"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alert: status %d body %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := waitNormal(t, ts, 1)
		if st.Metrics.UnitsExecuted >= 1 {
			if st.Metrics.Undone < 1 || st.Metrics.Redone < 1 {
				t.Fatalf("recovery executed without undo/redo work: %+v", st.Metrics)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never executed: %+v", st.Metrics)
		}
		time.Sleep(time.Millisecond)
	}
}
