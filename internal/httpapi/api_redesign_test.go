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

	"selfheal/internal/shard"
	"selfheal/internal/wlog"
)

func waitIdleSvc(t *testing.T, svc *shard.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRunsPagination drives the cursor protocol of GET /api/v1/runs: the
// parameterless request keeps the legacy bare-array shape, query parameters
// switch to the {runs, next} page document, and following next re-assembles
// the full listing without gaps or repeats.
func TestRunsPagination(t *testing.T) {
	ts, svc := v1ServerCfg(t, shard.Config{Shards: 2})
	for i := 1; i <= 5; i++ {
		id := fmt.Sprintf("p%d", i)
		resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
			map[string]any{"id": id, "spec": chainSpecJSON(id, 2)})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s: status %d: %s", id, resp.StatusCode, body)
		}
	}
	waitIdleSvc(t, svc)

	// Legacy contract: no query parameters means the bare sorted array.
	resp, body := doJSON(t, "GET", ts.URL+"/api/v1/runs", nil)
	var bare []shard.RunInfo
	if err := json.Unmarshal(body, &bare); err != nil {
		t.Fatalf("parameterless listing is not a bare array: %v (%s)", err, body)
	}
	if resp.StatusCode != http.StatusOK || len(bare) != 5 {
		t.Fatalf("bare listing: status %d, %d runs, want 200/5", resp.StatusCode, len(bare))
	}

	var page struct {
		Runs []shard.RunInfo `json:"runs"`
		Next string          `json:"next"`
	}
	getPage := func(url string) {
		t.Helper()
		resp, body := doJSON(t, "GET", url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
		}
		page = struct {
			Runs []shard.RunInfo `json:"runs"`
			Next string          `json:"next"`
		}{}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatalf("GET %s: %v (%s)", url, err, body)
		}
	}

	// Walk the cursor: 2 + 2 + 1, and the run IDs reassemble the full set.
	var walked []string
	url := ts.URL + "/api/v1/runs?limit=2"
	for hops := 0; ; hops++ {
		if hops > 5 {
			t.Fatal("cursor never terminated")
		}
		getPage(url)
		if len(page.Runs) > 2 {
			t.Fatalf("page over limit: %d runs", len(page.Runs))
		}
		for _, r := range page.Runs {
			walked = append(walked, r.ID)
		}
		if page.Next == "" {
			break
		}
		if page.Next != page.Runs[len(page.Runs)-1].ID {
			t.Fatalf("next %q is not the last run of the page", page.Next)
		}
		url = ts.URL + "/api/v1/runs?limit=2&after=" + page.Next
	}
	want := []string{"p1", "p2", "p3", "p4", "p5"}
	if len(walked) != len(want) {
		t.Fatalf("walked %v, want %v", walked, want)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("walked %v, want %v", walked, want)
		}
	}

	// Status filtering: everything is done, nothing failed.
	getPage(ts.URL + "/api/v1/runs?status=done")
	if len(page.Runs) != 5 {
		t.Fatalf("status=done: %d runs, want 5", len(page.Runs))
	}
	getPage(ts.URL + "/api/v1/runs?status=failed")
	if len(page.Runs) != 0 || page.Next != "" {
		t.Fatalf("status=failed: %+v, want empty page", page)
	}

	// Invalid parameters are a 400 in the envelope.
	for _, q := range []string{"?status=bogus", "?limit=0", "?limit=-3", "?limit=x"} {
		resp, body := doJSON(t, "GET", ts.URL+"/api/v1/runs"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET runs%s: status %d, want 400", q, resp.StatusCode)
		}
		if code := envelopeCode(t, body); code != "bad_request" {
			t.Fatalf("GET runs%s: code %q, want bad_request", q, code)
		}
	}
}

// TestRunTrace checks ?trace=1 on GET /api/v1/runs/{id}: the response gains
// the run's committed instance IDs — exactly the identifiers POST
// /api/v1/alerts accepts — and the plain request stays untouched.
func TestRunTrace(t *testing.T) {
	ts, svc := v1ServerCfg(t, shard.Config{Shards: 2})
	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
		map[string]any{"id": "tr", "spec": chainSpecJSON("tr", 3)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	waitIdleSvc(t, svc)

	resp, body = doJSON(t, "GET", ts.URL+"/api/v1/runs/tr?trace=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %s", resp.StatusCode, body)
	}
	var traced struct {
		ID     string   `json:"id"`
		Status string   `json:"status"`
		Trace  []string `json:"trace"`
	}
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.ID != "tr" || traced.Status != "done" {
		t.Fatalf("traced info: %+v", traced)
	}
	if len(traced.Trace) != 3 {
		t.Fatalf("trace has %d instances, want 3: %v", len(traced.Trace), traced.Trace)
	}
	for i, id := range traced.Trace {
		run, task, visit, err := wlog.ParseInstance(wlog.InstanceID(id))
		if err != nil {
			t.Fatalf("trace[%d] = %q: %v", i, id, err)
		}
		if run != "tr" || visit != 1 || string(task) != fmt.Sprintf("t%d", i+1) {
			t.Fatalf("trace[%d] = %q, want tr/t%d#1", i, id, i+1)
		}
	}

	// A traced ID round-trips into an accepted alert.
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts",
		map[string]any{"bad": []string{traced.Trace[0]}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alert on traced ID: status %d: %s", resp.StatusCode, body)
	}
	waitIdleSvc(t, svc)

	// Without trace=1 the response stays the plain run document.
	_, body = doJSON(t, "GET", ts.URL+"/api/v1/runs/tr", nil)
	var plain map[string]any
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["trace"]; ok {
		t.Fatalf("plain run document grew a trace field: %s", body)
	}
}

// TestAlertIDValidation pins the 400-vs-404 contract of POST /api/v1/alerts:
// a malformed instance ID (not run/task#visit) is a bad_request; a
// well-formed ID naming an instance absent from the log is a not_found.
func TestAlertIDValidation(t *testing.T) {
	ts, _ := v1Server(t)

	for _, bad := range []string{"notaninstance", "r:t:1", "/t#1", "r/#1", "r/t#", "r/t#0", "r/t#x"} {
		resp, body := doJSON(t, "POST", ts.URL+"/api/v1/alerts",
			map[string]any{"bad": []string{bad}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed %q: status %d, want 400: %s", bad, resp.StatusCode, body)
		}
		if code := envelopeCode(t, body); code != "bad_request" {
			t.Fatalf("malformed %q: code %q, want bad_request", bad, code)
		}
	}

	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/alerts",
		map[string]any{"bad": []string{"ghost/t1#1"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown instance: status %d, want 404: %s", resp.StatusCode, body)
	}
	if code := envelopeCode(t, body); code != "not_found" {
		t.Fatalf("unknown instance: code %q, want not_found", code)
	}

	// A malformed ID anywhere in a batch rejects the whole batch as a 400.
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts",
		map[string]any{"batch": [][]string{{"ghost/t1#1"}, {"r/t#0"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with malformed ID: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestAlertPartialDropRetryAfter stops the service's consumers so the
// bounded alert queue is observable, then overflows it with one batch: the
// 202 must carry the admitted/dropped split and a Retry-After pacing hint.
func TestAlertPartialDropRetryAfter(t *testing.T) {
	ts, svc := v1ServerCfg(t, shard.Config{Shards: 1, AlertBuf: 2})
	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
		map[string]any{"id": "r1", "spec": chainSpecJSON("r1", 3)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	waitIdleSvc(t, svc)
	// With the workers stopped nothing drains the alert queue, so the
	// bound — and the partial drop — is deterministic.
	svc.Stop()

	inst := string(wlog.FormatInstance("r1", "t1", 1))
	batch := make([][]string, 4)
	for i := range batch {
		batch[i] = []string{inst}
	}
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"batch": batch})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("partial drop: status %d, want 202: %s", resp.StatusCode, body)
	}
	var out struct {
		Admitted int `json:"admitted"`
		Dropped  int `json:"dropped"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Admitted != 2 || out.Dropped != 2 {
		t.Fatalf("admitted %d dropped %d, want 2/2", out.Admitted, out.Dropped)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("partial drop: no Retry-After header")
	}
	var sec int
	if _, err := fmt.Sscanf(ra, "%d", &sec); err != nil || sec < 1 || sec > 60 {
		t.Fatalf("Retry-After %q, want an integer in [1,60]", ra)
	}

	// The queue is now full: the next whole batch is dropped — a 429 with
	// the same pacing header.
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts", map[string]any{"bad": []string{inst}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", resp.StatusCode, body)
	}
	if code := envelopeCode(t, body); code != "queue_full" {
		t.Fatalf("full queue: code %q, want queue_full", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestOpenAPIEncodedOnce: the document a server serves is encoded once, at
// mount, and its bytes, status and content type are exactly those encoding
// it on every request wrote, for every server's families.
func TestOpenAPIEncodedOnce(t *testing.T) {
	for _, fams := range [][]string{
		{FamV1},
		{FamV1, FamMetrics},
		{FamV1, FamChaos},
		{FamV1, FamChaos, FamCluster, FamMetrics},
	} {
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, OpenAPIDoc(fams...))
		serve := handleOpenAPI(fams...)
		for i := 0; i < 2; i++ {
			got := httptest.NewRecorder()
			serve(got, httptest.NewRequest("GET", "/api/v1/openapi.json", nil))
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
				!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("families %v, request %d: served %d %q (%d bytes), want %d %q (%d bytes)", fams, i,
					got.Code, got.Header().Get("Content-Type"), got.Body.Len(), want.Code, want.Header().Get("Content-Type"), want.Body.Len())
			}
		}
	}
}

// TestOpenAPISurface checks the generated document describes exactly the
// mounted surface: the plain server has no chaos paths, the chaos server
// gains them, and the pagination/trace parameters are declared.
func TestOpenAPISurface(t *testing.T) {
	type doc struct {
		OpenAPI string                    `json:"openapi"`
		Paths   map[string]map[string]any `json:"paths"`
	}
	fetch := func(url string) doc {
		t.Helper()
		resp, body := doJSON(t, "GET", url+"/api/v1/openapi.json", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("openapi: status %d: %s", resp.StatusCode, body)
		}
		var d doc
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatal(err)
		}
		return d
	}

	ts, _ := v1Server(t)
	d := fetch(ts.URL)
	if d.OpenAPI != "3.1.0" {
		t.Fatalf("openapi version %q", d.OpenAPI)
	}
	for _, p := range []string{
		"/api/v1/runs", "/api/v1/runs/{id}", "/api/v1/alerts",
		"/api/v1/state", "/api/v1/store", "/api/v1/openapi.json",
	} {
		if _, ok := d.Paths[p]; !ok {
			t.Fatalf("openapi missing %s (have %d paths)", p, len(d.Paths))
		}
	}
	for p := range d.Paths {
		if len(p) < 8 || p[:8] != "/api/v1/" {
			t.Fatalf("openapi leaked unversioned path %s", p)
		}
		if len(p) >= 14 && p[:14] == "/api/v1/chaos/" {
			t.Fatalf("plain server documents chaos path %s", p)
		}
	}
	// The listing route declares its pagination parameters.
	runsGet, ok := d.Paths["/api/v1/runs"]["get"].(map[string]any)
	if !ok {
		t.Fatal("openapi: no get on /api/v1/runs")
	}
	params, _ := runsGet["parameters"].([]any)
	names := map[string]bool{}
	for _, p := range params {
		m, _ := p.(map[string]any)
		name, _ := m["name"].(string)
		names[name] = true
	}
	for _, want := range []string{"status", "limit", "after"} {
		if !names[want] {
			t.Fatalf("openapi: GET /api/v1/runs missing parameter %q (have %v)", want, names)
		}
	}

	cts := chaosServer(t, shard.Config{Shards: 1})
	cd := fetch(cts.URL)
	if _, ok := cd.Paths["/api/v1/chaos/forge"]; !ok {
		t.Fatal("chaos server's openapi missing /api/v1/chaos/forge")
	}
	if _, ok := cd.Paths["/api/v1/chaos/verify"]; !ok {
		t.Fatal("chaos server's openapi missing /api/v1/chaos/verify")
	}
}

// TestRouteTableGate pins the structural drift gates: registering a route
// the table does not declare panics, as does building a server that fails
// to mount a declared route of its families.
func TestRouteTableGate(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("undeclared route", func() {
		m := newAPIMux(FamV1)
		m.handle("GET", "/api/v1/undeclared", func(http.ResponseWriter, *http.Request) {})
	})
	mustPanic("wrong family", func() {
		m := newAPIMux(FamV1)
		m.handle("GET", "/api/v1/cluster", func(http.ResponseWriter, *http.Request) {})
	})
	mustPanic("unmounted declared route", func() {
		m := newAPIMux(FamV1)
		m.handle("GET", "/healthz", handleHealth)
		m.finish() // the /api/v1/ routes were never mounted
	})
}
