package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// The versioned workflow API (docs/API.md): the self-healing execution layer
// as an HTTP resource model, written against the Backend surface so the
// sharded single-process service and a cluster node serve identical routes.
//
//	POST /api/v1/runs          submit a workflow run (wfjson spec)
//	GET  /api/v1/runs          list run statuses (paginated with query params)
//	GET  /api/v1/runs/{id}     one run's status (?trace=1 adds instance IDs)
//	POST /api/v1/alerts        deliver IDS alerts
//	GET  /api/v1/state         NORMAL/SCAN/RECOVERY, queues, metrics
//	GET  /api/v1/store         committed store snapshot
//	GET  /api/v1/openapi.json  generated OpenAPI 3.1 description
//
// Every error is the single JSON envelope {"error": {"code", "message"}};
// sentinel errors of the execution layers map to status codes via
// errors.Is (400 bad_request, 404 not_found, 409 run_exists, 410
// below_horizon, 429 queue_full).

// runRequest is the POST /api/v1/runs document.
type runRequest struct {
	// ID names the run; must be unique for the service's lifetime.
	ID string `json:"id"`
	// Spec is the declarative workflow (wfjson format, as used by wfrun
	// and POST /repair). Its init block seeds store keys that have no
	// committed versions yet.
	Spec wfjson.SpecJSON `json:"spec"`
}

// alertRequest is the POST /api/v1/alerts document: a single alert (bad),
// a batch of alerts (batch), or both.
type alertRequest struct {
	// Bad lists the malicious task instances ("run/task#visit").
	Bad []string `json:"bad,omitempty"`
	// Batch delivers several alerts in one admission, each its own bad
	// set. The whole request is validated before anything is queued.
	Batch [][]string `json:"batch,omitempty"`
}

// stateResponse is the GET /api/v1/state document.
type stateResponse struct {
	// State is the §IV.C classification: NORMAL, SCAN or RECOVERY.
	State string `json:"state"`
	// Queues reports the bounded queues' current depths.
	Queues struct {
		Alerts   int `json:"alerts"`
		Units    int `json:"units"`
		Deferred int `json:"deferred"`
	} `json:"queues"`
	// Metrics is the cumulative service accounting (shard.Metrics).
	Metrics shard.Metrics `json:"metrics"`
	// Runs lists every submitted run's status.
	Runs []shard.RunInfo `json:"runs"`
}

// runsPage is the paginated GET /api/v1/runs document, returned only when
// the request carries any of the status/limit/after query parameters; the
// bare-array response is preserved for parameterless requests.
type runsPage struct {
	Runs []shard.RunInfo `json:"runs"`
	// Next is the resume cursor: pass it as ?after= to fetch the following
	// page. Empty when this page is the last. The cursor is stable because
	// the listing is sorted by immutable run IDs — runs submitted while
	// paginating are seen iff they sort after the cursor.
	Next string `json:"next,omitempty"`
}

// tracedRunInfo is the GET /api/v1/runs/{id}?trace=1 document: the run
// status plus its committed instance IDs.
type tracedRunInfo struct {
	shard.RunInfo
	// Trace lists the run's committed instance IDs ("run/task#visit") in
	// commit (LSN) order, forged instances included — exactly the IDs
	// POST /api/v1/alerts accepts.
	Trace []wlog.InstanceID `json:"trace"`
}

// v1Routes mounts the versioned workflow API over a backend.
func v1Routes(mux *apiMux, b Backend, families []string) {
	mux.handle("POST", "/api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req runRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("body: %w", err))
			return
		}
		if req.ID == "" {
			serviceError(w, b, fmt.Errorf("run id is required: %w", engine.ErrBadSpec))
			return
		}
		// SubmitRunSpec validates the document, seeds the declared initial
		// values (first writer wins) through the commit pipeline and, on a
		// durable service, persists the spec record before placing the run.
		if err := b.SubmitRunSpec(req.ID, &req.Spec); err != nil {
			serviceError(w, b, err)
			return
		}
		info, err := b.RunInfo(req.ID)
		if err != nil {
			serviceError(w, b, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.handle("GET", "/api/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if !q.Has("status") && !q.Has("limit") && !q.Has("after") {
			// Legacy unpaginated contract: the bare sorted array.
			writeJSON(w, http.StatusOK, b.Runs())
			return
		}
		status := q.Get("status")
		switch status {
		case "", "active", "deferred", "done", "failed":
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("status: unknown %q (want active, deferred, done or failed)", status))
			return
		}
		limit := 0
		if s := q.Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("limit: want a positive integer, got %q", s))
				return
			}
			limit = n
		}
		after := q.Get("after")
		var page runsPage
		page.Runs = []shard.RunInfo{}
		for _, info := range b.Runs() { // sorted by ID: the cursor order
			if after != "" && info.ID <= after {
				continue
			}
			if status != "" && info.Status != status {
				continue
			}
			if limit > 0 && len(page.Runs) == limit {
				// One past the page: the previous entry is not the last
				// match, so hand out a resume cursor.
				page.Next = page.Runs[limit-1].ID
				break
			}
			page.Runs = append(page.Runs, info)
		}
		writeJSON(w, http.StatusOK, page)
	})

	mux.handle("GET", "/api/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := b.RunInfo(r.PathValue("id"))
		if err != nil {
			serviceError(w, b, err)
			return
		}
		if r.URL.Query().Get("trace") == "1" {
			trace := b.Trace(info.ID)
			if trace == nil {
				trace = []wlog.InstanceID{}
			}
			writeJSON(w, http.StatusOK, tracedRunInfo{RunInfo: info, Trace: trace})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.handle("POST", "/api/v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		var req alertRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("body: %w", err))
			return
		}
		toIDs := func(ss []string) []wlog.InstanceID {
			ids := make([]wlog.InstanceID, len(ss))
			for i, s := range ss {
				ids[i] = wlog.InstanceID(s)
			}
			return ids
		}
		alerts := make([]triage.Alert, 0, len(req.Batch)+1)
		if len(req.Bad) > 0 {
			alerts = append(alerts, triage.Alert{Bad: toIDs(req.Bad)})
		}
		for _, bad := range req.Batch {
			alerts = append(alerts, triage.Alert{Bad: toIDs(bad)})
		}
		if len(alerts) == 0 {
			serviceError(w, b, fmt.Errorf("alert names no instances: %w", engine.ErrBadSpec))
			return
		}
		admitted, dropped, err := b.ReportAlerts(alerts)
		if err != nil {
			serviceError(w, b, err)
			return
		}
		if admitted == 0 {
			// The whole batch was lost to the bounded queue: real
			// backpressure, with a Retry-After derived from the queue depth
			// and the measured drain rate.
			serviceError(w, b, fmt.Errorf("shard: alert queue full (capacity dropped %d alerts): %w", dropped, shard.ErrQueueFull))
			return
		}
		if dropped > 0 {
			// Partial admission: report success but hint the reporter to
			// pace the rest.
			w.Header().Set("Retry-After", strconv.Itoa(b.RetryAfterSeconds()))
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"status":   "queued",
			"admitted": admitted,
			"dropped":  dropped,
			"state":    b.StateString(),
		})
	})

	mux.handle("GET", "/api/v1/state", func(w http.ResponseWriter, _ *http.Request) {
		var resp stateResponse
		resp.State = b.StateString()
		resp.Queues.Alerts, resp.Queues.Units, resp.Queues.Deferred = b.QueueLengths()
		resp.Metrics = b.MetricsDoc()
		resp.Runs = b.Runs()
		writeJSON(w, http.StatusOK, resp)
	})

	mux.handle("GET", "/api/v1/store", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, b.StoreSnapshot())
	})

	mux.handle("GET", "/api/v1/openapi.json", handleOpenAPI(families...))
}

// serviceError maps the execution layers' sentinel errors onto status codes
// and writes the error envelope. 429s carry a Retry-After derived from the
// service's current alert-queue depth and measured drain rate instead of a
// fixed constant, so a storming reporter backs off proportionally to the
// actual congestion.
func serviceError(w http.ResponseWriter, b Backend, err error) {
	switch {
	case errors.Is(err, engine.ErrBadSpec):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, engine.ErrUnknownRun):
		httpError(w, http.StatusNotFound, err)
	case errors.Is(err, engine.ErrRunExists):
		httpError(w, http.StatusConflict, err)
	case errors.Is(err, recovery.ErrHorizon):
		httpError(w, http.StatusGone, err)
	case errors.Is(err, shard.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(b.RetryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing sensible to do but note it for the
		// request log.
		_ = err
	}
}
