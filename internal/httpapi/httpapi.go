// Package httpapi serves the self-healing workflow system over HTTP: the
// versioned workflow API under /api/v1/ (docs/API.md) over a live sharded
// service or a cluster node, the white-box chaos surface for the fuzzer,
// the cluster topology route and the GET /healthz liveness probe. Every
// server is assembled from one route table (routes.go), from which the
// OpenAPI document is generated. The cmd/selfheal-server binary serves it;
// tests drive it with net/http/httptest. The CTMC analyses (figures, custom
// solves, the Fig 3 state graph) are cmd/ctmc-solve's.
//
// With a registry attached, a server also exposes the runtime observability
// layer (internal/obs): a hand-rolled Prometheus text endpoint at /metrics,
// an expvar-style key-sorted JSON snapshot at /varz, and per-route request
// accounting. The metric catalog is docs/OBSERVABILITY.md.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"

	"selfheal/internal/obs"
	"selfheal/internal/shard"
)

// Server returns the route set of a single-process service: the versioned
// workflow API under /api/v1/ backed by the sharded self-healing service
// (docs/API.md), the liveness probe, and the exposition endpoints when reg
// is non-nil.
func Server(reg *obs.Registry, svc *shard.Service) http.Handler {
	fams := []string{FamV1}
	return assemble(reg, fams, func(m *apiMux) { v1Routes(m, shardBackend{svc: svc}, fams) })
}

func handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// errorEnvelope is the single error document every route returns:
// {"error": {"code": "...", "message": "..."}}.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// errorCode is the stable machine-readable slug for each status the API
// produces.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "run_exists"
	case http.StatusGone:
		return "below_horizon"
	case http.StatusTooManyRequests:
		return "queue_full"
	default:
		return "internal"
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	var env errorEnvelope
	env.Error.Code = errorCode(status)
	env.Error.Message = err.Error()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env)
}
