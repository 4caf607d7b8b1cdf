// Package httpapi exposes the CTMC analysis engine as an HTTP service:
// figure regeneration (tables and CSV), custom-configuration solving with
// JSON metrics, and the Fig 3 state-transition-graph in Graphviz DOT. The
// cmd/selfheal-server binary serves it; tests drive it with net/http/httptest.
//
// ObservedHandler additionally exposes the runtime observability layer
// (internal/obs): a hand-rolled Prometheus text endpoint at /metrics, an
// expvar-style key-sorted JSON snapshot at /varz, and per-route request
// accounting. The metric catalog is docs/OBSERVABILITY.md.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"selfheal/internal/dot"
	"selfheal/internal/figures"
	"selfheal/internal/obs"
	"selfheal/internal/shard"
	"selfheal/internal/stg"
)

// Handler returns the analysis routes without instrumentation.
// ObservedHandler adds the /metrics and /varz exposition endpoints plus
// per-route request accounting; Server additionally mounts the versioned
// workflow API over a live sharded service.
func Handler() http.Handler {
	return ObservedHandler(nil)
}

// Server returns the full route set: the legacy analysis routes (/solve,
// /figures, /stg.dot, /repair), the exposition endpoints when reg is
// non-nil, and — when svc is non-nil — the versioned workflow API under
// /api/v1/ backed by the sharded self-healing service (docs/API.md).
func Server(reg *obs.Registry, svc *shard.Service) http.Handler {
	if svc == nil {
		return ObservedHandler(reg)
	}
	fams := []string{FamLegacy, FamV1}
	b := shardBackend{svc: svc}
	return assemble(reg, fams, func(m *apiMux) {
		legacyRoutes(m)
		v1Routes(m, b, fams)
	})
}

// legacyRoutes mounts the unversioned analysis surface. These routes predate
// the workflow service: CTMC figure regeneration, custom solving, the Fig 3
// state graph and the stateless remote-repair endpoint.
func legacyRoutes(mux *apiMux) {
	mux.handle("GET", "/healthz", handleHealth)
	mux.handle("GET", "/figures", handleFigures)
	mux.handle("GET", "/figure/{id}", handleFigure)
	mux.handle("GET", "/solve", handleSolve)
	mux.handle("GET", "/stg.dot", handleSTG)
	mux.handle("POST", "/repair", handleRepair)
}

func handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func handleFigures(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(figures.IDs()); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

func handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fig, err := figures.ByID(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, fig.Table())
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, fig.CSV())
	case "json":
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(fig); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want table, csv or json)", format))
	}
}

// solveResponse is the JSON document of /solve.
type solveResponse struct {
	Lambda         float64      `json:"lambda"`
	Mu1            float64      `json:"mu1"`
	Xi1            float64      `json:"xi1"`
	AlertBuf       int          `json:"alertBuf"`
	RecoveryBuf    int          `json:"recoveryBuf"`
	F              string       `json:"f"`
	G              string       `json:"g"`
	States         int          `json:"states"`
	Steady         stg.Metrics  `json:"steady"`
	Epsilon        float64      `json:"epsilonConvergence"`
	MeanTimeToLoss *float64     `json:"meanTimeToLoss,omitempty"`
	Transient      *stg.Metrics `json:"transient,omitempty"`
	TransientAt    *float64     `json:"transientAt,omitempty"`
}

func handleSolve(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	getF := func(name string, def float64) (float64, error) {
		s := q.Get(name)
		if s == "" {
			return def, nil
		}
		return strconv.ParseFloat(s, 64)
	}
	lambda, err := getF("lambda", 1)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("lambda: %w", err))
		return
	}
	mu, err := getF("mu", 15)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("mu: %w", err))
		return
	}
	xi, err := getF("xi", 20)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("xi: %w", err))
		return
	}
	buf := 15
	if s := q.Get("buf"); s != "" {
		if buf, err = strconv.Atoi(s); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("buf: %w", err))
			return
		}
	}
	fName, gName := q.Get("f"), q.Get("g")
	if fName == "" {
		fName = "linear"
	}
	if gName == "" {
		gName = "linear"
	}
	m, err := buildModel(lambda, mu, xi, buf, fName, gName)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	met, err := m.SteadyMetrics()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp := solveResponse{
		Lambda: lambda, Mu1: mu, Xi1: xi,
		AlertBuf: buf, RecoveryBuf: buf,
		F: fName, G: gName,
		States: m.N(), Steady: met, Epsilon: met.Loss,
	}
	if lambda > 0 {
		if mttl, err := m.MeanTimeToLoss(); err == nil {
			resp.MeanTimeToLoss = &mttl
		}
	}
	if s := q.Get("t"); s != "" {
		tp, err := strconv.ParseFloat(s, 64)
		if err != nil || tp < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("t: invalid %q", s))
			return
		}
		pi, err := m.Transient(tp)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		tm := m.MetricsOf(pi)
		resp.Transient = &tm
		resp.TransientAt = &tp
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

func handleSTG(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	buf := 4
	var err error
	if s := q.Get("buf"); s != "" {
		if buf, err = strconv.Atoi(s); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("buf: %w", err))
			return
		}
	}
	m, err := buildModel(1, 15, 20, buf, "linear", "linear")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, dot.STG(m))
}

func buildModel(lambda, mu, xi float64, buf int, fName, gName string) (*stg.Model, error) {
	f, err := stg.DegradationByName(fName)
	if err != nil {
		return nil, err
	}
	g, err := stg.DegradationByName(gName)
	if err != nil {
		return nil, err
	}
	p := stg.Square(lambda, mu, xi, buf)
	p.F, p.G = f, g
	return stg.New(p)
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
	case http.StatusUnprocessableEntity:
		return "unprocessable"
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
