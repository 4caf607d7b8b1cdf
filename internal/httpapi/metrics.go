package httpapi

import (
	"fmt"
	"net/http"
	"time"

	"selfheal/internal/obs"
)

// assemble builds every server variant: a route-table-checked mux for the
// given families, the caller's mounts, and, when a registry is attached,
// the two exposition endpoints —
//
//	GET /metrics   Prometheus text format (hand-rolled, deterministic order)
//	GET /varz      expvar-style key-sorted JSON snapshot
//
// — plus per-route request counters (http_requests_total{route="..."}) and
// an overall latency histogram (http_request_seconds). The metric catalog
// is docs/OBSERVABILITY.md. finish() panics if any declared route of the
// families was not mounted, so a server that drifts from the route table
// cannot boot.
func assemble(reg *obs.Registry, families []string, mount func(*apiMux)) http.Handler {
	if reg != nil {
		families = append(append([]string(nil), families...), FamMetrics)
	}
	m := newAPIMux(families...)
	mount(m)
	if reg != nil {
		m.handle("GET", "/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				httpError(w, http.StatusInternalServerError, err)
			}
		})
		m.handle("GET", "/varz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteJSON(w); err != nil {
				httpError(w, http.StatusInternalServerError, err)
			}
		})
	}
	mux := m.finish()
	if reg == nil {
		return mux
	}
	reqSeconds := reg.Histogram(obs.MHTTPRequestSeconds, obs.LatencyBuckets)
	// Every mounted pattern's counter is looked up once, here: a request
	// neither formats its series name nor takes the registry's lock.
	requests := make(map[string]*obs.Counter, len(m.seen))
	for key := range m.seen {
		requests[key] = reg.Counter(fmt.Sprintf("%s{route=%q}", obs.MHTTPRequests, key))
	}
	unmatched := reg.Counter(fmt.Sprintf("%s{route=%q}", obs.MHTTPRequests, "unmatched"))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := mux.Handler(r)
		c, ok := requests[pattern]
		if !ok {
			c = unmatched
		}
		start := time.Now()
		mux.ServeHTTP(w, r)
		reqSeconds.Observe(time.Since(start).Seconds())
		c.Inc()
	})
}
