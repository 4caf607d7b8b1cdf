package httpapi

import (
	"fmt"
	"net/http"
	"sort"
)

// The route table is the single source of truth for the HTTP surface: every
// mux registration flows through apiMux.handle, which refuses patterns the
// table does not declare, and apiMux.finish refuses a server that failed to
// mount a declared route of the families it serves. The OpenAPI document
// (GET /api/v1/openapi.json) is generated from the same rows, so the
// documented surface and the registered surface cannot drift — the property
// scripts/openapidrift re-asserts from CI through the wire.

// Route families: which servers mount a row.
const (
	// FamV1 is the stable versioned workflow API and the GET /healthz
	// liveness probe (every server).
	FamV1 = "v1"
	// FamChaos is the white-box fuzzing surface (ServerWithChaos and
	// cluster nodes only; never production).
	FamChaos = "chaos"
	// FamCluster is the cluster topology surface (cluster nodes only).
	FamCluster = "cluster"
	// FamMetrics is the exposition surface (/metrics, /varz), mounted only
	// when a registry is attached.
	FamMetrics = "metrics"
)

// Param documents one query parameter of a route.
type Param struct {
	Name, Desc string
}

// Route is one row of the API route table: the mux registration key plus
// the metadata the OpenAPI generator needs.
type Route struct {
	Method  string
	Pattern string
	Family  string
	Summary string
	Desc    string
	Params  []Param
	// Body is true when the route takes a JSON request body.
	Body bool
	// Responses maps status codes to descriptions ("200" at minimum).
	Responses map[string]string
}

// Key is the net/http ServeMux registration pattern ("METHOD /path").
func (r Route) Key() string { return r.Method + " " + r.Pattern }

// Table returns every route the system can serve, in a stable order.
// Servers mount the subset matching their families (apiMux).
func Table() []Route {
	return []Route{
		{Method: "POST", Pattern: "/api/v1/runs", Family: FamV1,
			Summary: "submit a workflow run",
			Desc:    "Registers a wfjson workflow run; init values seed the store first-writer-wins. On a cluster node the submission is proxied to the run's admission authority.",
			Body:    true,
			Responses: map[string]string{
				"201": "run accepted; body is the run status document",
				"400": "malformed body or invalid workflow spec",
				"409": "a run with this ID already exists",
				"429": "deferred-run queue full"}},
		{Method: "GET", Pattern: "/api/v1/runs", Family: FamV1,
			Summary: "list runs",
			Desc:    "Without query parameters: the legacy bare array of run status documents, sorted by ID. With any of status/limit/after: a paginated document {runs, next} filtered by status, capped at limit, resuming after the cursor.",
			Params: []Param{
				{"status", "filter: active, deferred, done or failed"},
				{"limit", "page size (positive integer)"},
				{"after", "resume cursor: the next page starts after this run ID"}},
			Responses: map[string]string{
				"200": "run status documents (bare array, or {runs, next} when paginated)",
				"400": "invalid status or limit"}},
		{Method: "GET", Pattern: "/api/v1/runs/{id}", Family: FamV1,
			Summary: "one run's status",
			Desc:    "The run status document; with trace=1 it adds the run's committed instance IDs (run/task#visit), forged included. Only entries above the horizon count: a run retired beneath it reports 0 steps and an empty trace.",
			Params:  []Param{{"trace", "1 adds the committed instance-ID trace"}},
			Responses: map[string]string{
				"200": "run status document",
				"404": "unknown run ID"}},
		{Method: "POST", Pattern: "/api/v1/alerts", Family: FamV1,
			Summary: "deliver IDS alerts",
			Desc:    "Admits a single alert (bad) and/or a batch; the whole request is validated before anything is queued. Malformed instance IDs are a 400; well-formed IDs absent from the log are a 404, or a 410 when they lie beneath the horizon: an instance of a run retired or forged there, or one a live run made there before a checkpoint truncated it.",
			Body:    true,
			Responses: map[string]string{
				"202": "queued; admitted/dropped counts and the service state",
				"400": "malformed body or malformed instance ID",
				"404": "well-formed instance ID absent from the log",
				"410": "instance beneath the horizon: of a run retired or forged there, or truncated from a live run (below_horizon)",
				"429": "alert buffer dropped the whole batch (Retry-After set)"}},
		{Method: "GET", Pattern: "/api/v1/state", Family: FamV1,
			Summary:   "service state",
			Desc:      "The §IV.C NORMAL/SCAN/RECOVERY classification, bounded-queue depths, cumulative metrics and run statuses.",
			Responses: map[string]string{"200": "state document"}},
		{Method: "GET", Pattern: "/api/v1/store", Family: FamV1,
			Summary:   "committed store snapshot",
			Desc:      "The current committed value of every key; keys are emitted sorted so two documents compare byte-for-byte.",
			Responses: map[string]string{"200": "key to value map"}},
		{Method: "GET", Pattern: "/api/v1/openapi.json", Family: FamV1,
			Summary:   "this API description",
			Desc:      "An OpenAPI 3.1 document generated from the server's route table: exactly the routes this server mounts.",
			Responses: map[string]string{"200": "OpenAPI 3.1 document"}},

		{Method: "GET", Pattern: "/api/v1/cluster", Family: FamCluster,
			Summary:   "cluster topology and health",
			Desc:      "Membership, key-range ownership, the stamper identity (the group-commit sequencer of the replicated record stream) and a live health probe of every node.",
			Responses: map[string]string{"200": "cluster document"}},

		{Method: "POST", Pattern: "/api/v1/chaos/forge", Family: FamChaos,
			Summary: "commit a forged task instance", Body: true,
			Desc: "Injects an attacker task that belongs to no workflow specification (fuzzing only).",
			Responses: map[string]string{
				"201": "forged instance committed", "400": "missing task or writes"}},
		{Method: "POST", Pattern: "/api/v1/chaos/checkpoint", Family: FamChaos,
			Summary: "move the horizon to the head",
			Desc:    "Forgets the history beneath the head now: a durable service or cluster first writes a snapshot; an in-memory service forgets without one.",
			Responses: map[string]string{
				"200": "checkpoint taken", "409": "service stopped or busy"}},
		{Method: "POST", Pattern: "/api/v1/chaos/drain", Family: FamChaos,
			Summary: "block until drained",
			Params: []Param{
				{"wait", "idle (default: runs retired and recovery drained) or recovery"},
				{"timeout", "Go duration (default 10s)"}},
			Responses: map[string]string{
				"200": "drained", "400": "bad wait mode or timeout", "409": "deadline expired"}},
		{Method: "GET", Pattern: "/api/v1/chaos/log", Family: FamChaos,
			Summary:   "committed log entries",
			Responses: map[string]string{"200": "log document (base, entries)"}},
		{Method: "GET", Pattern: "/api/v1/chaos/verify", Family: FamChaos,
			Summary:   "soundness verdicts",
			Desc:      "check-index, Theorem-3 audit and recovery-error verdicts for the fuzzing oracles.",
			Responses: map[string]string{"200": "verify document"}},

		{Method: "GET", Pattern: "/healthz", Family: FamV1,
			Summary: "liveness", Responses: map[string]string{"200": "ok"}},

		{Method: "GET", Pattern: "/metrics", Family: FamMetrics,
			Summary: "Prometheus text exposition", Responses: map[string]string{"200": "text"}},
		{Method: "GET", Pattern: "/varz", Family: FamMetrics,
			Summary: "key-sorted JSON metric snapshot", Responses: map[string]string{"200": "json"}},
	}
}

// routeIndex maps registration keys to table rows.
func routeIndex() map[string]Route {
	idx := make(map[string]Route)
	for _, r := range Table() {
		idx[r.Key()] = r
	}
	return idx
}

// apiMux is a ServeMux that only accepts registrations declared in the route
// table, and can verify afterwards that every declared route of its families
// was mounted. Both drift directions are closed: an undeclared registration
// panics at boot (caught by every test that builds a server), and a declared
// but unmounted route fails finish.
type apiMux struct {
	mux      *http.ServeMux
	idx      map[string]Route
	families map[string]bool
	seen     map[string]bool
}

func newAPIMux(families ...string) *apiMux {
	m := &apiMux{
		mux:      http.NewServeMux(),
		idx:      routeIndex(),
		families: make(map[string]bool, len(families)),
		seen:     make(map[string]bool),
	}
	for _, f := range families {
		m.families[f] = true
	}
	return m
}

func (m *apiMux) handle(method, pattern string, h http.HandlerFunc) {
	key := method + " " + pattern
	row, ok := m.idx[key]
	if !ok {
		panic(fmt.Sprintf("httpapi: route %q is not in the route table (routes.go)", key))
	}
	if !m.families[row.Family] {
		panic(fmt.Sprintf("httpapi: route %q belongs to family %q, not served here", key, row.Family))
	}
	m.mux.HandleFunc(key, h)
	m.seen[key] = true
}

// finish asserts every declared route of the mux's families was mounted and
// returns the underlying ServeMux.
func (m *apiMux) finish() *http.ServeMux {
	var missing []string
	for key, row := range m.idx {
		if m.families[row.Family] && !m.seen[key] {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		panic(fmt.Sprintf("httpapi: declared routes never mounted: %v", missing))
	}
	return m.mux
}

// MountedRoutes returns the table rows a server with the given families
// serves, in table order — the OpenAPI generator's input.
func MountedRoutes(families ...string) []Route {
	want := make(map[string]bool, len(families))
	for _, f := range families {
		want[f] = true
	}
	var out []Route
	for _, r := range Table() {
		if want[r.Family] {
			out = append(out, r)
		}
	}
	return out
}
