package obs_test

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/rtsim"
	"selfheal/internal/shard"
	"selfheal/internal/stg"
)

// TestCatalogWellFormed: names unique, kinds valid, every entry carries help
// text (it becomes the Prometheus # HELP line) and a paper section.
func TestCatalogWellFormed(t *testing.T) {
	kinds := map[string]bool{"counter": true, "gauge": true, "sum": true, "histogram": true}
	seen := make(map[string]bool)
	for _, d := range obs.Catalog() {
		if seen[d.Name] {
			t.Errorf("duplicate catalog entry %q", d.Name)
		}
		seen[d.Name] = true
		if !kinds[d.Kind] {
			t.Errorf("%s: unknown kind %q", d.Name, d.Kind)
		}
		if d.Help == "" || d.Symbol == "" || d.Section == "" {
			t.Errorf("%s: incomplete catalog entry %+v", d.Name, d)
		}
		if obs.HelpFor(d.Name) != d.Help {
			t.Errorf("HelpFor(%s) does not round-trip", d.Name)
		}
	}
	if obs.HelpFor("no_such_metric") != "" {
		t.Error("HelpFor invented help for an uncataloged name")
	}
}

// TestCatalogDocumented is the doc-drift gate's Go half (scripts/ci.sh greps
// the same pairing): every cataloged metric name must appear verbatim in
// docs/OBSERVABILITY.md.
func TestCatalogDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range obs.Catalog() {
		if !strings.Contains(string(doc), "`"+d.Name+"`") {
			t.Errorf("metric %s is not documented in docs/OBSERVABILITY.md", d.Name)
		}
	}
}

// TestRegisteredMetricsCataloged wires the full system — runtime, engine,
// log, virtual-time driver, sharded service and HTTP server — and checks
// that every metric family it actually registers is in the catalog, so a
// new instrumentation site cannot ship undocumented.
func TestRegisteredMetricsCataloged(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := rtsim.RunObserved(stg.Square(1, 6, 8, 4), 50, 7, reg); err != nil {
		t.Fatal(err)
	}
	svc, err := shard.New(shard.Config{Shards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Observe(reg)
	srv := httptest.NewServer(httpapi.Server(reg, svc))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/metrics", "/varz"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	cataloged := make(map[string]bool)
	for _, d := range obs.Catalog() {
		cataloged[d.Name] = true
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		families++
		base := strings.Fields(line)[2]
		if !cataloged[base] {
			t.Errorf("registered metric family %q is not in obs.Catalog()", base)
		}
	}
	// The wiring must have produced a substantial share of the catalog —
	// guards against the exposition silently going empty.
	if families < 25 {
		t.Errorf("only %d metric families registered; expected most of the %d cataloged", families, len(obs.Catalog()))
	}
}
