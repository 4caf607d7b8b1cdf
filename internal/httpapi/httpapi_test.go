package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"selfheal/internal/obs"
	"selfheal/internal/shard"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// clusterNode is a ClusterNode over a single-process service: enough to
// assemble ClusterServer here, where internal/cluster (which imports this
// package) cannot be used.
type clusterNode struct{ shardBackend }

func (clusterNode) ClusterDoc() any { return map[string]any{} }

// TestHealthz: every server answers the liveness probe, which
// cmd/selfheal-fuzz polls, and none serves the analysis routes that
// cmd/ctmc-solve prints (figures, custom solves, the Fig 3 DOT) or the
// stateless repair that POST /api/v1/alerts superseded — nor names them in
// its OpenAPI document.
func TestHealthz(t *testing.T) {
	svc, err := shard.New(shard.Config{Shards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Stop)
	removed := []string{"/figures", "/figure/{id}", "/solve", "/stg.dot", "/repair"}
	for name, h := range map[string]http.Handler{
		"Server":          Server(nil, svc),
		"ServerWithChaos": ServerWithChaos(obs.NewRegistry(), svc),
		"ClusterServer":   ClusterServer(nil, clusterNode{shardBackend{svc: svc}}),
	} {
		srv := httptest.NewServer(h)
		code, body, _ := get(t, srv, "/healthz")
		if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
			t.Errorf("%s: healthz: %d %q", name, code, body)
		}
		for _, path := range []string{"/figures", "/figure/4b", "/solve?lambda=1", "/stg.dot"} {
			if code, _, _ := get(t, srv, path); code != http.StatusNotFound {
				t.Errorf("%s: GET %s: %d, want 404", name, path, code)
			}
		}
		resp, err := srv.Client().Post(srv.URL+"/repair", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: POST /repair: %d, want 404", name, resp.StatusCode)
		}
		code, body, _ = get(t, srv, "/api/v1/openapi.json")
		var doc struct {
			Paths map[string]map[string]any `json:"paths"`
		}
		if err := json.Unmarshal([]byte(body), &doc); code != http.StatusOK || err != nil {
			t.Fatalf("%s: openapi: %d %v", name, code, err)
		}
		for _, path := range removed {
			if _, ok := doc.Paths[path]; ok {
				t.Errorf("%s: the OpenAPI document names the removed %s", name, path)
			}
		}
		srv.Close()
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := v1Server(t)
	resp, err := srv.Client().Post(srv.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: %d, want 405", resp.StatusCode)
	}
}

// discardWriter is a ResponseWriter that keeps nothing but one header map.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// TestObservedRequestAllocations bounds what an observed server allocates
// per request: every mounted route's request counter is looked up once, at
// mount, so counting a GET /healthz formats no series name. Formatting it
// per request made the count 3; the handler itself takes 1 (its
// Content-Type header value).
func TestObservedRequestAllocations(t *testing.T) {
	svc, err := shard.New(shard.Config{Shards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := Server(reg, svc)
	req := httptest.NewRequest("GET", "/healthz", nil)
	w := discardWriter{h: http.Header{}}
	got := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) })
	t.Logf("%.1f allocations per observed GET /healthz", got)
	if got > 1 {
		t.Fatalf("an observed GET /healthz costs %.0f allocations, want at most 1", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `http_requests_total{route="GET /healthz"} 1001`; !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition lacks %s:\n%s", want, sb.String())
	}
}
