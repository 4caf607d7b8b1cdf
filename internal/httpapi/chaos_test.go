package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"selfheal/internal/shard"
)

func chaosServer(t *testing.T, cfg shard.Config) *httptest.Server {
	t.Helper()
	svc, err := shard.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(svc.Stop)
	ts := httptest.NewServer(ServerWithChaos(nil, svc))
	t.Cleanup(ts.Close)
	return ts
}

// The chaos surface drives a full attack-and-repair round over HTTP: forge
// a corrupting instance, alert it, drain, and verify the soundness
// verdicts.
func TestChaosForgeAlertVerify(t *testing.T) {
	ts := chaosServer(t, shard.Config{Shards: 2, AuditRepairs: true})

	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/runs",
		map[string]any{"id": "r1", "spec": chainSpecJSON("w", 4)})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/chaos/forge", map[string]any{
		"run": "atk1", "task": "x",
		"reads":  []string{"w.k1"},
		"writes": map[string]int64{"w.k1": 9999},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("forge: status %d body %s", resp.StatusCode, body)
	}
	var forged struct {
		Instance string `json:"instance"`
	}
	if err := json.Unmarshal(body, &forged); err != nil {
		t.Fatal(err)
	}
	if forged.Instance != "atk1/x#1" {
		t.Fatalf("forged instance %q, want atk1/x#1", forged.Instance)
	}

	// The forged entry is visible in the committed log.
	resp, body = doJSON(t, "GET", ts.URL+"/api/v1/chaos/log", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("log: status %d body %s", resp.StatusCode, body)
	}
	var logDoc struct {
		Entries []struct {
			ID     string `json:"id"`
			Forged bool   `json:"forged"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &logDoc); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, e := range logDoc.Entries {
		seen = seen || (e.ID == "atk1/x#1" && e.Forged)
	}
	if !seen {
		t.Fatalf("forged entry missing from log: %s", body)
	}

	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/alerts",
		map[string]any{"bad": []string{"atk1/x#1"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alert: status %d body %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/chaos/drain?wait=idle&timeout=10s", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d body %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "GET", ts.URL+"/api/v1/chaos/verify", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d body %s", resp.StatusCode, body)
	}
	var verdict struct {
		State           string `json:"state"`
		CheckIndex      string `json:"check_index"`
		AuditViolations int    `json:"audit_violations"`
	}
	if err := json.Unmarshal(body, &verdict); err != nil {
		t.Fatal(err)
	}
	if verdict.CheckIndex != "ok" || verdict.AuditViolations != 0 || verdict.State != "NORMAL" {
		t.Fatalf("verify verdict: %s", body)
	}
}

func TestChaosRejectsMalformed(t *testing.T) {
	ts := chaosServer(t, shard.Config{Shards: 1})

	resp, body := doJSON(t, "POST", ts.URL+"/api/v1/chaos/forge",
		map[string]any{"run": "atk1", "task": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forge without writes: status %d body %s", resp.StatusCode, body)
	}
	envelopeCode(t, body)

	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/chaos/drain?wait=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus wait mode: status %d body %s", resp.StatusCode, body)
	}

	// Checkpoint needs no WAL: an in-memory service forgets at the head.
	resp, body = doJSON(t, "POST", ts.URL+"/api/v1/chaos/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint in memory: status %d body %s", resp.StatusCode, body)
	}
}

// The chaos surface is opt-in: the plain Server must not mount it.
func TestChaosNotMountedByDefault(t *testing.T) {
	ts, _ := v1Server(t)
	resp, _ := doJSON(t, "GET", ts.URL+"/api/v1/chaos/verify", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("chaos route on plain server: status %d", resp.StatusCode)
	}
}
