package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"selfheal/internal/obs"
	"selfheal/internal/shard"
)

// The chaos surface (docs/FUZZING.md): white-box hooks the stateful API
// fuzzer (cmd/selfheal-fuzz) uses to attack and interrogate a live service.
// The routes expose exactly what an in-process test harness would reach for
// — forged commits, forced checkpoints, the committed log, and the global
// soundness verdicts — so the fuzzer can drive a real server over HTTP and
// still check oracles that need internal state. They are mounted only by
// ServerWithChaos (and cluster nodes booted for testing) and must never be
// enabled on a production service.
//
//	POST /api/v1/chaos/forge       commit a forged task instance (attack)
//	POST /api/v1/chaos/checkpoint  force a durable snapshot now
//	POST /api/v1/chaos/drain       block until recovery drains (or runs idle)
//	GET  /api/v1/chaos/log         committed log entries (lsn, id, forged)
//	GET  /api/v1/chaos/verify      check-index + Theorem-3 audit verdicts

// ServerWithChaos returns Server's route set plus the chaos surface.
func ServerWithChaos(reg *obs.Registry, svc *shard.Service) http.Handler {
	b := shardBackend{svc: svc}
	fams := []string{FamV1, FamChaos}
	return assemble(reg, fams, func(m *apiMux) {
		v1Routes(m, b, fams)
		chaosRoutes(m, b)
	})
}

// forgeRequest is the POST /api/v1/chaos/forge document: the forged task
// reads the named keys' latest versions and commits the given writes, as if
// an attacker executed an unauthorized task (§II.B).
type forgeRequest struct {
	// Run names the workflow run the forged instance claims to belong to.
	Run string `json:"run"`
	// Task is the forged task's name; it need not exist in any spec.
	Task string `json:"task"`
	// Reads lists keys whose current versions the forged task observes,
	// creating the data dependences damage assessment will chase.
	Reads []string `json:"reads,omitempty"`
	// Writes maps each corrupted key to the forged value.
	Writes map[string]int64 `json:"writes"`
}

func chaosRoutes(mux *apiMux, cb ChaosBackend) {
	mux.handle("POST", "/api/v1/chaos/forge", func(w http.ResponseWriter, r *http.Request) {
		var req forgeRequest
		if err := decodeStrict(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if req.Task == "" || len(req.Writes) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("forge needs a task name and at least one write"))
			return
		}
		inst, err := cb.InjectForged(req.Run, req.Task, req.Reads, req.Writes)
		if err != nil {
			serviceError(w, cb, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"instance": string(inst)})
	})

	mux.handle("POST", "/api/v1/chaos/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if err := cb.Checkpoint(r.Context()); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})

	mux.handle("POST", "/api/v1/chaos/drain", func(w http.ResponseWriter, r *http.Request) {
		timeout := 10 * time.Second
		if s := r.URL.Query().Get("timeout"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("timeout: invalid %q", s))
				return
			}
			timeout = d
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		var err error
		switch wait := r.URL.Query().Get("wait"); wait {
		case "", "idle":
			// All runs retired and recovery fully drained: the quiescent
			// point at which the fuzzer's global oracles are defined.
			err = cb.WaitIdle(ctx)
		case "recovery":
			err = cb.DrainRecovery(ctx)
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("wait: unknown mode %q (want idle or recovery)", wait))
			return
		}
		if err != nil {
			httpError(w, http.StatusConflict, fmt.Errorf("drain: %w", err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "state": cb.StateString()})
	})

	mux.handle("GET", "/api/v1/chaos/log", func(w http.ResponseWriter, _ *http.Request) {
		base, entries := cb.LogDoc()
		if entries == nil {
			entries = []LogEntry{}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"base":    base,
			"entries": entries,
		})
	})

	mux.handle("GET", "/api/v1/chaos/verify", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, cb.VerifyDoc())
	})
}

// decodeStrict decodes a JSON request body rejecting unknown fields.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	return nil
}
