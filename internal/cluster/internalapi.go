package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"selfheal/internal/engine"
	"selfheal/internal/recovery"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// apiError is a structured error envelope returned by a peer's internal
// API. Unwrap maps the wire code back to the engine/shard sentinels so a
// proxying node propagates the same HTTP status its peer decided.
type apiError struct {
	Code string
	Msg  string
}

func (e *apiError) Error() string { return fmt.Sprintf("cluster: peer error %s: %s", e.Code, e.Msg) }

func (e *apiError) Unwrap() error {
	switch e.Code {
	case "bad_request":
		return engine.ErrBadSpec
	case "not_found":
		return engine.ErrUnknownRun
	case "run_exists":
		return engine.ErrRunExists
	case "queue_full":
		return shard.ErrQueueFull
	case "below_horizon":
		return recovery.ErrHorizon
	}
	return nil
}

// Wire documents of the node-to-node API.

type statusDoc struct {
	Node       string `json:"node"`
	Applied    int    `json:"applied"`
	ActiveRuns int    `json:"active_runs"`
	Alerts     int    `json:"alerts"`
	Incident   bool   `json:"incident"`
	State      string `json:"state"`
}

// commitsDoc is the curl-able JSON answer of a plain commits GET: one Record
// document per record, each decoded from its frame only when asked for.
// Replication itself only ever carries frames.
type commitsDoc struct {
	Records []json.RawMessage `json:"records"`
}

type appliedDoc struct {
	Applied int `json:"applied"`
}

type submitReq struct {
	Origin string `json:"origin"`
	// Entry is the single-entry form; Entries is the batch form the
	// pipelined executor uses. Exactly one of them is set.
	Entry   *EntryJSON   `json:"entry,omitempty"`
	Entries []*EntryJSON `json:"entries,omitempty"`
}

type submitResp struct {
	Results []SubmitResult `json:"results"`
}

// specReq registers a run; Entries is its first window, speculated at
// admission, stamped in the spec's group (specResp.Results, one verdict per
// entry, as /submit answers).
type specReq struct {
	Origin  string           `json:"origin"`
	Run     string           `json:"run"`
	Spec    *wfjson.SpecJSON `json:"spec"`
	Entries []*EntryJSON     `json:"entries,omitempty"`
}

type specResp struct {
	Seq     int            `json:"seq"`
	Results []SubmitResult `json:"results,omitempty"`
}

type seqDoc struct {
	Seq int `json:"seq"`
}

type forgeReq struct {
	Origin string           `json:"origin"`
	Run    string           `json:"run"`
	Task   string           `json:"task"`
	Reads  []string         `json:"reads,omitempty"`
	Writes map[string]int64 `json:"writes,omitempty"`
}

type forgeResp struct {
	Instance string `json:"instance"`
	Seq      int    `json:"seq"`
}

type checkpointReq struct {
	Origin string `json:"origin"`
}

type tokenReq struct {
	Run   string `json:"run"`
	After int    `json:"after"`
}

type alertForwardReq struct {
	Bad []wlog.InstanceID `json:"bad"`
}

type alertForwardResp struct {
	Admitted int `json:"admitted"`
	Dropped  int `json:"dropped"`
}

// InternalHandler serves the node-to-node API under /internal/v1/. It is
// mounted next to (not inside) the public API so operators can firewall it
// separately; the route set is documented in docs/CLUSTER.md.
func (n *Node) InternalHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/v1/status", n.handleStatus)
	mux.HandleFunc("GET /internal/v1/commits", n.handleCommitsPull)
	mux.HandleFunc("GET /internal/v1/snapshot", n.handleSnapshot)
	mux.HandleFunc("POST /internal/v1/commits", n.handleCommitsPush)
	mux.HandleFunc("POST /internal/v1/submit", n.handleSubmit)
	mux.HandleFunc("POST /internal/v1/spec", n.handleSpec)
	mux.HandleFunc("POST /internal/v1/forge", n.handleForge)
	mux.HandleFunc("POST /internal/v1/checkpoint", n.handleCheckpoint)
	mux.HandleFunc("POST /internal/v1/tokens", n.handleToken)
	mux.HandleFunc("POST /internal/v1/alerts", n.handleAlertForward)
	return mux
}

func writeInternalJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeInternalErr(w http.ResponseWriter, status int, code, msg string) {
	writeInternalJSON(w, status, map[string]any{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// writeMappedErr translates sentinel-wrapped errors into the envelope the
// peer client maps back to the same sentinels.
func writeMappedErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrBadSpec):
		writeInternalErr(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, engine.ErrUnknownRun):
		writeInternalErr(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, engine.ErrRunExists):
		writeInternalErr(w, http.StatusConflict, "run_exists", err.Error())
	case errors.Is(err, shard.ErrQueueFull):
		writeInternalErr(w, http.StatusTooManyRequests, "queue_full", err.Error())
	case errors.Is(err, recovery.ErrHorizon):
		writeInternalErr(w, http.StatusGone, "below_horizon", err.Error())
	default:
		writeInternalErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func decodeInternal(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(v); err != nil {
		writeInternalErr(w, http.StatusBadRequest, "bad_request", "malformed JSON: "+err.Error())
		return false
	}
	return true
}

func (n *Node) statusSnapshot() statusDoc {
	return statusDoc{
		Node:       n.cfg.NodeID,
		Applied:    n.servable(),
		ActiveRuns: len(n.rep.state().Live()),
		Alerts:     int(n.pendingAlerts.Load()),
		Incident:   n.inIncident.Load(),
		State:      n.StateString(),
	}
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeInternalJSON(w, http.StatusOK, n.statusSnapshot())
}

func (n *Node) handleCommitsPull(w http.ResponseWriter, r *http.Request) {
	after, _ := strconv.Atoi(r.URL.Query().Get("after"))
	max := 512
	if m, err := strconv.Atoi(r.URL.Query().Get("max")); err == nil && m > 0 {
		max = m
	}
	if r.URL.Query().Get("codec") == "bin" {
		// The replication codec: the journal's own frames. Peers always
		// request it; plain GET keeps the curl-able JSON document.
		body, err := n.framesAfter(after, max)
		if err != nil {
			writeFetchErr(w, err)
			return
		}
		n.o.replicationBytes("out", len(body))
		w.Header().Set("Content-Type", recordsContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	recs, err := n.recordsAfter(after, max)
	if err != nil {
		writeFetchErr(w, err)
		return
	}
	writeInternalJSON(w, http.StatusOK, commitsDoc{Records: recs})
}

// writeFetchErr answers a commits fetch that failed: 410 below_horizon when
// the records asked for are retired beneath the snapshot (the fetcher
// installs GET /internal/v1/snapshot first), else 500.
func writeFetchErr(w http.ResponseWriter, err error) {
	if errors.Is(err, errBelowHorizon) {
		writeInternalErr(w, http.StatusGone, "below_horizon", err.Error())
		return
	}
	writeInternalErr(w, http.StatusInternalServerError, "internal", err.Error())
}

// snapshotContentType marks a snapshot body: a durable snapshot file's bytes.
const snapshotContentType = "application/x-selfheal-snapshot"

// handleSnapshot serves the node's latest snapshot, byte for byte as its
// file holds it (404 when the node has not checkpointed yet).
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	body, err := n.journal.Snapshot()
	if err != nil {
		writeInternalErr(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	if body == nil {
		writeInternalErr(w, http.StatusNotFound, "not_found", "node "+n.cfg.NodeID+" has no snapshot")
		return
	}
	w.Header().Set("Content-Type", snapshotContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (n *Node) handleCommitsPush(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.Header.Get("Content-Type"), recordsContentType) {
		writeInternalErr(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
			"a commits push carries record frames ("+recordsContentType+")")
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeInternalErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	n.o.replicationBytes("in", len(raw))
	if err = n.applyFrames(raw); errors.Is(err, errCorruptBody) {
		writeInternalErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if err != nil {
		writeInternalErr(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeInternalJSON(w, http.StatusOK, appliedDoc{Applied: n.rep.Applied()})
}

func (n *Node) requireStamper(w http.ResponseWriter) bool {
	if n.st == nil {
		writeInternalErr(w, http.StatusMisdirectedRequest, "not_stamper",
			fmt.Sprintf("node %s is not the sequencer (%s is)", n.cfg.NodeID, n.ring.Stamper()))
		return false
	}
	return true
}

func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !n.requireStamper(w) {
		return
	}
	var req submitReq
	if !decodeInternal(w, r, &req) {
		return
	}
	if len(req.Entries) > 0 {
		results, err := n.st.SubmitEntries(r.Context(), req.Origin, req.Entries)
		if err != nil {
			writeMappedErr(w, err)
			return
		}
		writeInternalJSON(w, http.StatusOK, submitResp{Results: results})
		return
	}
	if req.Entry == nil {
		writeInternalErr(w, http.StatusBadRequest, "bad_request", "submit without entry")
		return
	}
	writeInternalJSON(w, http.StatusOK, n.st.SubmitEntry(r.Context(), req.Origin, req.Entry))
}

func (n *Node) handleSpec(w http.ResponseWriter, r *http.Request) {
	if !n.requireStamper(w) {
		return
	}
	var req specReq
	if !decodeInternal(w, r, &req) {
		return
	}
	seq, results, err := n.st.SubmitSpec(req.Origin, req.Run, req.Spec, req.Entries)
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	writeInternalJSON(w, http.StatusOK, specResp{Seq: seq, Results: results})
}

func (n *Node) handleForge(w http.ResponseWriter, r *http.Request) {
	if !n.requireStamper(w) {
		return
	}
	var req forgeReq
	if !decodeInternal(w, r, &req) {
		return
	}
	inst, seq, err := n.st.SubmitForge(req.Origin, req.Run, req.Task, req.Reads, req.Writes)
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	writeInternalJSON(w, http.StatusOK, forgeResp{Instance: string(inst), Seq: seq})
}

func (n *Node) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !n.requireStamper(w) {
		return
	}
	var req checkpointReq
	if !decodeInternal(w, r, &req) {
		return
	}
	seq, err := n.st.Checkpoint(req.Origin)
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	writeInternalJSON(w, http.StatusOK, seqDoc{Seq: seq})
}

func (n *Node) handleToken(w http.ResponseWriter, r *http.Request) {
	var req tokenReq
	if !decodeInternal(w, r, &req) {
		return
	}
	n.o.tokenReceived()
	// Drive only once this replica has applied everything the sender had
	// (req.After). Before that the run's spec may not be here yet — the
	// driver would find no run and quit, stranding it until the reconciler —
	// or its frontier may still name the sender's task, and the driver would
	// bounce the token straight back. The wait runs after the reply, so the
	// sender never mistakes a lagging replica for an unreachable owner.
	if !n.stopped() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(n.stopCtx, 10*time.Second)
			defer cancel()
			if n.rep.WaitApplied(ctx, req.After) == nil {
				n.driveRun(req.Run, true)
			}
		}()
	}
	writeInternalJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleAlertForward admits an alert a follower forwards to the stamper,
// the one incident leader. The stamper's replica is the stream head, so it
// holds every instance the forwarder does: the check needs no wait.
func (n *Node) handleAlertForward(w http.ResponseWriter, r *http.Request) {
	if !n.requireStamper(w) {
		return
	}
	var req alertForwardReq
	if !decodeInternal(w, r, &req) {
		return
	}
	if err := n.checkAlerts([]triage.Alert{{Bad: req.Bad}}); err != nil {
		writeMappedErr(w, err)
		return
	}
	resp := alertForwardResp{}
	if n.admitAlert(req.Bad) {
		resp.Admitted = 1
	} else {
		resp.Dropped = 1
	}
	writeInternalJSON(w, http.StatusOK, resp)
}

// peerClient is the node-to-node HTTP client: short timeouts for the chatty
// control plane, long ones for submissions and replication. Its calls end
// when ctx, the node's lifetime, does: a submission parked at the stamper
// does not hold up the node's Stop.
type peerClient struct {
	short *http.Client
	long  *http.Client
	ctx   context.Context
}

func newPeerClient(ctx context.Context) *peerClient {
	return &peerClient{
		short: &http.Client{Timeout: 2 * time.Second},
		long:  &http.Client{Timeout: 30 * time.Second},
		ctx:   ctx,
	}
}

func (c *peerClient) call(cl *http.Client, method, addr, path string, in, out any) error {
	if addr == "" {
		return errors.New("cluster: peer has no address")
	}
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, "http://"+addr+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
			return &apiError{Code: env.Error.Code, Msg: env.Error.Message}
		}
		return fmt.Errorf("cluster: peer %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func (c *peerClient) status(addr string) (statusDoc, error) {
	var st statusDoc
	err := c.call(c.short, http.MethodGet, addr, "/internal/v1/status", nil, &st)
	return st, err
}

// fetchCommits pulls the frames of records past `after` (the binary
// replication codec).
func (c *peerClient) fetchCommits(addr string, after, max int) ([]byte, error) {
	if addr == "" {
		return nil, errors.New("cluster: peer has no address")
	}
	path := fmt.Sprintf("/internal/v1/commits?after=%d&max=%d&codec=bin", after, max)
	resp, err := c.long.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusGone {
		return nil, errBelowHorizon
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("cluster: peer GET %s: HTTP %d", path, resp.StatusCode)
	}
	return raw, nil
}

// fetchSnapshot downloads a peer's latest snapshot file.
func (c *peerClient) fetchSnapshot(addr string) ([]byte, error) {
	if addr == "" {
		return nil, errors.New("cluster: peer has no address")
	}
	resp, err := c.long.Get("http://" + addr + "/internal/v1/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("cluster: peer GET /internal/v1/snapshot: HTTP %d", resp.StatusCode)
	}
	return raw, nil
}

// pushCommits ships a pre-encoded binary replication body and returns the
// peer's acknowledged applied position.
func (c *peerClient) pushCommits(addr string, body []byte) (int, error) {
	if addr == "" {
		return 0, errors.New("cluster: peer has no address")
	}
	resp, err := c.long.Post("http://"+addr+"/internal/v1/commits", recordsContentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("cluster: peer POST /internal/v1/commits: HTTP %d", resp.StatusCode)
	}
	var ack appliedDoc
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, err
	}
	return ack.Applied, nil
}

func (c *peerClient) submitEntries(addr, origin string, entries []*EntryJSON) ([]SubmitResult, error) {
	var resp submitResp
	err := c.call(c.long, http.MethodPost, addr, "/internal/v1/submit", submitReq{Origin: origin, Entries: entries}, &resp)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(entries) {
		return nil, fmt.Errorf("cluster: submit returned %d results for %d entries", len(resp.Results), len(entries))
	}
	return resp.Results, nil
}

func (c *peerClient) submitSpec(addr, origin, run string, doc *wfjson.SpecJSON, entries []*EntryJSON) (int, []SubmitResult, error) {
	var resp specResp
	req := specReq{Origin: origin, Run: run, Spec: doc, Entries: entries}
	if err := c.call(c.long, http.MethodPost, addr, "/internal/v1/spec", req, &resp); err != nil {
		return 0, nil, err
	}
	if len(resp.Results) != len(entries) {
		return 0, nil, fmt.Errorf("cluster: spec returned %d results for %d entries", len(resp.Results), len(entries))
	}
	return resp.Seq, resp.Results, nil
}

func (c *peerClient) submitForge(addr, origin, run, task string, reads []string, writes map[string]int64) (wlog.InstanceID, int, error) {
	var resp forgeResp
	req := forgeReq{Origin: origin, Run: run, Task: task, Reads: reads, Writes: writes}
	err := c.call(c.long, http.MethodPost, addr, "/internal/v1/forge", req, &resp)
	return wlog.InstanceID(resp.Instance), resp.Seq, err
}

func (c *peerClient) checkpoint(addr, origin string) (int, error) {
	var resp seqDoc
	err := c.call(c.long, http.MethodPost, addr, "/internal/v1/checkpoint", checkpointReq{Origin: origin}, &resp)
	return resp.Seq, err
}

func (c *peerClient) sendToken(addr, run string, after int) error {
	return c.call(c.short, http.MethodPost, addr, "/internal/v1/tokens", tokenReq{Run: run, After: after}, nil)
}

func (c *peerClient) forwardAlert(addr string, bad []wlog.InstanceID) (int, int, error) {
	var resp alertForwardResp
	err := c.call(c.short, http.MethodPost, addr, "/internal/v1/alerts", alertForwardReq{Bad: bad}, &resp)
	if err != nil {
		return 0, 0, err
	}
	return resp.Admitted, resp.Dropped, nil
}
