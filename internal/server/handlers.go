package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"time"

	"wavescalar/internal/area"
	"wavescalar/internal/cli"
	"wavescalar/internal/cluster"
	"wavescalar/internal/design"
	"wavescalar/internal/explore"
	"wavescalar/internal/fault"
	"wavescalar/internal/sim"
	"wavescalar/internal/version"
	"wavescalar/internal/workload"
)

// routes builds the instrumented mux. Every route is wrapped so request
// counts and latency histograms are labeled by pattern, not raw URL (no
// cardinality explosion from job ids).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /v1/workloads", s.handleWorkloads)
	handle("GET /v1/designs", s.handleDesigns)
	handle("POST /v1/runs", s.handleRun)
	handle("POST /v1/predict", s.handlePredict)
	handle("POST /v1/sweeps", s.handleSweep)
	handle("POST /v1/scenarios", s.handleScenarioPost)
	handle("GET /v1/scenarios/{digest}", s.handleScenarioGet)
	handle("GET /v1/jobs/{id}", s.handleJobGet)
	handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	// Fabric endpoints. execute is served in every role ("any node can
	// answer any cell"); the membership endpoints require a coordinator.
	handle("POST /v1/cluster/execute", s.handleClusterExecute)
	handle("POST /v1/cluster/register", s.handleClusterRegister)
	handle("POST /v1/cluster/heartbeat", s.handleClusterHeartbeat)
	handle("POST /v1/cluster/deregister", s.handleClusterDeregister)
	handle("POST /v1/cluster/journal", s.handleClusterJournal)
	handle("GET /v1/cluster/workers", s.handleClusterWorkers)
	return mux
}

// retryAfterValue renders the 429 Retry-After hint: the configured base
// jittered ±20%, so a thundering herd of synchronized clients (or a
// fleet of coordinators retrying cells) spreads out instead of returning
// in lockstep.
func (s *Server) retryAfterValue() string {
	jittered := s.retryAfter.Seconds() * (0.8 + 0.4*rand.Float64())
	secs := int(math.Round(jittered))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeAdmissionErr maps an admission failure (full queue, over-quota
// tenant, shutdown) onto the API's backpressure responses. The two 429
// causes carry distinct machine-readable codes so clients can tell
// "the daemon is saturated" from "my tenant is over quota".
func (s *Server) writeAdmissionErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.add(&s.metrics.rejectedFull, 1)
		w.Header().Set("Retry-After", s.retryAfterValue())
		writeErrCode(w, http.StatusTooManyRequests, "queue_full", "admission queue full; retry")
	case errors.Is(err, errQuotaExceeded):
		w.Header().Set("Retry-After", s.retryAfterValue())
		writeErrCode(w, http.StatusTooManyRequests, "quota_exceeded", "tenant quota exceeded; retry")
	default:
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
	}
}

// admit charges the request's tenant quota and enqueues the job,
// settling the quota on failure. On success the job carries the tenant
// and the worker pool releases it when the job resolves.
func (s *Server) admit(r *http.Request, jb *job) error {
	tenant := tenantOf(r)
	if err := s.quotas.acquire(tenant); err != nil {
		return err
	}
	jb.tenant = tenant
	if err := s.enqueue(jb); err != nil {
		jb.tenant = ""
		s.quotas.release(tenant)
		return err
	}
	return nil
}

// statusWriter captures the response code for metrics and whether any
// bytes have been written — the panic middleware can only substitute a
// 500 while the response is still untouched.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with request metrics and panic recovery. A
// panicking handler must not take the daemon down with it: the panic is
// logged with a request id and a stack trace, counted in
// wsd_panics_total, and — if the handler had not started the response —
// answered with a 500 carrying the same request id so operators can
// correlate the client-visible error with the server log.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				id := s.reqSeq.Add(1)
				s.metrics.add(&s.metrics.panics, 1)
				log.Printf("server: panic serving %s (request %d): %v\n%s", pattern, id, rec, debug.Stack())
				if !sw.wrote {
					writeErr(sw, http.StatusInternalServerError, "internal error (request %d)", id)
				}
			}
			s.metrics.observeRequest(pattern, r.Method, sw.code, time.Since(start).Seconds())
		}()
		h(sw, r)
	})
}

// writeJSON responds with one JSON object in the shared CLI convention.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	cli.WriteJSON(w, v)
}

// apiError is the API's uniform error envelope: every non-2xx response
// body is {"error":{"code","message"}}, where code is a stable
// machine-readable slug and message is for humans.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errCode maps an HTTP status to its default error code. Handlers that
// need a more specific code (queue_full vs quota_exceeded, both 429) use
// writeErrCode directly.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// writeErr responds with the API's uniform error envelope, deriving the
// code from the status.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeErrCode(w, code, errCode(code), fmt.Sprintf(format, args...))
}

// writeErrCode responds with an explicit error code.
func writeErrCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: msg}})
}

// decodeBody strictly decodes a JSON request body into v — unknown fields
// are errors — answering 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// archSpec is the request-side architecture description: any subset of
// the seven Table 3 parameters plus the k-loop bound; omitted fields keep
// their Table 1 baseline values.
type archSpec struct {
	Clusters int `json:"clusters"`
	Domains  int `json:"domains"`
	PEs      int `json:"pes"`
	Virt     int `json:"virt"`
	Match    int `json:"match"`
	L1KB     int `json:"l1_kb"`
	L2MB     int `json:"l2_mb"`
	K        int `json:"k"`
}

// resolve merges the spec over the baseline and validates the result.
func (a *archSpec) resolve() (sim.Config, error) {
	arch := sim.BaselineArch()
	if a != nil {
		set := func(dst *int, v int) {
			if v != 0 {
				*dst = v
			}
		}
		set(&arch.Clusters, a.Clusters)
		set(&arch.Domains, a.Domains)
		set(&arch.PEs, a.PEs)
		set(&arch.Virt, a.Virt)
		set(&arch.Match, a.Match)
		set(&arch.L1KB, a.L1KB)
		set(&arch.L2MB, a.L2MB)
	}
	cfg := sim.Baseline(arch)
	if a != nil && a.K != 0 {
		cfg.K = a.K
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// runRequest is the body of POST /v1/runs. Either workload (+ scale,
// threads, fault) or scenario is set: scenario is a stored digest string
// or an inline scenario document and carries those axes itself.
type runRequest struct {
	Workload string          `json:"workload,omitempty"`
	Scale    string          `json:"scale,omitempty"`     // default "tiny"
	Threads  int             `json:"threads,omitempty"`   // default 1
	Config   *archSpec       `json:"config,omitempty"`    // default Table 1 baseline
	Fault    *fault.Script   `json:"fault,omitempty"`     // optional fault-injection script
	Scenario json.RawMessage `json:"scenario,omitempty"`  // digest string or inline document
	TimeoutS float64         `json:"timeout_s,omitempty"` // wait bound; default server-wide
}

// runResult is the deterministic payload of one measurement — derived
// entirely from the cached cell, so cold runs, singleflight followers and
// warm-restart cache hits serve byte-identical results.
type runResult struct {
	App       string  `json:"app"`
	Arch      string  `json:"arch"`
	AreaMM2   float64 `json:"area_mm2"`
	Scale     string  `json:"scale"`
	Threads   int     `json:"threads"`
	AIPC      float64 `json:"aipc"`
	Cycles    uint64  `json:"cycles"`
	SimCycles uint64  `json:"sim_cycles"`
	Err       string  `json:"err,omitempty"`
}

type runResponse struct {
	Key    string    `json:"key"`
	Cached bool      `json:"cached"`
	Result runResult `json:"result"`
}

func cellResult(cell explore.Cell, areaMM2 float64, scale string) runResult {
	return runResult{
		App: cell.App, Arch: cell.Arch, AreaMM2: areaMM2, Scale: scale,
		Threads: cell.Threads, AIPC: cell.AIPC,
		Cycles: cell.Cycles, SimCycles: cell.SimCycles, Err: cell.Err,
	}
}

// resolvedRun is a runRequest lowered to a runnable cell plus the
// derived display values. Both /v1/runs and /v1/predict resolve through
// here, so the predict fallback can serve bytes the run path would have
// produced.
type resolvedRun struct {
	cellSpec
	scaleName string
	areaMM2   float64
}

// resolveRun validates the per-run fields of a request. The returned
// status is meaningful only on error.
func resolveRun(req *runRequest) (resolvedRun, int, error) {
	if req.Workload == "" {
		return resolvedRun{}, http.StatusBadRequest, errors.New("workload or scenario is required")
	}
	wl, err := workload.ByName(req.Workload)
	if err != nil {
		return resolvedRun{}, http.StatusNotFound, err
	}
	scaleName := req.Scale
	if scaleName == "" {
		scaleName = "tiny"
	}
	sc, err := cli.ParseScale(scaleName)
	if err != nil {
		return resolvedRun{}, http.StatusBadRequest, err
	}
	if req.Threads == 0 {
		req.Threads = 1
	}
	if req.Threads < 0 {
		return resolvedRun{}, http.StatusBadRequest, fmt.Errorf("threads %d must be positive", req.Threads)
	}
	cfg, err := req.Config.resolve()
	if err != nil {
		return resolvedRun{}, http.StatusBadRequest, fmt.Errorf("bad config: %w", err)
	}
	if !req.Fault.Empty() {
		if err := req.Fault.Validate(sim.FaultShape(cfg)); err != nil {
			return resolvedRun{}, http.StatusBadRequest, fmt.Errorf("bad fault script: %w", err)
		}
		cfg.Fault = req.Fault
	}
	threads := []int{req.Threads}
	return resolvedRun{
		cellSpec: cellSpec{
			key: explore.CellKey(cfg, wl.Name, sc, threads),
			cfg: cfg, w: wl, scale: sc, threads: threads,
		},
		scaleName: scaleName, areaMM2: area.Total(cfg.Arch),
	}, 0, nil
}

// cellWait is one request's wait for its cells.
type cellWait struct {
	cells []cellSpec
	// scenario runs the cells as one private job that concurrent
	// identical requests do not join (phases share work through the
	// cache); otherwise the one cell joins the singleflight on its key.
	scenario bool
	// fabric marks coordinator traffic (/v1/cluster/execute): it is not
	// charged a tenant quota — the originating sweep already paid at the
	// coordinator — and waits only as long as the coordinator does.
	fabric   bool
	timeoutS float64 // the client's wait bound; 0 = the server default
	// late and gone are the 504 messages for a wait that outlived its
	// bound and for a caller that left first.
	late, gone string
}

// awaitCell answers a request's cells once: from the cache, from an
// identical in-flight request, or from one admitted job on the worker
// pool. It returns every cell with whether it was served from the cache;
// on failure it has written the error response and returns ok=false.
func (s *Server) awaitCell(w http.ResponseWriter, r *http.Request, c cellWait) (cells []explore.Cell, cached []bool, ok bool) {
	// Fast path: the cache (memory or replayed journal) holds every cell.
	cells = make([]explore.Cell, len(c.cells))
	cached = make([]bool, len(c.cells))
	hits := 0
	for i, cs := range c.cells {
		if cells[i], cached[i] = s.cache.Cell(cs.key); cached[i] {
			hits++
		}
	}
	if hits == len(c.cells) {
		return cells, cached, true
	}
	if s.isClosing() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return nil, nil, false
	}

	key := c.cells[0].key
	if c.scenario {
		key = ""
	}
	call, leader := s.flight.join(key)
	if leader {
		jb := &job{kind: kindCells, cells: c.cells, done: func(cells []explore.Cell, cached []bool, err error) {
			if !c.scenario {
				// Every waiter on a shared call waited for the job, so
				// none of them reports a cache hit.
				cached = make([]bool, len(cells))
			}
			s.flight.complete(key, call, cells, cached, err)
		}}
		var err error
		if c.fabric {
			err = s.enqueue(jb)
		} else {
			err = s.admit(r, jb)
		}
		if err != nil {
			s.flight.complete(key, call, nil, nil, err)
			s.writeAdmissionErr(w, err)
			return nil, nil, false
		}
	} else {
		s.metrics.add(&s.metrics.dedupShared, 1)
	}

	ctx := r.Context()
	if !c.fabric {
		timeout := s.requestTimeout
		if c.timeoutS > 0 {
			timeout = time.Duration(c.timeoutS * float64(time.Second))
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	select {
	case <-call.done:
		if call.err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v", call.err)
			return nil, nil, false
		}
		return call.cells, call.cached, true
	case <-ctx.Done():
		// The job keeps running and lands in the cache; a retry after it
		// completes is a cache hit.
		msg := c.late
		if r.Context().Err() != nil {
			msg = c.gone
		}
		writeErr(w, http.StatusGatewayTimeout, "%s", msg)
		return nil, nil, false
	}
}

// runLate is the /v1/runs 504 message, whether the wait bound passed or
// the caller left.
const runLate = "deadline exceeded waiting for simulation; retry later for the cached result"

// writeRun answers a resolved run with the /v1/runs response; the
// /v1/predict fallback calls it too, so the two are byte-identical.
func (s *Server) writeRun(w http.ResponseWriter, r *http.Request, res resolvedRun, timeoutS float64) {
	cells, cached, ok := s.awaitCell(w, r, cellWait{
		cells: []cellSpec{res.cellSpec}, timeoutS: timeoutS, late: runLate, gone: runLate,
	})
	if ok {
		writeJSON(w, http.StatusOK, runResponse{Key: res.key, Cached: cached[0], Result: cellResult(cells[0], res.areaMM2, res.scaleName)})
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Scenario) > 0 {
		s.handleScenarioRun(w, r, &req)
		return
	}
	res, status, err := resolveRun(&req)
	if err != nil {
		writeErr(w, status, "%v", err)
		return
	}
	s.writeRun(w, r, res, req.TimeoutS)
}

// sweepRequest is the body of POST /v1/sweeps: a suite, explicit app
// list, or scenario evaluated over the viable design space, optionally
// subsampled. A scenario supplies apps, scale, thread counts and fault
// script itself (and must be uniform across its phases).
type sweepRequest struct {
	Suite        string          `json:"suite,omitempty"`
	Apps         []string        `json:"apps,omitempty"`
	Scenario     json.RawMessage `json:"scenario,omitempty"`      // digest string or inline document
	Scale        string          `json:"scale,omitempty"`         // default "tiny"
	ThreadCounts []int           `json:"thread_counts,omitempty"` // default {1}; splash2 defaults to {1,4,16,64}
	MaxPoints    int             `json:"max_points,omitempty"`    // 0 = every viable design
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeBody(w, r, &req) {
		return
	}

	var (
		apps      []workload.Workload
		sc        workload.Scale
		counts    []int
		configure design.ConfigureFunc
	)
	if len(req.Scenario) > 0 {
		if req.Suite != "" || len(req.Apps) > 0 || req.Scale != "" || len(req.ThreadCounts) > 0 {
			writeErr(w, http.StatusBadRequest,
				"scenario is mutually exclusive with suite, apps, scale and thread_counts (the scenario carries them)")
			return
		}
		scn, status, err := s.resolveScenario(req.Scenario)
		if err != nil {
			writeErr(w, status, "%v", err)
			return
		}
		plan, err := scenarioSweepPlan(scn)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		apps, sc, counts, configure = plan.apps, plan.scale, plan.threads, plan.configure()
	} else {
		switch {
		case len(req.Apps) > 0:
			for _, name := range req.Apps {
				wl, err := workload.ByName(name)
				if err != nil {
					writeErr(w, http.StatusNotFound, "%v", err)
					return
				}
				apps = append(apps, wl)
			}
		case req.Suite != "":
			suite, ok := suiteByName(req.Suite)
			if !ok {
				writeErr(w, http.StatusBadRequest, "unknown suite %q (spec2000, mediabench, splash2, tiled)", req.Suite)
				return
			}
			apps = workload.BySuite(suite)
		default:
			writeErr(w, http.StatusBadRequest, "suite, apps or scenario is required")
			return
		}

		scaleName := req.Scale
		if scaleName == "" {
			scaleName = "tiny"
		}
		var err error
		sc, err = cli.ParseScale(scaleName)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		counts = req.ThreadCounts
		if len(counts) == 0 {
			counts = []int{1}
			if req.Suite == "splash2" {
				counts = []int{1, 4, 16, 64}
			}
		}
		for _, n := range counts {
			if n < 1 {
				writeErr(w, http.StatusBadRequest, "thread count %d must be positive", n)
				return
			}
		}
	}
	points := design.Viable()
	if req.MaxPoints > 0 && req.MaxPoints < len(points) {
		points = subsample(points, req.MaxPoints)
	}
	if s.isClosing() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	jb := &job{
		kind:  "sweep",
		sweep: &sweepSpec{points: points, apps: apps, scale: sc, threadCounts: counts, configure: configure},
		ctx:   ctx, cancel: cancel,
		state: stateQueued,
	}
	jb.progress.Total = len(points) * len(apps)
	id := s.jobs.add(jb)
	if err := s.admit(r, jb); err != nil {
		s.jobs.remove(id)
		cancel()
		s.writeAdmissionErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "status": stateQueued,
		"cells": len(points) * len(apps),
		"poll":  "/v1/jobs/" + id,
	})
}

// subsample picks n points evenly across the ordered design list, the
// same policy as wspareto -max.
func subsample(pts []design.Point, n int) []design.Point {
	out := make([]design.Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*len(pts)/n])
	}
	return out
}

func suiteByName(name string) (workload.Suite, bool) {
	for _, su := range workload.Suites() {
		if su.String() == name {
			return su, true
		}
	}
	return 0, false
}

// jobProgress is the wire form of a sweep's progress.
type jobProgress struct {
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	CacheHits int     `json:"cache_hits"`
	Simulated int     `json:"simulated"`
	Remote    int     `json:"remote"`
	Failed    int     `json:"failed"`
	SimCycles uint64  `json:"sim_cycles"`
	ElapsedS  float64 `json:"elapsed_s"`
}

// sweepRow is one design's outcome in a finished sweep job.
type sweepRow struct {
	Arch     string             `json:"arch"`
	AreaMM2  float64            `json:"area_mm2"`
	MeanAIPC float64            `json:"mean_aipc"`
	AIPC     map[string]float64 `json:"aipc,omitempty"`
	Threads  map[string]int     `json:"threads,omitempty"`
	Err      string             `json:"err,omitempty"`
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	state, p, results, jerr := jb.snapshot()
	resp := map[string]any{
		"id":    id,
		"state": state,
		"progress": jobProgress{
			Done: p.Done, Total: p.Total, CacheHits: p.CacheHits,
			Simulated: p.Simulated, Remote: p.Remote, Failed: p.Failed,
			SimCycles: p.SimCycles, ElapsedS: p.Elapsed.Seconds(),
		},
	}
	if jerr != nil {
		resp["error"] = jerr.Error()
	}
	if state == stateDone {
		rows := make([]sweepRow, len(results))
		for i, res := range results {
			rows[i] = sweepRow{
				Arch: res.Arch.String(), AreaMM2: res.Area, MeanAIPC: res.Mean,
				AIPC: res.AIPC, Threads: res.Threads,
			}
			if res.Err != nil {
				rows[i].Err = res.Err.Error()
			}
		}
		frontier := design.Frontier(results)
		front := make([]map[string]any, len(frontier))
		for i, f := range frontier {
			front[i] = map[string]any{"arch": f.Arch.String(), "area_mm2": f.Area, "aipc": f.AIPC}
		}
		resp["result"] = map[string]any{"designs": rows, "frontier": front}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	jb.cancel()
	state, _, _, _ := jb.snapshot()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": state, "status": "cancel requested"})
}

// workloadRow is one entry of the structured GET /v1/workloads listing.
// Tiled kernels additionally expose their decomposed tiling parameters,
// so clients can enumerate the tiling axes of the design space without
// parsing names.
type workloadRow struct {
	Name   string      `json:"name"`
	Suite  string      `json:"suite"`
	Scales []string    `json:"scales"`
	Tiling *tilingInfo `json:"tiling,omitempty"`
}

type tilingInfo struct {
	Family string `json:"family"` // "gemm" or "conv"
	Order  string `json:"order"`  // dataflow order, e.g. "os", "ws"
	Tile   [3]int `json:"tile"`   // gemm: Tm×Tn×Tk; conv: Tx×Ty×Tc
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	all := workload.All()
	rows := make([]workloadRow, len(all))
	for i, wl := range all {
		rows[i] = workloadRow{
			Name: wl.Name, Suite: wl.Suite.String(),
			Scales: []string{"tiny", "small", "medium"},
		}
		if family, order, tile, ok := workload.TiledInfo(wl.Name); ok {
			rows[i].Tiling = &tilingInfo{Family: family, Order: order, Tile: tile}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(rows), "workloads": rows})
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	points := design.Viable()
	if maxStr := r.URL.Query().Get("max"); maxStr != "" {
		var n int
		if _, err := fmt.Sscanf(maxStr, "%d", &n); err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad max %q", maxStr)
			return
		}
		if n < len(points) {
			points = subsample(points, n)
		}
	}
	rows := make([]map[string]any, len(points))
	for i, pt := range points {
		rows[i] = map[string]any{
			"arch": pt.Arch, "arch_string": pt.Arch.String(),
			"area_mm2": pt.Area, "total_pes": pt.Arch.TotalPEs(),
			"capacity": pt.Arch.Capacity(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(rows), "designs": rows})
}

// requireCoordinator gates the membership endpoints: only a coordinator
// owns a worker registry.
func (s *Server) requireCoordinator(w http.ResponseWriter) bool {
	if s.coord == nil {
		writeErr(w, http.StatusConflict, "not a coordinator (role %s)", s.role)
		return false
	}
	return true
}

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	if s.isClosing() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var req cluster.RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeErr(w, http.StatusBadRequest, "id and addr are required")
		return
	}
	s.coord.Registry().Register(req)
	log.Printf("server: cluster worker %s registered at %s (version %s)", req.ID, req.Addr, req.Version.Version)
	writeJSON(w, http.StatusOK, cluster.RegisterResponse{
		LeaseS:  s.coord.Registry().TTL().Seconds(),
		Version: version.Get("wsd"),
	})
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req cluster.HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !s.coord.Registry().Heartbeat(req.ID, req.Busy) {
		// Unknown lease (coordinator restart or expiry): the agent
		// re-registers on 404.
		writeErr(w, http.StatusNotFound, "unknown worker %q; re-register", req.ID)
		return
	}
	writeJSON(w, http.StatusOK, cluster.HeartbeatResponse{OK: true, Version: version.Get("wsd")})
}

func (s *Server) handleClusterDeregister(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req cluster.DeregisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	found := s.coord.Registry().Deregister(req.ID)
	if found {
		log.Printf("server: cluster worker %s deregistered (graceful drain)", req.ID)
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": found, "version": version.Get("wsd")})
}

// handleClusterJournal folds a worker's shipped journal delta into the
// coordinator's result space. The body is raw JSONL — the exact bytes
// of the worker's journal tail — staged to a temp file and merged
// through the explorer's idempotent MergeJournal: new cells land in the
// coordinator's cache *and* journal (so the merge survives the next
// warm restart), already-known keys are skipped. This is what keeps a
// worker cold-restart from losing cells it simulated outside a sweep.
func (s *Server) handleClusterJournal(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	if s.isClosing() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	received := bytes.Count(body, []byte{'\n'})
	if len(body) > 0 && body[len(body)-1] != '\n' {
		received++
	}
	tmp, err := os.CreateTemp("", "wsd-journal-*.jsonl")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "staging journal delta: %v", err)
		return
	}
	defer os.Remove(tmp.Name())
	_, werr := tmp.Write(body)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		writeErr(w, http.StatusInternalServerError, "staging journal delta: %v", werr)
		return
	}
	merged, err := s.exp.MergeJournal(tmp.Name())
	if err != nil {
		// Partial merges are fine (idempotence makes the re-ship safe);
		// tell the worker so it retries the whole delta.
		writeErr(w, http.StatusBadRequest, "merging journal delta: %v", err)
		return
	}
	s.metrics.add(&s.metrics.journalMerged, uint64(merged))
	writeJSON(w, http.StatusOK, cluster.JournalResponse{
		Received: received, Merged: merged, Version: version.Get("wsd"),
	})
}

func (s *Server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	writeJSON(w, http.StatusOK, cluster.WorkersResponse{
		Role:    string(s.role),
		LeaseS:  s.coord.Registry().TTL().Seconds(),
		Version: version.Get("wsd"),
		Workers: s.coord.Registry().Snapshot(),
	})
}

// handleClusterExecute simulates one fully resolved cell on this node —
// the worker half of the dispatch protocol, though every role serves it.
// It answers through awaitCell like a run (a 429 from the admission queue
// is the signal that makes the coordinator requeue the cell onto another
// worker), but as fabric traffic: no tenant quota, no server-side wait
// bound.
func (s *Server) handleClusterExecute(w http.ResponseWriter, r *http.Request) {
	var req cluster.ExecRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Key == "" {
		writeErr(w, http.StatusBadRequest, "key is required")
		return
	}
	wl, err := workload.ByName(req.App)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	req.Config.Trace = nil
	if err := req.Config.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad config: %v", err)
		return
	}
	if err := (design.SweepOptions{
		Scale: req.Scale, ThreadCounts: req.ThreadCounts,
		Parallelism: 1, Configure: design.BaselineConfigure,
	}).Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !req.Config.Fault.Empty() {
		if err := req.Config.Fault.Validate(sim.FaultShape(req.Config)); err != nil {
			writeErr(w, http.StatusBadRequest, "bad fault script: %v", err)
			return
		}
	}
	key := explore.CellKey(req.Config, wl.Name, req.Scale, req.ThreadCounts)
	if key != req.Key {
		// The mixed-version guard: committing under a drifted key schema
		// would corrupt the shared result space.
		writeErr(w, http.StatusConflict,
			"cell key mismatch: computed %s for requested %s (local version %s — mixed-version fabric?)",
			key, req.Key, version.Version)
		return
	}
	cells, cached, ok := s.awaitCell(w, r, cellWait{
		cells:  []cellSpec{{key: key, cfg: req.Config, w: wl, scale: req.Scale, threads: req.ThreadCounts}},
		fabric: true,
		// The coordinator timed out this attempt and will requeue the
		// cell; the simulation continues and lands in this node's cache,
		// so the retry (or any future request) is a fast hit.
		gone: "caller gave up; the cell continues and will be cached",
	})
	if ok {
		writeJSON(w, http.StatusOK, cluster.ExecResponse{Cell: cells[0], Cached: cached[0], Version: version.Get("wsd")})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	body := map[string]any{
		"status":         "ok",
		"version":        version.Get("wsd"),
		"role":           string(s.role),
		"workers":        s.workers,
		"busy":           s.busy.Load(),
		"queue_depth":    len(s.queue),
		"queue_capacity": s.queueDepth,
		"cache": map[string]any{
			"cells": st.Cells, "limit": st.Limit,
			"hits": st.Hits, "misses": st.Misses,
			"evictions": st.Evictions, "hit_ratio": st.HitRatio(),
		},
		"uptime_s": time.Since(s.start).Seconds(),
	}
	if s.coord != nil {
		cs := s.coord.Stats()
		body["cluster"] = map[string]any{
			"workers":      cs.Workers,
			"remote_cells": cs.RemoteCells,
			"requeues":     cs.Requeues,
		}
	}
	if s.sur != nil {
		info := map[string]any{"threshold": s.sur.threshold, "trained": s.sur.model != nil}
		if s.sur.model != nil {
			info["kind"] = s.sur.model.Kind
			info["samples"] = s.sur.model.Samples
		}
		body["surrogate"] = info
	}
	if s.isClosing() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w)
	// Sampled at scrape time, as float64 so values render in %g form.
	family(w, "wsd_queue_depth", "gauge", "Jobs waiting in the admission queue.", sample{value: float64(len(s.queue))})
	family(w, "wsd_queue_capacity", "gauge", "Admission queue bound.", sample{value: float64(s.queueDepth)})
	family(w, "wsd_workers", "gauge", "Worker pool size.", sample{value: float64(s.workers)})
	family(w, "wsd_workers_busy", "gauge", "Workers executing a job right now.", sample{value: float64(s.busy.Load())})
	family(w, "wsd_cache_entries", "gauge", "Cells in the result cache.", sample{value: float64(st.Cells)})
	family(w, "wsd_cache_limit", "gauge", "LRU cap on the result cache (0 = unlimited).", sample{value: float64(st.Limit)})
	family(w, "wsd_cache_hits_total", "counter", "Result-cache lookups answered without simulating.", sample{value: float64(st.Hits)})
	family(w, "wsd_cache_misses_total", "counter", "Result-cache lookups that required work.", sample{value: float64(st.Misses)})
	family(w, "wsd_cache_evictions_total", "counter", "Cells evicted by the LRU limit.", sample{value: float64(st.Evictions)})
	family(w, "wsd_cache_hit_ratio", "gauge", "Hits over all cache lookups.", sample{value: st.HitRatio()})

	bi := version.Get("wsd")
	family(w, "wsd_build_info", "gauge", "Build identity of this daemon (value is always 1).",
		sample{fmt.Sprintf("{version=%q,commit=%q,go=%q,role=%q}", bi.Version, bi.Commit, bi.Go, s.role), 1})
	family(w, "wsd_quota_rejected_total", "counter", "Requests rejected with 429 because the tenant was over its admission quota.",
		sample{value: s.quotas.rejections()})

	// Fabric metrics exist only where the fabric does: on the coordinator.
	if s.coord != nil {
		cs := s.coord.Stats()
		family(w, "wsd_cluster_workers", "gauge", "Workers currently holding a live lease.", sample{value: cs.Workers})
		var inflight []sample
		for _, wi := range s.coord.Registry().Snapshot() {
			inflight = append(inflight, sample{fmt.Sprintf("{worker=%q}", wi.ID), wi.Inflight})
		}
		family(w, "wsd_cluster_worker_inflight", "gauge", "Cells currently dispatched to each worker.", inflight...)
		family(w, "wsd_cluster_cells_dispatched_total", "counter", "Cell execution attempts sent to workers.", sample{value: cs.Dispatched})
		family(w, "wsd_cluster_remote_cells_total", "counter", "Cells completed by workers.", sample{value: cs.RemoteCells})
		family(w, "wsd_cluster_requeues_total", "counter", "Failed attempts retried on another worker.", sample{value: cs.Requeues})
		family(w, "wsd_cluster_remote_errors_total", "counter", "Cell execution attempts that failed.", sample{value: cs.RemoteErrors})
		family(w, "wsd_cluster_lease_expirations_total", "counter", "Workers dropped for missing heartbeats.", sample{value: cs.LeaseExpirations})
		s.metrics.mu.Lock()
		merged := s.metrics.journalMerged
		s.metrics.mu.Unlock()
		family(w, "wsd_cluster_journal_merged_total", "counter", "New cells folded in from shipped worker journal deltas.", sample{value: merged})
	}

	// Surrogate serving metrics exist only when a model was configured.
	if s.sur != nil {
		s.sur.mu.Lock()
		predictions := s.sur.predictions
		var fallbacks []sample
		for _, reason := range sortedKeys(s.sur.fallbacks) {
			fallbacks = append(fallbacks, sample{fmt.Sprintf("{reason=%q}", reason), s.sur.fallbacks[reason]})
		}
		validations, errSum := s.sur.validations, s.sur.errSum
		s.sur.mu.Unlock()

		family(w, "wsd_surrogate_predictions_total", "counter", "/v1/predict requests answered from the model without simulating.", sample{value: predictions})
		family(w, "wsd_surrogate_fallbacks_total", "counter", "/v1/predict requests that fell back to the simulation pipeline, by reason.", fallbacks...)
		family(w, "wsd_surrogate_validations_total", "counter", "Predicted cells later simulated for real (the observed-error sample count).", sample{value: validations})
		family(w, "wsd_surrogate_observed_error_sum", "counter", "Summed relative AIPC error of validated predictions (divide by validations for the mean).", sample{value: errSum})
		if s.sur.model != nil {
			family(w, "wsd_surrogate_model_samples", "gauge", "Training-set size of the serving model.", sample{value: s.sur.model.Samples})
		}
		family(w, "wsd_surrogate_confidence_threshold", "gauge", "RelAIPC gate above which /v1/predict falls back to simulation.", sample{value: s.sur.threshold})
	}

	// Counters owned by the embedding process (WithExternalCounter), e.g.
	// the journal shipper's retry count, sampled live at scrape time.
	for _, ec := range s.external {
		family(w, ec.name, "counter", ec.help, sample{value: ec.value()})
	}
}
