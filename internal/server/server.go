// Package server implements the HTTP serving layer of the recovery-planning
// stack (the daemon cmd/nrserved): JSON plan requests in, cached
// deterministic plans out.
//
// Endpoints:
//
//	POST /v1/plan        solve one scenario (content-addressed plan cache +
//	                     singleflight coalescing; cache metadata in the response)
//	POST /v1/sweep       run a declarative scenario sweep on the engine's pool
//	POST /v1/ensemble    run a Monte-Carlo disruption ensemble (fingerprint
//	                     dedup + plan-cache routing) and return the aggregated
//	                     robust-plan report; /v1/ensemble/stream is the SSE
//	                     variant with sample-level progress
//	GET  /v1/plan/stream solve one scenario streaming solver progress as
//	                     Server-Sent Events
//	GET  /healthz        liveness probe
//	GET  /metrics        Prometheus text metrics (cache, solves, admission)
//
// The server applies admission control — at most MaxInFlight solves run
// concurrently, excess requests queue (bounded, shed by priority class with
// Retry-After) — per-request timeouts, and honours client disconnects by
// cancelling the solve promptly (reported as HTTP 499, the de-facto "client
// closed request" status).
//
// Robustness (see internal/degrade): every solve runs behind a panic
// boundary, a bounded transient-failure retry, and a per-algorithm circuit
// breaker. Requests carrying a deadline (options.deadline_ms, or the
// server-wide DegradeDeadline default) are answered through a budgeted
// fallback chain — exact solver, then fast ISP, then a stale cache entry —
// and annotated with a degradation block instead of failing.
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/degrade"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/obs"
	"netrecovery/internal/pipeline"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/sweep"
	"netrecovery/internal/wire"
)

// StatusClientClosedRequest is the nginx-convention status the server
// records when the client went away mid-solve.
const StatusClientClosedRequest = 499

// maxRequestBody bounds request bodies (scenarios are a few MB at most even
// at CAIDA scale).
const maxRequestBody = 64 << 20

// Config parameterises New.
type Config struct {
	// Cache is the plan cache; nil means a fresh default cache
	// (plancache.Config zero values).
	Cache *plancache.Cache
	// MaxInFlight bounds the number of concurrently executing solves — the
	// admission control that keeps the box from oversubscribing. Cache hits
	// and coalesced waiters do not consume a slot; only solve leaders do.
	// 0 means GOMAXPROCS, matching the sizing of the PR 4 solver worker
	// pool: with MaxInFlight solves each running sequentially the machine
	// is exactly saturated.
	MaxInFlight int
	// RequestTimeout bounds each request end to end (0 = no limit). A
	// request that exceeds it fails with 504 and its solve is cancelled.
	RequestTimeout time.Duration
	// SolverWorkers is the default in-solve parallelism handed to solvers
	// when the request does not set options.workers. Zero derives
	// GOMAXPROCS / MaxInFlight (at least 1), so pool x solver parallelism
	// never exceeds the machine.
	SolverWorkers int
	// SessionTTL is the idle timeout after which an open planning session is
	// evicted (0 = 10 minutes). Every session operation resets the timer.
	SessionTTL time.Duration
	// MaxSessions bounds the number of concurrently open planning sessions
	// (0 = 64); POST /v1/session fails with 503 beyond it.
	MaxSessions int
	// MaxQueue bounds how many solves may wait for an admission slot
	// before the priority classes start shedding (429 + Retry-After).
	// 0 means 8 x MaxInFlight.
	MaxQueue int
	// DegradeDeadline, when positive, routes every plan request that does
	// not set its own options.deadline_ms through the deadline-budgeted
	// fallback chain with this budget. Zero leaves degradation opt-in
	// per request.
	DegradeDeadline time.Duration
	// Breaker tunes the per-algorithm circuit breakers (zero values pick
	// the degrade.BreakerConfig defaults).
	Breaker degrade.BreakerConfig
	// Cluster, when non-nil, puts the server in multi-node mode: each
	// scenario fingerprint has one owning peer on the cluster's
	// consistent-hash ring, a local cache miss on a non-owner first
	// attempts a bounded peer-fill from the owner (GET /v1/peer/plan/{fp})
	// before solving locally, and the server answers its own peers' fill
	// lookups. The caller owns the cluster's lifecycle (Start/Close).
	Cluster *cluster.Cluster
	// Retry tunes the transient-failure solve retry (zero MaxAttempts
	// means 3 attempts with the default jittered backoff).
	Retry degrade.RetryPolicy
	// Tracer, when non-nil and enabled, traces every API request: a root
	// span per request (adopting an incoming W3C traceparent header, which
	// is how peer-fill traces stitch across the cluster), child spans at
	// the admission queue, cache lookup, degradation stages, peer fill and
	// solver execution, and a /debug/traces surface on the handler. A nil
	// or disabled tracer costs one atomic load per span site.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives the server's structured log events.
	Logger *obs.Logger
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Server is the HTTP serving layer. Create with New, expose with Handler.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	sem   chan struct{}
	// sweepMu serialises multi-token admission acquisition (sweeps take one
	// token per sweep worker); without it two sweeps could each hold half
	// the tokens and deadlock waiting for the rest.
	sweepMu sync.Mutex
	now     func() time.Time
	start   time.Time

	// sessMu guards sessions, the registry of open planning sessions.
	sessMu   sync.Mutex
	sessions map[string]*session

	// maxQueue bounds the admission queue (see Config.MaxQueue); queued
	// tracks its current depth; shed counts rejections per priority class.
	maxQueue int
	queued   atomic.Int64
	shed     [numPriorities]atomic.Uint64

	// breakerMu guards breakers, the lazily-built per-algorithm circuit
	// breakers.
	breakerMu sync.Mutex
	breakers  map[string]*degrade.Breaker

	// plans answers /v1/plan requests.
	plans pipeline.Pipeline

	// routeHists are the per-route request-duration histograms behind
	// nrserved_request_duration_seconds.
	routeHists []*routeHistogram

	solves            atomic.Uint64
	peerLookups       atomic.Uint64
	peerServed        atomic.Uint64
	peerFilledPlans   atomic.Uint64
	requests          atomic.Uint64
	errorsTot         atomic.Uint64
	inFlight          atomic.Int64
	sseStreams        atomic.Int64
	sessionsOpened    atomic.Uint64
	sessionsExpired   atomic.Uint64
	sessionReplans    atomic.Uint64
	ensembles         atomic.Uint64
	ensembleSamples   atomic.Uint64
	ensembleCacheHits atomic.Uint64
	solverPanics      atomic.Uint64
	solverRetries     atomic.Uint64
	degradedFallback  atomic.Uint64
	degradedStale     atomic.Uint64
	degradeExhausted  atomic.Uint64
}

// New returns a server configured by cfg.
func New(cfg Config) *Server {
	cache := cfg.Cache
	if cache == nil {
		// The default cache shares the server clock so TTL ages and
		// stale-serve decisions agree with request timestamps.
		cache = plancache.New(plancache.Config{Now: cfg.Now})
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = runtime.GOMAXPROCS(0)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = defaultQueueFactor * maxInFlight
	}
	srv := &Server{
		cfg:      cfg,
		cache:    cache,
		sem:      make(chan struct{}, maxInFlight),
		now:      now,
		sessions: make(map[string]*session),
		maxQueue: maxQueue,
		breakers: make(map[string]*degrade.Breaker),
	}
	srv.routeHists = newRouteHistograms()
	// Plan requests share the cache, peer-fill from the fingerprint's owner
	// in multi-node mode (NoCache requests never peer-fill: bypass means
	// "solve here"), and solve under admission control and the algorithm's
	// circuit breaker.
	srv.plans = pipeline.Pipeline{
		Cache: cache,
		Solve: func(ctx context.Context, alg string, solver heuristics.Solver, s *scenario.Scenario) (*scenario.Plan, error) {
			return srv.runSolve(ctx, alg, solver, s, prioPlan)
		},
		Blocked: func(alg string) bool { return srv.breakerFor(alg).Blocked() },
		Retry:   srv.retryPolicy(),
		Now:     now,
	}
	if cl := cfg.Cluster; cl != nil {
		srv.plans.Fill = func(ctx context.Context, key plancache.Key) (*scenario.Plan, bool) {
			plan, _, ok := cl.Fill(ctx, key)
			if ok {
				srv.peerFilledPlans.Add(1)
			}
			return plan, ok
		}
	}
	srv.start = now()
	return srv
}

// Cache returns the server's plan cache (shared with any library-path
// Planner the embedding process wires up).
func (srv *Server) Cache() *plancache.Cache { return srv.cache }

// SolveCount returns the number of solver executions the server performed —
// cache hits and coalesced requests do not increment it. Tests use it to
// assert the exactly-one-solve guarantees.
func (srv *Server) SolveCount() uint64 { return srv.solves.Load() }

// Handler returns the server's routing handler. Every route is wrapped in
// its request-duration histogram (see routeHistogram); the session
// sub-routes share the /v1/session histogram.
func (srv *Server) Handler() http.Handler {
	wrap := make(map[string]func(http.HandlerFunc) http.HandlerFunc, len(srv.routeHists))
	for _, rh := range srv.routeHists {
		hist := rh.hist
		route := rh.route
		wrap[route] = func(fn http.HandlerFunc) http.HandlerFunc {
			fn = srv.traced(route, fn)
			return func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				fn(w, r)
				hist.Observe(time.Since(start))
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", wrap["/v1/plan"](srv.handlePlan))
	mux.HandleFunc("/v1/plan/stream", wrap["/v1/plan/stream"](srv.handlePlanStream))
	mux.HandleFunc("/v1/sweep", wrap["/v1/sweep"](srv.handleSweep))
	mux.HandleFunc("/v1/ensemble", wrap["/v1/ensemble"](srv.handleEnsemble))
	mux.HandleFunc("/v1/ensemble/stream", wrap["/v1/ensemble/stream"](srv.handleEnsembleStream))
	sess := wrap["/v1/session"]
	mux.HandleFunc("POST /v1/session", sess(srv.handleSessionCreate))
	mux.HandleFunc("GET /v1/session/{id}", sess(srv.handleSessionGet))
	mux.HandleFunc("DELETE /v1/session/{id}", sess(srv.handleSessionDelete))
	mux.HandleFunc("POST /v1/session/{id}/delta", sess(srv.handleSessionDelta))
	mux.HandleFunc("GET /v1/session/{id}/stream", sess(srv.handleSessionStream))
	mux.HandleFunc("GET /v1/peer/plan/{fp}", wrap["/v1/peer/plan"](srv.handlePeerPlan))
	mux.HandleFunc("/healthz", wrap["/healthz"](srv.handleHealthz))
	mux.HandleFunc("/metrics", wrap["/metrics"](srv.handleMetrics))
	if tr := srv.cfg.Tracer; tr != nil {
		th := tr.Handler("/debug/traces")
		mux.Handle("GET /debug/traces", th)
		mux.Handle("GET /debug/traces/{rest...}", th)
	}
	return mux
}

// tracedRoutes are the routes that get a root span per request. Infra
// probes (/healthz, /metrics) are excluded so the trace ring holds real
// work, not scrape noise.
var tracedRoutes = map[string]bool{
	"/v1/plan":            true,
	"/v1/plan/stream":     true,
	"/v1/sweep":           true,
	"/v1/ensemble":        true,
	"/v1/ensemble/stream": true,
	"/v1/session":         true,
	"/v1/peer/plan":       true,
}

// traced wraps an API handler with the root span of a new trace. An
// incoming W3C traceparent header (sent by a peer's fill client) is
// adopted, so the peer-side trace shares the requester's trace ID. When
// the server has no enabled tracer the request path is untouched beyond
// one atomic load.
func (srv *Server) traced(route string, fn http.HandlerFunc) http.HandlerFunc {
	tr := srv.cfg.Tracer
	if tr == nil || !tracedRoutes[route] {
		return fn
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !tr.Enabled() {
			fn(w, r)
			return
		}
		ctx, sp := obs.StartRoot(r.Context(), tr, route, r.Header.Get("traceparent"))
		sp.SetAttr("method", r.Method)
		defer sp.End()
		fn(w, r.WithContext(ctx))
	}
}

// requestContext applies the per-request timeout.
func (srv *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if srv.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), srv.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// httpError carries a status code with an error; retryAfter, when positive,
// becomes a Retry-After header (seconds) on shed and unavailable responses.
type httpError struct {
	code       int
	err        error
	retryAfter int
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// solveRequest validates one wire.PlanRequest, solves it through the plan
// pipeline and builds its response: the plan with its progressive timeline,
// the cache disposition, the degradation annotation when the fallback chain
// ran and (on request) the traced timing breakdown. progress, when non-nil,
// receives solver events if (and only if) this request ends up executing
// the solve itself.
func (srv *Server) solveRequest(ctx context.Context, req wire.PlanRequest, progress heuristics.ProgressFunc) (wire.PlanResponse, *httpError) {
	s, err := req.Scenario.Build()
	if err != nil {
		return wire.PlanResponse{}, badRequest("invalid scenario: %v", err)
	}
	alg := req.Algorithm
	if alg == "" {
		alg = "ISP"
	}
	params := heuristics.Params{
		Fast:         req.Options.Fast,
		OPTTimeLimit: time.Duration(req.Options.OptTimeLimitMS) * time.Millisecond,
		OPTMaxNodes:  req.Options.OptMaxNodes,
		OPTWorkers:   srv.resolveWorkers(req.Options.Workers),
		Progress:     progress,
		OnStats:      solveStatsAttrs,
	}
	solver, err := heuristics.New(alg, params)
	if err != nil {
		return wire.PlanResponse{}, badRequest("%v", err)
	}

	// A deadline (per request, or the server-wide default) routes the solve
	// through the budgeted fallback chain unless the request opts out.
	deadline := time.Duration(req.Options.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = srv.cfg.DegradeDeadline
	}
	if req.Options.NoDegrade {
		deadline = 0
	}
	fp := s.Fingerprint()
	res, err := srv.plans.Plan(ctx, pipeline.Request{
		Scenario:    s,
		Fingerprint: fp,
		Algorithm:   alg,
		Params:      params,
		Solver:      solver,
		NoCache:     req.Options.NoCache,
		Deadline:    deadline,
	})
	if errors.Is(err, degrade.ErrExhausted) {
		srv.degradeExhausted.Add(1)
		return wire.PlanResponse{}, &httpError{
			code:       http.StatusServiceUnavailable,
			err:        err,
			retryAfter: srv.retryAfterSeconds(),
		}
	}
	if herr := solveError(err); herr != nil {
		return wire.PlanResponse{}, herr
	}
	if res.Chain != nil {
		switch res.Chain.Level {
		case degrade.LevelFallback:
			srv.degradedFallback.Add(1)
		case degrade.LevelStale:
			srv.degradedStale.Add(1)
		}
	}
	wp := wire.FromPlan(s, res.Plan)
	if req.Options.StageBudget > 0 {
		if wp, err = wp.WithStages(s, res.Plan, req.Options.StageBudget); err != nil {
			return wire.PlanResponse{}, badRequest("%v", err)
		}
	}
	resp := wire.PlanResponse{
		Plan:        wp,
		Cache:       wire.CacheInfo{Status: res.Status, Fingerprint: hex.EncodeToString(fp[:]), AgeMS: res.Age.Milliseconds()},
		Degradation: wire.FromDegradation(res.Chain, deadline),
	}
	if req.Options.Timing {
		resp.Timing = timingFromTrace(ctx)
	}
	return resp, nil
}

// solveError maps a solve failure to an HTTP status: 499 when the client
// went away, 504 when the per-request timeout fired, 500 otherwise. An
// *httpError produced deeper in the stack (admission shed, breaker open)
// passes through with its status and Retry-After intact.
func solveError(err error) *httpError {
	if err == nil {
		return nil
	}
	var herr *httpError
	if errors.As(err, &herr) {
		return herr
	}
	switch {
	case errors.Is(err, context.Canceled):
		return &httpError{code: StatusClientClosedRequest, err: fmt.Errorf("solve cancelled: %w", err)}
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{code: http.StatusGatewayTimeout, err: fmt.Errorf("solve timed out: %w", err)}
	default:
		return &httpError{code: http.StatusInternalServerError, err: err}
	}
}

// solveStatsAttrs is the heuristics.StatsFunc the server installs on every
// solve: it lands solver depth telemetry (simplex iterations,
// refactorisations, warm starts; branch-and-bound nodes, rounds, steals,
// incumbent timeline) as attributes on the enclosing "solve" span. The
// solver calls it with its own Solve ctx, which runSolve arranged to carry
// that span; with tracing disabled SpanFromContext is nil and every Set is
// a no-op.
func solveStatsAttrs(ctx context.Context, st heuristics.SolveStats) {
	sp := obs.SpanFromContext(ctx)
	if sp == nil {
		return
	}
	sp.SetAttr("solver", st.Solver)
	if c := st.Core; c != nil {
		sp.SetInt("isp_iterations", int64(c.Iterations))
		sp.SetInt("isp_repairs", int64(c.NodeRepairs+c.EdgeRepairs))
		sp.SetInt("lp_calls", int64(c.Routability.Calls))
		sp.SetInt("lp_rebuilds", int64(c.Routability.Rebuilds))
		sp.SetInt("lp_warm_starts", int64(c.Routability.WarmStarts))
	}
	if m := st.MILP; m != nil {
		sp.SetInt("opt_nodes", int64(m.Nodes))
		sp.SetInt("opt_rounds", int64(m.Rounds))
		sp.SetInt("opt_steals", int64(m.Steals))
		sp.SetInt("opt_incumbents", int64(len(m.Incumbents)))
		sp.SetInt("lp_iterations", int64(m.LPIterations))
		sp.SetInt("lp_refactorisations", int64(m.Refactorisations))
		sp.SetInt("lp_warm_solves", int64(m.WarmSolves))
		sp.SetInt("lp_cold_solves", int64(m.ColdSolves))
		if n := len(m.Incumbents); n > 0 {
			last := m.Incumbents[n-1]
			sp.SetAttr("opt_best_objective", formatFloatAttr(last.Objective))
			sp.SetAttr("opt_best_bound", formatFloatAttr(last.Bound))
		}
	}
}

func formatFloatAttr(f float64) string {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return "none"
	}
	return strconv.FormatFloat(f, 'g', 6, 64)
}

// timingFromTrace snapshots the request's trace (the spans finished so far
// — i.e. everything but the still-open root) into the opt-in wire.Timing
// block. Returns nil when the request is untraced.
func timingFromTrace(ctx context.Context) *wire.Timing {
	traceID, spans := obs.SnapshotTrace(ctx)
	if traceID == "" || len(spans) == 0 {
		return nil
	}
	t := &wire.Timing{TraceID: traceID, Spans: make([]wire.TimingSpan, 0, len(spans))}
	for _, sp := range spans {
		ts := wire.TimingSpan{
			Name:       sp.Name,
			StartUS:    sp.StartUS,
			DurationUS: sp.DurationUS,
			Error:      sp.Err,
		}
		if len(sp.Attrs) > 0 {
			ts.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ts.Attrs[a.Key] = a.Value
			}
		}
		t.Spans = append(t.Spans, ts)
	}
	return t
}

// handlePlan implements POST /v1/plan.
func (srv *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	if r.Method != http.MethodPost {
		srv.writeError(w, &httpError{code: http.StatusMethodNotAllowed, err: errors.New("use POST")})
		return
	}
	var req wire.PlanRequest
	if herr := decodeJSON(r, &req); herr != nil {
		srv.writeError(w, herr)
		return
	}
	ctx, cancel := srv.requestContext(r)
	defer cancel()
	resp, herr := srv.solveRequest(ctx, req, nil)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	srv.writeJSON(w, http.StatusOK, resp)
}

// progressEvent is the SSE wire form of a solver progress event.
type progressEvent struct {
	Solver    string  `json:"solver"`
	Kind      string  `json:"kind"`
	Iteration int     `json:"iteration,omitempty"`
	Repairs   int     `json:"repairs,omitempty"`
	Incumbent float64 `json:"incumbent,omitempty"`
	Bound     float64 `json:"bound,omitempty"`
	Nodes     int     `json:"nodes,omitempty"`
}

// handlePlanStream implements GET /v1/plan/stream: the same request body as
// /v1/plan, answered as a Server-Sent Events stream of `progress` events
// followed by one final `plan` (or `error`) event. Progress events are only
// emitted when this request executes the solve itself — a cache hit or a
// coalesced request jumps straight to the final event.
func (srv *Server) handlePlanStream(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		srv.writeError(w, &httpError{code: http.StatusMethodNotAllowed, err: errors.New("use GET or POST with a JSON body")})
		return
	}
	var req wire.PlanRequest
	if herr := decodeJSON(r, &req); herr != nil {
		srv.writeError(w, herr)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		srv.writeError(w, &httpError{code: http.StatusInternalServerError, err: errors.New("response writer does not support streaming")})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	srv.sseStreams.Add(1)
	defer srv.sseStreams.Add(-1)

	// Solver progress callbacks can fire from solver-internal goroutines;
	// serialise all writes to the stream.
	var mu sync.Mutex
	emit := func(event string, payload any) {
		// The SSE fault point models a stuck or dead client connection:
		// an injected delay stalls this write, an injected error drops it.
		if err := faultinject.Fire(r.Context(), faultinject.PointSSE); err != nil {
			return
		}
		raw, err := json.Marshal(payload)
		if err != nil {
			return
		}
		mu.Lock()
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
		flusher.Flush()
		mu.Unlock()
	}
	progress := func(ev heuristics.ProgressEvent) {
		emit("progress", progressEvent{
			Solver:    ev.Solver,
			Kind:      ev.Kind,
			Iteration: ev.Iteration,
			Repairs:   ev.Repairs,
			Incumbent: finiteOrZero(ev.Incumbent),
			Bound:     finiteOrZero(ev.Bound),
			Nodes:     ev.Nodes,
		})
	}

	ctx, cancel := srv.requestContext(r)
	defer cancel()
	resp, herr := srv.solveRequest(ctx, req, progress)
	if herr != nil {
		srv.errorsTot.Add(1)
		emit("error", wire.Error{Error: herr.Error()})
		return
	}
	emit("plan", resp)
}

// finiteOrZero maps the solver's +-Inf sentinel values (no incumbent yet) to
// 0, which JSON can carry.
func finiteOrZero(f float64) float64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	return f
}

// handleSweep implements POST /v1/sweep: the request body is a sweep.Spec;
// the response is the aggregated sweep.Report. The sweep runs on the
// engine's own worker pool and is accounted against the same admission
// budget as plan solves: it acquires one admission token per sweep worker
// (the worker count is clamped to the admission bound, and the per-job
// solver parallelism defaults to 1 instead of the engine's
// machine-owning heuristic), so concurrent sweeps and plan traffic
// together never exceed MaxInFlight executing solver workers.
func (srv *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	if r.Method != http.MethodPost {
		srv.writeError(w, &httpError{code: http.StatusMethodNotAllowed, err: errors.New("use POST")})
		return
	}
	var spec sweep.Spec
	if herr := decodeJSON(r, &spec); herr != nil {
		srv.writeError(w, herr)
		return
	}
	if err := spec.Validate(); err != nil {
		srv.writeError(w, badRequest("%v", err))
		return
	}
	if spec.Workers <= 0 || spec.Workers > cap(srv.sem) {
		spec.Workers = cap(srv.sem)
	}
	if spec.SolverWorkers == 0 {
		// The engine's zero-default assumes it owns the machine
		// (GOMAXPROCS / pool); under shared admission each sweep job gets
		// exactly the one core its token represents.
		spec.SolverWorkers = 1
	}
	ctx, cancel := srv.requestContext(r)
	defer cancel()
	if herr := srv.acquireSlots(ctx, spec.Workers, prioSweep); herr != nil {
		srv.writeError(w, herr)
		return
	}
	defer srv.releaseSlots(spec.Workers)
	srv.inFlight.Add(1)
	report, err := sweep.Run(ctx, spec)
	srv.inFlight.Add(-1)
	if err != nil {
		srv.writeError(w, solveError(err))
		return
	}
	srv.writeJSON(w, http.StatusOK, report)
}

// acquireSlots takes n admission tokens for a bulk run of the given
// priority class, serialised so that concurrent multi-token acquisitions
// cannot deadlock holding partial sets. Each token that must wait counts
// against the class's queue-depth limit, so a bulk run beyond its class
// budget is shed rather than parked. On context cancellation or shed the
// tokens already held are returned.
func (srv *Server) acquireSlots(ctx context.Context, n, prio int) *httpError {
	srv.sweepMu.Lock()
	defer srv.sweepMu.Unlock()
	for i := 0; i < n; i++ {
		select {
		case srv.sem <- struct{}{}:
			continue
		default:
		}
		q := srv.queued.Add(1)
		if q > srv.classLimit(prio) {
			srv.queued.Add(-1)
			srv.shed[prio].Add(1)
			srv.releaseSlots(i)
			return &httpError{
				code:       http.StatusTooManyRequests,
				err:        fmt.Errorf("admission queue full for class %q (%d queued)", prioNames[prio], q-1),
				retryAfter: srv.retryAfterSeconds(),
			}
		}
		select {
		case srv.sem <- struct{}{}:
			srv.queued.Add(-1)
		case <-ctx.Done():
			srv.queued.Add(-1)
			srv.releaseSlots(i)
			return solveError(ctx.Err())
		}
	}
	return nil
}

// releaseSlots returns n admission tokens.
func (srv *Server) releaseSlots(n int) {
	for i := 0; i < n; i++ {
		<-srv.sem
	}
}

// handleHealthz implements GET /healthz.
func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	srv.writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": srv.now().Sub(srv.start).Milliseconds(),
	})
}

// handleMetrics implements GET /metrics in the Prometheus text exposition
// format (no client library needed for counters and gauges).
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	srv.evictIdleSessions()
	st := srv.cache.Stats()
	srv.sessMu.Lock()
	openSessions := len(srv.sessions)
	srv.sessMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b []byte
	add := func(name, help, typ string, value float64) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, value)...)
	}
	add("nrserved_requests_total", "HTTP requests received.", "counter", float64(srv.requests.Load()))
	add("nrserved_errors_total", "Requests answered with an error status.", "counter", float64(srv.errorsTot.Load()))
	add("nrserved_solves_total", "Solver executions (cache hits and coalesced requests excluded).", "counter", float64(srv.solves.Load()))
	add("nrserved_inflight_solves", "Solves executing right now.", "gauge", float64(srv.inFlight.Load()))
	add("nrserved_admission_capacity", "Maximum concurrent solves.", "gauge", float64(cap(srv.sem)))
	add("nrserved_sse_streams", "Open /v1/plan/stream connections.", "gauge", float64(srv.sseStreams.Load()))
	add("nrserved_cache_hits_total", "Plan-cache hits.", "counter", float64(st.Hits))
	add("nrserved_cache_misses_total", "Plan-cache misses (leader solves).", "counter", float64(st.Misses))
	add("nrserved_cache_coalesced_total", "Requests coalesced onto an in-flight identical solve.", "counter", float64(st.Coalesced))
	add("nrserved_cache_evictions_total", "Plan-cache LRU evictions.", "counter", float64(st.Evictions))
	add("nrserved_cache_expired_total", "Plan-cache TTL expirations.", "counter", float64(st.Expired))
	add("nrserved_cache_reelections_total", "Coalesced waiters that re-competed for solve leadership after their leader was cancelled.", "counter", float64(st.Reelections))
	add("nrserved_cache_entries", "Cached plans.", "gauge", float64(st.Entries))
	add("nrserved_sessions", "Open planning sessions.", "gauge", float64(openSessions))
	add("nrserved_sessions_opened_total", "Planning sessions opened.", "counter", float64(srv.sessionsOpened.Load()))
	add("nrserved_sessions_expired_total", "Planning sessions evicted by the idle TTL.", "counter", float64(srv.sessionsExpired.Load()))
	add("nrserved_session_replans_total", "Delta-triggered session re-plans.", "counter", float64(srv.sessionReplans.Load()))
	add("nrserved_ensembles_total", "Ensemble runs completed.", "counter", float64(srv.ensembles.Load()))
	add("nrserved_ensemble_samples_total", "Disruption samples drawn across ensemble runs.", "counter", float64(srv.ensembleSamples.Load()))
	add("nrserved_ensemble_cache_hits_total", "Unique ensemble scenarios answered from the plan cache.", "counter", float64(srv.ensembleCacheHits.Load()))
	add("nrserved_solver_panics_total", "Solver panics converted to errors at the recovery boundary.", "counter", float64(srv.solverPanics.Load()))
	add("nrserved_solver_retries_total", "Transient solve failures retried with backoff.", "counter", float64(srv.solverRetries.Load()))
	add("nrserved_degraded_fallback_total", "Plan requests served by the fast-ISP fallback stage.", "counter", float64(srv.degradedFallback.Load()))
	add("nrserved_degraded_stale_total", "Plan requests served from a stale cache entry.", "counter", float64(srv.degradedStale.Load()))
	add("nrserved_degrade_exhausted_total", "Plan requests whose fallback chain exhausted every stage.", "counter", float64(srv.degradeExhausted.Load()))
	add("nrserved_cache_stale_served_total", "Expired cache entries served by the degradation chain.", "counter", float64(st.StaleServed))
	add("nrserved_cache_unavailable_total", "Cache lookups failed by an (injected) shard fault.", "counter", float64(st.Unavailable))
	add("nrserved_admission_queued", "Solves waiting for an admission slot.", "gauge", float64(srv.queued.Load()))
	add("nrserved_admission_queue_capacity", "Admission queue bound (sheds beyond it).", "gauge", float64(srv.maxQueue))
	add("nrserved_peer_lookups_total", "Peer-fill lookups served on /v1/peer/plan.", "counter", float64(srv.peerLookups.Load()))
	add("nrserved_peer_served_total", "Peer-fill lookups answered with a cached plan.", "counter", float64(srv.peerServed.Load()))
	add("nrserved_peer_filled_plans_total", "Plan requests this node answered by fetching the owner peer's cached plan.", "counter", float64(srv.peerFilledPlans.Load()))
	if cl := srv.cfg.Cluster; cl != nil {
		cs := cl.Stats()
		add("nrserved_cluster_peers", "Static cluster membership size (including self).", "gauge", float64(cs.Peers))
		add("nrserved_cluster_peers_alive", "Peers currently in the ring (including self).", "gauge", float64(cs.Alive))
		add("nrserved_peer_fills_total", "Peer-fill attempts dispatched to owners.", "counter", float64(cs.Fills))
		add("nrserved_peer_fill_hits_total", "Peer-fills answered from the owner's cache.", "counter", float64(cs.Hits))
		add("nrserved_peer_fill_misses_total", "Peer-fills the owner had nothing cached for.", "counter", float64(cs.Misses))
		add("nrserved_peer_fill_errors_total", "Peer-fills failed by transport or decode errors.", "counter", float64(cs.Errors))
		add("nrserved_peer_fill_timeouts_total", "Peer-fills that hit their jittered deadline.", "counter", float64(cs.Timeouts))
		add("nrserved_peer_fill_dropped_total", "Peer-fills shed because the owner's bounded mailbox was full.", "counter", float64(cs.Dropped))
		add("nrserved_peer_fill_breaker_skipped_total", "Peer-fills refused by the owner's open circuit breaker.", "counter", float64(cs.BreakerSkipped))
		add("nrserved_peer_ejections_total", "Peers ejected from the ring by failed health probes.", "counter", float64(cs.Ejections))
		add("nrserved_peer_readmissions_total", "Ejected peers readmitted after a successful probe.", "counter", float64(cs.Readmissions))
	}

	// Labeled families are emitted by hand in a fixed order so the
	// exposition stays byte-deterministic for a given state.
	header := func(name, help, typ string) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)...)
	}
	header("nrserved_shed_total", "Requests shed by the bounded priority admission queue.", "counter")
	for i, class := range prioNames {
		b = append(b, fmt.Sprintf("nrserved_shed_total{class=%q} %g\n", class, float64(srv.shed[i].Load()))...)
	}
	algs, breakers := srv.breakerSnapshots()
	header("nrserved_breaker_state", "Circuit breaker state per algorithm (0 closed, 1 open, 2 half-open).", "gauge")
	for i, alg := range algs {
		b = append(b, fmt.Sprintf("nrserved_breaker_state{algorithm=%q} %g\n", alg, float64(breakers[i].State))...)
	}
	header("nrserved_breaker_opens_total", "Circuit breaker trips into the open state.", "counter")
	for i, alg := range algs {
		b = append(b, fmt.Sprintf("nrserved_breaker_opens_total{algorithm=%q} %g\n", alg, float64(breakers[i].Opens))...)
	}
	header("nrserved_breaker_half_opens_total", "Circuit breaker transitions into half-open probing.", "counter")
	for i, alg := range algs {
		b = append(b, fmt.Sprintf("nrserved_breaker_half_opens_total{algorithm=%q} %g\n", alg, float64(breakers[i].HalfOpens))...)
	}
	header("nrserved_breaker_closes_total", "Circuit breaker recoveries into the closed state.", "counter")
	for i, alg := range algs {
		b = append(b, fmt.Sprintf("nrserved_breaker_closes_total{algorithm=%q} %g\n", alg, float64(breakers[i].Closes))...)
	}

	fi := faultinject.Snapshot()
	armed := 0.0
	if faultinject.Armed() {
		armed = 1
	}
	add("nrserved_faultinject_armed", "1 when a fault-injection profile is armed.", "gauge", armed)
	add("nrserved_faultinject_fires_total", "Fault points evaluated while armed.", "counter", float64(fi.Fires))
	add("nrserved_faultinject_delays_total", "Injected delays.", "counter", float64(fi.Delays))
	add("nrserved_faultinject_errors_total", "Injected errors.", "counter", float64(fi.Errors))
	add("nrserved_faultinject_panics_total", "Injected panics.", "counter", float64(fi.Panics))
	b = appendHistograms(b, srv.routeHists)
	add("nrserved_uptime_seconds", "Seconds since the server started.", "gauge", srv.now().Sub(srv.start).Seconds())
	w.Write(b)
}

// resolveWorkers derives the in-solve parallelism for a request: an explicit
// request value wins (clamped to GOMAXPROCS — a client must not be able to
// demand arbitrary parallelism), then the configured default, then
// GOMAXPROCS divided by the admission bound (so admission x solver
// parallelism never oversubscribes the machine).
func (srv *Server) resolveWorkers(requested int) int {
	if requested != 0 {
		if max := runtime.GOMAXPROCS(0); requested > max {
			return max
		}
		return requested
	}
	if srv.cfg.SolverWorkers != 0 {
		return srv.cfg.SolverWorkers
	}
	if w := runtime.GOMAXPROCS(0) / cap(srv.sem); w > 1 {
		return w
	}
	return -1 // negative = sequential, see heuristics.Params.OPTWorkers
}

// decodeJSON parses a request body into v.
func decodeJSON(r *http.Request, v any) *httpError {
	body := http.MaxBytesReader(nil, r.Body, maxRequestBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return badRequest("empty request body (expected JSON)")
		}
		return badRequest("invalid JSON request: %v", err)
	}
	return nil
}

// writeJSON writes a JSON response.
func (srv *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the JSON error envelope and counts the failure. Shed
// and unavailable responses carry a Retry-After hint.
func (srv *Server) writeError(w http.ResponseWriter, herr *httpError) {
	srv.errorsTot.Add(1)
	if herr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(herr.retryAfter))
	}
	srv.writeJSON(w, herr.code, wire.Error{Error: herr.Error()})
}
