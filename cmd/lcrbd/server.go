package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcrb/internal/core"
	"lcrb/internal/experiment"
	"lcrb/internal/resilience"
)

// serverConfig collects the flag-settable knobs of the daemon.
type serverConfig struct {
	// scale, seed and communitySize are the per-request defaults for the
	// matching solveRequest fields.
	scale         float64
	seed          uint64
	communitySize int
	// workers parallelizes σ̂ evaluation inside greedy solves.
	workers int
	// defaultTimeout bounds a request that sets no timeoutMillis.
	defaultTimeout time.Duration
	// deadlineMargin is the headroom the exact rungs (greedy and SCBG)
	// reserve before the request deadline so the heuristic bottom rung
	// still has time to answer.
	deadlineMargin time.Duration
	// maxInflight and maxWaiting bound admission: maxInflight solves run,
	// maxWaiting queue, the rest shed with a typed 429.
	maxInflight int64
	maxWaiting  int
	// sketchSamples is the realization count of RR-set sketch builds for
	// the ladder's fast rung; 0 disables the rung entirely.
	sketchSamples int
	// sketchDir, when set, persists built sketches across restarts.
	sketchDir string
	// tenants maps tenant names to admission weights (their deficit-round-
	// robin quantum and waiting-queue share). Unlisted tenants run at
	// weight 1.
	tenants map[string]int64
	// dynamic enables the mutable master graph behind POST /v1/graph/delta
	// with versioned snapshots and incremental sketch repair.
	dynamic bool
}

// solveRequest is the body of POST /v1/solve. Zero fields inherit server
// defaults.
type solveRequest struct {
	// Dataset is the calibrated network profile: hep (default) or enron.
	Dataset string `json:"dataset"`
	// Scale shrinks the profile (0 = server default).
	Scale float64 `json:"scale"`
	// Seed drives every random draw; equal requests return equal answers.
	Seed uint64 `json:"seed"`
	// CommunitySize is the target rumor community size.
	CommunitySize int `json:"communitySize"`
	// RumorFraction draws |R| as a fraction of the community (default 0.05).
	RumorFraction float64 `json:"rumorFraction"`
	// Alpha is the protection level for greedy (default 0.9).
	Alpha float64 `json:"alpha"`
	// Algorithm is auto (default), greedy, ris, scbg, proximity or
	// maxdegree. greedy, auto and ris are one ladder: the paper's greedy
	// as exact lazy cover over RR sets, from a warm sketch for auto and ris
	// (answered as "ris") or from the request's own Samples realizations
	// for greedy (core.GreedyContext, answered as "greedy"). A cold or
	// stale store (which starts a background build), a disabled sketch
	// rung, a failed RIS solve, an interrupted greedy or a failed or
	// panicking selection (the -chaos solve fault) serves the SCBG cover,
	// tagged degraded with the reason; the Proximity/MaxDegree heuristic
	// answers when SCBG cannot.
	Algorithm string `json:"algorithm"`
	// Samples is the greedy's σ̂ realization count (default 10, at most
	// maxSamples).
	Samples int `json:"samples"`
	// MaxHops is the simulation horizon (default 31).
	MaxHops int `json:"maxHops"`
	// TimeoutMillis bounds the solve (0 = server default deadline).
	TimeoutMillis int64 `json:"timeoutMillis"`
	// Tenant names the admission tenant this request is charged to; the
	// X-Tenant header takes precedence, and empty means the default
	// tenant. Tenancy never changes the answer, only the queueing.
	Tenant string `json:"tenant"`
}

// solveResponse is the body of a successful solve. Degraded answers are
// still 200s: the protector set is valid, just not the one the full-budget
// solver would have produced, and DegradedReason says why.
type solveResponse struct {
	// Algorithm names the solver that actually produced the answer.
	Algorithm string `json:"algorithm"`
	// Protectors is the selected protector seed set.
	Protectors []int32 `json:"protectors"`
	// NumRumors and NumEnds describe the instance.
	NumRumors int `json:"numRumors"`
	NumEnds   int `json:"numEnds"`
	// ProtectedEnds is σ̂(S_P) when the producing solver estimates it.
	ProtectedEnds float64 `json:"protectedEnds,omitempty"`
	// Achieved reports whether the α·|B| target was met exactly.
	Achieved bool `json:"achieved"`
	// Degraded marks a fallback answer; DegradedReason explains the path.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// Staleness reports, in dynamic mode, which snapshot version answered
	// and how far it trails the master (see dynTier).
	Staleness *stalenessInfo `json:"staleness,omitempty"`
	// ElapsedMillis is the serving time.
	ElapsedMillis int64 `json:"elapsedMillis"`
}

// errorResponse is the JSON error envelope. Every non-200 the daemon
// produces carries one — clients never see a bare status line.
type errorResponse struct {
	Error errorBody `json:"error"`
}

// errorBody is the envelope payload: a stable machine-readable code plus a
// human-readable message.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes in the envelope.
const (
	codeBadRequest    = "bad_request"
	codeShed          = "shed"
	codeQuotaExceeded = "quota_exceeded"
	codeDraining      = "draining"
	codeCircuitOpen   = "circuit_open"
	codeDeadline      = "deadline"
	codeClientClosed  = "client_closed"
	codeInternal      = "internal"
	// codeVersionConflict answers a graph delta whose baseVersion is not
	// the master's current version (409: retry against the new version).
	codeVersionConflict = "version_conflict"
	// codeDynamicDisabled answers /v1/graph/delta on a daemon without
	// -dynamic.
	codeDynamicDisabled = "dynamic_disabled"
)

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the answer was ready. The status is written for completeness
// (the client is usually gone), logged, and deliberately not counted as a
// degradation — the server did nothing wrong.
const statusClientClosedRequest = 499

// instanceKey identifies a cached experiment instance.
type instanceKey struct {
	dataset       string
	scale         float64
	seed          uint64
	communitySize int
}

// instanceEntry caches one build (or its failure) behind a sync.Once so
// concurrent requests for the same instance build it exactly once.
type instanceEntry struct {
	once sync.Once
	inst *experiment.Instance
	err  error
}

// server is the lcrbd serving state.
type server struct {
	cfg      serverConfig
	chaos    *chaosFaults
	gate     *resilience.Gate
	breaker  *resilience.Breaker
	sketches *sketchStore
	// dyn is the dynamic-graph tier (nil without -dynamic).
	dyn *dynTier
	// flights coalesces concurrent identical solves (same fingerprint)
	// into one execution; leaders run under hardDrain, so an impatient
	// client detaches without killing the solve other clients wait on.
	flights   *resilience.Group
	latencies *latencyWindow
	started   time.Time
	logf      func(format string, args ...any)

	mu        sync.Mutex
	instances map[instanceKey]*instanceEntry

	draining atomic.Bool
	requests atomic.Int64
	degraded atomic.Int64
	// solves counts leader executions (coalesced waiters excluded);
	// canceled counts requests whose client disconnected first; streams
	// counts /v1/solve/stream requests.
	solves   atomic.Int64
	canceled atomic.Int64
	streams  atomic.Int64

	// hardDrain is canceled when the drain window is nearly exhausted;
	// in-flight solves observe it and degrade instead of holding the
	// shutdown open.
	hardDrain context.Context
	hardStop  context.CancelFunc

	// holdSolve, set only by tests, holds every greedy, auto and ris
	// selection in flight until its context ends, so drain, coalescing and
	// disconnect tests do not depend on how fast the greedy runs.
	holdSolve bool
}

// newServer wires the serving state. logf receives operational log lines.
func newServer(cfg serverConfig, chaos *chaosFaults, logf func(format string, args ...any)) *server {
	if chaos == nil {
		chaos = &chaosFaults{}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	hardDrain, hardStop := context.WithCancel(context.Background())
	s := &server{
		cfg:   cfg,
		chaos: chaos,
		gate:  resilience.NewGate(cfg.maxInflight, cfg.maxWaiting),
		breaker: resilience.NewBreaker(resilience.BreakerOptions{
			FailureThreshold: 3,
			Cooldown:         2 * time.Second,
		}),
		sketches:  newSketchStore(cfg.sketchSamples, cfg.workers, cfg.sketchDir, cfg.dynamic, logf),
		flights:   resilience.NewGroup(hardDrain),
		latencies: newLatencyWindow(512),
		started:   time.Now(),
		logf:      logf,
		instances: make(map[instanceKey]*instanceEntry),
		//lint:ignore ctxflow hardDrain is the daemon-lifetime drain scope; storing it once at construction is the design, per-request contexts still govern solves
		hardDrain: hardDrain,
		hardStop:  hardStop,
	}
	s.dyn = newDynTier(s, cfg.dynamic)
	names := make([]string, 0, len(cfg.tenants))
	for name := range cfg.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.gate.SetQuota(name, cfg.tenants[name])
	}
	return s
}

// stop cancels background work (in-flight sketch builds) and waits for it
// to exit — the last act of a drain, and of every test teardown, so no
// build goroutine outlives the process state it logs into.
func (s *server) stop() {
	s.hardStop()
	s.flights.Wait()
	s.sketches.drainBuilds()
	s.dyn.wait()
}

// handler builds the daemon's route table. Every route runs inside the
// panic-containment middleware: a panicking request answers a typed 500
// and the process keeps serving.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/solve/stream", s.handleSolveStream)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/graph/delta", s.handleDelta)
	return s.contain(mux)
}

// contain is the outermost middleware: it converts a request-goroutine
// panic into a JSON 500 so one poisoned solve cannot crash the daemon.
func (s *server) contain(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.logf("lcrbd: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				s.writeError(w, http.StatusInternalServerError, codeInternal,
					fmt.Sprintf("request panicked: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReadyz reports readiness: 200 while accepting solves, a typed 503
// once draining so load balancers stop routing here.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, codeDraining, "draining: not accepting new solves")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ready"}`)
}

// handleStats reports admission, coalescing, breaker and latency counters.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"inFlight":     s.gate.InFlight(),
		"waiting":      s.gate.Waiting(),
		"shed":         s.gate.Shed(),
		"quotaShed":    s.gate.QuotaShed(),
		"breaker":      s.breaker.State().String(),
		"draining":     s.draining.Load(),
		"requests":     s.requests.Load(),
		"degraded":     s.degraded.Load(),
		"solves":       s.solves.Load(),
		"coalesced":    s.flights.Coalesced(),
		"canceled":     s.canceled.Load(),
		"streams":      s.streams.Load(),
		"uptimeMillis": time.Since(s.started).Milliseconds(),
		"latency":      s.latencies.summary(),
	}
	tenants := make(map[string]any)
	for _, ts := range s.gate.Tenants() {
		tenants[ts.Tenant] = map[string]any{
			"weight":    ts.Weight,
			"inFlight":  ts.InFlight,
			"waiting":   ts.Waiting,
			"admitted":  ts.Admitted,
			"shed":      ts.Shed,
			"quotaShed": ts.QuotaShed,
		}
	}
	stats["tenants"] = tenants
	if s.sketches.enabled() {
		stats["sketch"] = s.sketches.stats()
	}
	if s.dyn.enabled() {
		stats["dynamic"] = s.dyn.stats()
	}
	s.writeJSON(w, stats)
}

// handleSolve admits, bounds, coalesces and dispatches one solve.
func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, codeDraining, "draining: not accepting new solves")
		return
	}
	req, err := decodeSolveRequest(r.Body, s.cfg)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	tenant := requestTenant(r, req)
	if !s.admit(w, r, tenant) {
		return
	}
	defer s.gate.ReleaseTenant(tenant, 1)

	start := time.Now()
	resp, err := s.solveCoalesced(r.Context(), req)
	if err != nil {
		status, code := s.classifyError(r, err)
		s.countError(r, code, err)
		s.writeError(w, status, code, err.Error())
		return
	}
	// The response may be shared with coalesced waiters: copy before
	// stamping this request's own serving time.
	out := *resp
	out.ElapsedMillis = time.Since(start).Milliseconds()
	if out.Degraded {
		s.degraded.Add(1)
	}
	s.latencies.record(time.Since(start))
	s.writeJSON(w, &out)
}

// admit charges one solve slot to tenant, translating the gate's typed
// refusals into the matching envelopes. It reports whether the request may
// proceed; the caller owes a ReleaseTenant when it does.
//
// Admission is the serving layer's first defense: at most maxInflight
// solves run, maxWaiting queue behind them in per-tenant fair shares, and
// everything else answers a cheap typed 429 instead of queueing unboundedly.
func (s *server) admit(w http.ResponseWriter, r *http.Request, tenant string) bool {
	err := s.gate.AcquireTenantContext(r.Context(), tenant, 1)
	switch {
	case err == nil:
		return true
	case errors.Is(err, resilience.ErrQuotaExceeded):
		s.writeError(w, http.StatusTooManyRequests, codeQuotaExceeded,
			fmt.Sprintf("tenant %q is over its fair share of the waiting queue, retry later", tenant))
	case errors.Is(err, resilience.ErrShed):
		s.writeError(w, http.StatusTooManyRequests, codeShed,
			"overloaded: in-flight and waiting slots are full, retry later")
	default:
		s.writeError(w, http.StatusServiceUnavailable, codeInternal, err.Error())
	}
	return false
}

// requestTenant resolves the tenant a request is charged to: the X-Tenant
// header wins, then the body field, then the default tenant.
func requestTenant(r *http.Request, req *resolvedRequest) string {
	if h := r.Header.Get("X-Tenant"); h != "" {
		return h
	}
	if req.Tenant != "" {
		return req.Tenant
	}
	return resilience.DefaultTenant
}

// coalesceGrace is how long a waiter keeps waiting past the request
// deadline. The ladder answers by deadline − deadlineMargin, but a deadline
// shorter than the margin leaves only the heuristic bottom rung, which is
// uncancellable and may finish just after the deadline; the waiter must
// still be there to take its degraded answer.
const coalesceGrace = time.Second

// solveCoalesced runs the solve through the single-flight group: concurrent
// requests with equal fingerprints share one execution. The leader runs
// under the drain context until the request deadline, and its ladder
// answers deadlineMargin before it. The waiter blocks under its own request
// context until the deadline plus coalesceGrace, so it outlives the ladder
// it waits on, and one impatient client detaches (with its own context
// error) without killing the solve the remaining waiters share.
func (s *server) solveCoalesced(ctx context.Context, req *resolvedRequest) (*solveResponse, error) {
	deadline := time.Now().Add(req.timeout)
	waitCtx, cancel := context.WithDeadline(ctx, deadline.Add(coalesceGrace))
	defer cancel()
	key := req.fingerprint()
	if s.dynEligible(req) {
		// Dynamic answers depend on the served snapshot: a solve that
		// coalesced onto a pre-swap leader must not share its answer with
		// post-swap requests, so the served version joins the key.
		key = fmt.Sprintf("%s dynVersion=%d", key, s.dyn.servedVersion())
	}
	v, _, err := s.flights.DoContext(waitCtx, key, func(run context.Context) (any, error) {
		s.solves.Add(1)
		solveCtx, cancel := context.WithDeadline(run, deadline)
		defer cancel()
		return s.solve(solveCtx, req)
	})
	if err != nil {
		return nil, err
	}
	return v.(*solveResponse), nil
}

// classifyError maps a solve error to an HTTP status and envelope code. A
// context.Canceled is three different stories: the client hung up (nginx's
// 499, nobody is listening), the process is draining (typed 503 so the
// retrying client moves on), or the request deadline fired (504).
func (s *server) classifyError(r *http.Request, err error) (int, string) {
	switch {
	case errors.Is(err, resilience.ErrOpen):
		return http.StatusServiceUnavailable, codeCircuitOpen
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			return statusClientClosedRequest, codeClientClosed
		}
		if s.draining.Load() {
			return http.StatusServiceUnavailable, codeDraining
		}
		return http.StatusGatewayTimeout, codeDeadline
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, codeDeadline
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, codeBadRequest
	default:
		return http.StatusInternalServerError, codeInternal
	}
}

// countError updates the error-path counters: a client disconnect is logged
// and tallied but never counted as a degradation — the server did nothing
// wrong, nobody was listening.
func (s *server) countError(r *http.Request, code string, err error) {
	if code == codeClientClosed {
		s.canceled.Add(1)
		s.logf("lcrbd: client closed %s %s before the answer: %v", r.Method, r.URL.Path, err)
	}
}

// errBadRequest marks solve errors caused by the request, not the server.
var errBadRequest = errors.New("bad request")

// maxSamples bounds a request's samples: the greedy sizes its realization
// seeds and RR sets by it before any budget check, so an unbounded count
// is an unbounded allocation. 5000 is the largest count the repository's
// own clients and tests send.
const maxSamples = 5000

// decodeSolveRequest parses and validates the request body, folding in the
// server defaults. The returned request has a resolved timeout.
func decodeSolveRequest(body io.Reader, cfg serverConfig) (*resolvedRequest, error) {
	var req solveRequest
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if req.Dataset == "" {
		req.Dataset = "hep"
	}
	if req.Dataset != "hep" && req.Dataset != "enron" {
		return nil, fmt.Errorf("unknown dataset %q (want hep or enron)", req.Dataset)
	}
	if req.Scale == 0 {
		req.Scale = cfg.scale
	}
	if req.Scale <= 0 || req.Scale > 1 {
		return nil, fmt.Errorf("scale %v out of (0,1]", req.Scale)
	}
	if req.Seed == 0 {
		req.Seed = cfg.seed
	}
	if req.CommunitySize == 0 {
		req.CommunitySize = cfg.communitySize
	}
	if req.CommunitySize < 0 {
		return nil, fmt.Errorf("communitySize %d must not be negative", req.CommunitySize)
	}
	if req.RumorFraction == 0 {
		req.RumorFraction = 0.05
	}
	if req.RumorFraction <= 0 || req.RumorFraction > 1 {
		return nil, fmt.Errorf("rumorFraction %v out of (0,1]", req.RumorFraction)
	}
	if req.Algorithm == "" {
		req.Algorithm = "auto"
	}
	switch req.Algorithm {
	case "auto", "greedy", "ris", "scbg", "proximity", "maxdegree":
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want auto, greedy, ris, scbg, proximity or maxdegree)", req.Algorithm)
	}
	if req.Alpha == 0 {
		req.Alpha = 0.9
	}
	// α's legal interval depends on the solver, so validate after the
	// algorithm and with the exact core validators the solvers run: the
	// fractional-target solvers reject α = 1 here as a bad_request instead
	// of letting it surface from the solver as an internal error.
	switch req.Algorithm {
	case "scbg", "proximity", "maxdegree":
		if err := core.ValidateAlphaClosed(req.Alpha); err != nil {
			return nil, err
		}
	default: // auto, greedy, ris: fractional α·|B| targets need (0,1)
		if err := core.ValidateAlphaOpen(req.Alpha); err != nil {
			return nil, err
		}
	}
	if req.Samples == 0 {
		req.Samples = 10
	}
	if req.Samples < 0 {
		return nil, fmt.Errorf("samples %d must not be negative", req.Samples)
	}
	if req.Samples > maxSamples {
		return nil, fmt.Errorf("samples %d above the limit %d", req.Samples, maxSamples)
	}
	if req.MaxHops < 0 {
		return nil, fmt.Errorf("maxHops %d must not be negative", req.MaxHops)
	}
	if req.MaxHops == 0 {
		req.MaxHops = 31
	}
	if req.TimeoutMillis < 0 {
		return nil, fmt.Errorf("timeoutMillis %d must not be negative", req.TimeoutMillis)
	}
	// Larger values overflow the Duration below into a past deadline.
	if req.TimeoutMillis > math.MaxInt64/int64(time.Millisecond) {
		return nil, fmt.Errorf("timeoutMillis %d out of range", req.TimeoutMillis)
	}
	timeout := cfg.defaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	return &resolvedRequest{solveRequest: req, timeout: timeout}, nil
}

// resolvedRequest is a validated solveRequest plus its effective deadline.
type resolvedRequest struct {
	solveRequest
	timeout time.Duration
	// onRound, when non-nil, receives every committed greedy round — the
	// streaming path. Streaming requests are never coalesced: the rounds
	// are a per-connection side channel.
	onRound func(core.GreedyRound)
}

// fingerprint identifies the answer a request resolves to: every field
// that affects the solve — and nothing that does not (the tenant, which
// only changes the queueing). Requests with equal fingerprints coalesce
// into one execution; the timeout is included because it shapes how far
// down the fallback ladder the answer comes from.
func (req *resolvedRequest) fingerprint() string {
	return fmt.Sprintf("dataset=%s scale=%g seed=%d community=%d rumorFrac=%g alpha=%g algo=%s samples=%d hops=%d timeout=%s",
		req.Dataset, req.Scale, req.Seed, req.CommunitySize, req.RumorFraction,
		req.Alpha, req.Algorithm, req.Samples, req.MaxHops, req.timeout)
}

// instance returns the cached experiment instance for the request,
// building it on first use behind the circuit breaker with a jittered
// retry. The build deliberately ignores the request context — it is
// bounded work whose result every later request with the same key reuses,
// so one impatient client should not poison the cache — but it does run
// under the daemon's hard-drain context, so a draining process abandons
// the retry loop instead of holding Shutdown open.
func (s *server) instance(req *resolvedRequest) (*experiment.Instance, error) {
	key := instanceKey{
		dataset:       req.Dataset,
		scale:         req.Scale,
		seed:          req.Seed,
		communitySize: req.CommunitySize,
	}
	s.mu.Lock()
	entry, ok := s.instances[key]
	if !ok {
		entry = &instanceEntry{}
		s.instances[key] = entry
	}
	s.mu.Unlock()

	entry.once.Do(func() {
		retry := resilience.Retry{
			Attempts:  3,
			BaseDelay: 5 * time.Millisecond,
			MaxDelay:  50 * time.Millisecond,
			Seed:      req.Seed + 7,
		}
		entry.err = retry.DoContext(s.hardDrain, func(context.Context) error {
			if err := s.chaos.load.Check(); err != nil {
				return err
			}
			inst, err := experiment.Setup(experiment.Config{
				Name:            "lcrbd",
				Dataset:         experiment.Dataset(req.Dataset),
				Scale:           req.Scale,
				Seed:            req.Seed,
				CommunityTarget: int32(req.CommunitySize),
				Workers:         s.cfg.workers,
			})
			if err != nil {
				return err
			}
			entry.inst = inst
			return nil
		})
	})
	if entry.err != nil {
		// A failed build is not cached forever: evict so a later request
		// can retry once the (possibly transient) cause clears. The
		// breaker above this call keeps a persistent failure from turning
		// into a rebuild storm.
		s.mu.Lock()
		if s.instances[key] == entry {
			delete(s.instances, key)
		}
		s.mu.Unlock()
		return nil, entry.err
	}
	return entry.inst, nil
}

// problem builds the per-request problem instance. The breaker guards the
// expensive instance build: repeated build failures open the circuit and
// later requests fail fast with a typed 503 instead of piling onto a
// broken generator.
//
// In dynamic mode, requests for the master's instance build their problem
// on the served snapshot instead of the instance's original graph, and the
// returned staleness block says which version answered; every other path
// returns a nil staleness.
func (s *server) problem(req *resolvedRequest) (*core.Problem, *stalenessInfo, error) {
	if s.dynEligible(req) {
		return s.dyn.problemFor(req)
	}
	var inst *experiment.Instance
	err := s.breaker.DoContext(s.hardDrain, func(context.Context) error {
		var err error
		inst, err = s.instance(req)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("build instance: %w", err)
	}
	prob, err := inst.NewProblem(req.RumorFraction, s.requestRNG(req))
	if err != nil {
		return nil, nil, fmt.Errorf("build problem: %w", err)
	}
	return prob, nil, nil
}

// writeJSON emits a 200 JSON body. Encode failures cannot be masked — the
// status line is already gone — so the log line is the only honest signal.
func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("lcrbd: encode response: %v", err)
	}
}

// writeError emits the JSON error envelope, logging encode failures.
func (s *server) writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(errorResponse{Error: errorBody{Code: code, Message: message}}); err != nil {
		s.logf("lcrbd: encode error envelope: %v", err)
	}
}

// latencyWindow is a fixed-size ring of recent serving latencies backing
// the rolling summary in /v1/stats. Safe for concurrent use.
type latencyWindow struct {
	mu  sync.Mutex
	buf []time.Duration
	n   int // lifetime recordings; buf holds the most recent len(buf)
}

// newLatencyWindow returns a window retaining the last size latencies.
func newLatencyWindow(size int) *latencyWindow {
	return &latencyWindow{buf: make([]time.Duration, size)}
}

// record adds one serving latency, evicting the oldest past capacity.
func (l *latencyWindow) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%len(l.buf)] = d
	l.n++
	l.mu.Unlock()
}

// summary reports the lifetime count plus p50/p99 over the retained
// window, in milliseconds. Percentiles are order-free over the ring, so no
// eviction order is needed.
func (l *latencyWindow) summary() map[string]any {
	l.mu.Lock()
	total := l.n
	k := total
	if k > len(l.buf) {
		k = len(l.buf)
	}
	window := append([]time.Duration(nil), l.buf[:k]...)
	l.mu.Unlock()
	out := map[string]any{"count": total}
	if k == 0 {
		return out
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	out["p50Millis"] = float64(window[(k-1)*50/100]) / float64(time.Millisecond)
	out["p99Millis"] = float64(window[(k-1)*99/100]) / float64(time.Millisecond)
	return out
}
