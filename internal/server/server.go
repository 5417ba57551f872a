// Package server is the long-running face of the reproduction: a
// fault-isolated HTTP service that accepts Mini-Cecil programs and runs
// the full parse → build → specialize → compile → interpret pipeline
// per request. The pipeline itself (PR 3) already contains faults —
// this package adds the production harness around it:
//
//   - per-request isolation: every request executes inside its own
//     pipeline.Guard boundary with the interpreter resource guards
//     (step / call-depth / wall-clock) applied, so a panicking or
//     runaway request yields a structured error for that request only;
//   - admission control: a concurrency semaphore plus a bounded wait
//     queue; when the queue is full requests are shed with 429 and a
//     Retry-After hint instead of piling onto the event loop;
//   - deadlines: a per-request context deadline (client-lowerable,
//     server-capped) propagated through driver.RunOptions into the
//     interpreter's cancellation polling;
//   - a per-program circuit breaker: source that repeatedly crashes
//     the pipeline is rejected for a cooldown instead of re-crashing a
//     worker on every retry;
//   - health: /healthz (liveness + counters) and /readyz (admission);
//   - graceful drain: BeginDrain stops admission, /readyz flips to
//     503, in-flight requests finish under a drain deadline.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selspec/internal/driver"
	"selspec/internal/interp"
	"selspec/internal/obs"
	"selspec/internal/opt"
	"selspec/internal/pipeline"
	"selspec/internal/profdb"
	"selspec/internal/profile"
	"selspec/internal/programs"
	"selspec/internal/specialize"
)

// Config tunes the service. The zero value is usable: every field has
// a production default filled in by New.
type Config struct {
	// MaxConcurrent is the number of requests allowed to execute the
	// pipeline at once (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait for a worker
	// slot beyond MaxConcurrent before the server sheds load with 429
	// (default 2×MaxConcurrent).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request does
	// not set one (default 30s). MaxTimeout caps client-requested
	// deadlines (default DefaultTimeout).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// StepLimit / DepthLimit are the interpreter resource guards
	// applied to every request (defaults: 2e9 steps, interpreter
	// default depth).
	StepLimit  uint64
	DepthLimit int
	// MaxSourceBytes bounds the request body (default 1 MiB).
	MaxSourceBytes int64
	// BreakerThreshold consecutive contained panics open a program's
	// circuit for BreakerCooldown (defaults 3, 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DrainTimeout bounds how long ListenAndServe waits for in-flight
	// requests after BeginDrain (default 30s).
	DrainTimeout time.Duration
	// Metrics, when non-nil, enables observability: the server
	// registers its admission/fault counters there, every request's
	// dispatch and interpreter counters flow into it, and GET /metrics
	// serves it in Prometheus text format. /metrics bypasses admission
	// control and keeps answering during a drain, so operators can
	// watch a wind-down. Nil (the default) disables the endpoint.
	Metrics *obs.Registry
	// Verify runs the bytecode verifier over every request's compiled
	// module before execution (and again after the run, which builds
	// bodies on demand): a defense
	// layer for a service executing untrusted source through the
	// bytecode tier. A verifier finding fails the request like any
	// other contained pipeline fault.
	Verify bool
	// ProfileDB, when non-nil, enables the durable profile endpoints
	// (POST/GET /profiles/{program}). The server serves /run traffic
	// regardless of the database's recovery state; /profiles answers
	// 503 + Retry-After until the WAL replay finishes.
	ProfileDB *profdb.DB
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = c.DefaultTimeout
	}
	if c.StepLimit == 0 {
		c.StepLimit = 2_000_000_000
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server is the specialization service. Create with New; serve either
// through Handler (httptest, embedding) or ListenAndServe (the CLI).
type Server struct {
	cfg     Config
	sem     chan struct{} // worker slots
	waiting atomic.Int64  // admitted requests waiting for a slot

	inflight atomic.Int64
	served   atomic.Uint64 // completed requests, any outcome
	shed     atomic.Uint64 // rejected for a full queue
	faulted  atomic.Uint64 // contained pipeline panics

	draining  chan struct{}
	drainOnce sync.Once

	// Registry-backed mirrors of the atomic counters above, for
	// /metrics scrapers; nil (and free) when Config.Metrics is unset.
	mServed, mShed, mFaulted *obs.Counter
	// mProfileHit/mProfileMiss count Selective requests that found or
	// missed their training profile in the memo; nil without Metrics.
	mProfileHit, mProfileMiss *obs.Counter
	// instruments is the interpreter/dispatch instrument bundle,
	// registered once here so per-request Executes never take the
	// registry lock; nil when Config.Metrics is unset.
	instruments *driver.Instruments

	breaker *breaker
	// profiles memoizes Selective training profiles per program, so a
	// repeated Selective request skips the instrumented Base run.
	profiles *profileCache
	mux      *http.ServeMux
	// benchCache caches parsed+lowered benchmark programs for profile
	// upload validation (name → *driver.Pipeline).
	benchCache sync.Map

	// OnListen, when set before ListenAndServe, receives the bound
	// address (tests listen on :0 and need the real port).
	OnListen func(net.Addr)
}

// New builds a Server with cfg's gaps filled by production defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		draining: make(chan struct{}),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, 1024),
		profiles: newProfileCache(profileCacheSize),
	}
	if cfg.Metrics != nil {
		s.mServed = cfg.Metrics.Counter("selspec_server_served_total")
		s.mShed = cfg.Metrics.Counter("selspec_server_shed_total")
		s.mFaulted = cfg.Metrics.Counter("selspec_server_contained_panics_total")
		s.mProfileHit = cfg.Metrics.Counter("selspec_server_profile_cache_total", obs.Label{Key: "result", Value: "hit"})
		s.mProfileMiss = cfg.Metrics.Counter("selspec_server_profile_cache_total", obs.Label{Key: "result", Value: "miss"})
		s.instruments = driver.NewInstruments(cfg.Metrics)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.ProfileDB != nil {
		s.mux.HandleFunc("POST /profiles/{program}", s.handleProfileIngest)
		s.mux.HandleFunc("GET /profiles/{program}", s.handleProfileExport)
	}
	return s
}

// handleMetrics serves the registry in Prometheus text format. It does
// not consult admission control or the drain gate: scraping must keep
// working while the server sheds, breaks circuits, or drains.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Metrics == nil {
		http.Error(w, "metrics not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WritePrometheus(w)
}

// Handler exposes the service's routes (POST /run, GET /healthz,
// GET /readyz).
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain moves the server into draining: /readyz flips to 503 and
// new /run requests are rejected, while in-flight requests keep their
// worker slots and finish normally. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// InFlight reports the number of requests currently executing the
// pipeline (drain tests watch it reach zero).
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Served reports the number of completed /run requests (any outcome).
func (s *Server) Served() uint64 { return s.served.Load() }

// health snapshots the counters.
func (s *Server) health() Health {
	st := "ok"
	if s.Draining() {
		st = "draining"
	}
	h := Health{
		Status:       st,
		PID:          os.Getpid(),
		InFlight:     s.inflight.Load(),
		Queued:       s.waiting.Load(),
		Served:       s.served.Load(),
		Shed:         s.shed.Load(),
		Faulted:      s.faulted.Load(),
		CircuitsOpen: s.breaker.openCount(),
	}
	if s.cfg.ProfileDB != nil {
		h.ProfDB = s.cfg.ProfileDB.State()
	}
	return h
}

// handleHealthz is liveness: 200 as long as the process can serve
// HTTP at all, draining or not, with the counters as the body.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReadyz is admission readiness: 503 once draining so load
// balancers stop routing here while in-flight work finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	if s.Draining() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, s.health())
}

// errShed classifies a full-queue admission failure internally.
var errShed = errors.New("admission queue full")

// admit acquires a worker slot, waiting in the bounded queue when all
// slots are busy. It fails fast with errShed when the queue is full,
// or with the context error when the client gives up while queued.
// A drain that begins while a request is queued does NOT evict it:
// admission control rejects new arrivals at the front door, but every
// request already past it completes (the "zero dropped in-flight"
// drain guarantee, bounded overall by DrainTimeout).
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return nil, errShed
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// handleRun runs one program through the pipeline with full isolation.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, ErrorBody{Kind: KindDraining, Error: "server is draining"})
		return
	}

	var req RunRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, ErrorBody{Kind: KindBadRequest, Error: "invalid request body: " + err.Error()})
		return
	}
	rr, err := s.resolve(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, ErrorBody{Kind: KindBadRequest, Error: err.Error()})
		return
	}
	// A routing layer (the fleet router) that has already started the
	// clock on this request passes the remaining budget along; it can
	// only lower the deadline resolve picked, so a retried request
	// never runs past what the original client was promised.
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if ms, perr := strconv.ParseInt(h, 10, 64); perr == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < rr.timeout {
				rr.timeout = d
			}
		}
	}

	// Circuit breaker: a program that keeps crashing the pipeline is
	// rejected before it costs a worker slot.
	if ok, retry := s.breaker.allow(rr.key); !ok {
		writeErr(w, http.StatusServiceUnavailable, ErrorBody{
			Kind:         KindCircuitOpen,
			Error:        "program repeatedly crashed the pipeline; circuit open",
			RetryAfterMS: retry.Milliseconds(),
		})
		return
	}

	release, err := s.admit(r.Context())
	switch {
	case errors.Is(err, errShed):
		s.shed.Add(1)
		s.mShed.Inc()
		writeErr(w, http.StatusTooManyRequests, ErrorBody{
			Kind:         KindOverloaded,
			Error:        "admission queue full",
			RetryAfterMS: time.Second.Milliseconds(),
		})
		return
	case err != nil: // client disconnected while queued
		writeErr(w, statusClientClosedRequest, ErrorBody{Kind: KindCanceled, Error: err.Error()})
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), rr.timeout)
	defer cancel()

	s.inflight.Add(1)
	res, err := s.execute(ctx, rr)
	s.inflight.Add(-1)
	s.served.Add(1)
	s.mServed.Inc()

	if err != nil {
		status, body := s.classify(ctx, err)
		s.breaker.record(rr.key, body.Kind == KindPanic)
		writeErr(w, status, body)
		return
	}
	s.breaker.record(rr.key, false)

	resp := RunResponse{Value: res.Value, Output: res.Output, Config: rr.cfg.String(), Engine: res.Engine.String()}
	if req.Stats {
		resp.Stats = &RunStats{
			Dispatches:      res.Counters.Dispatches,
			VersionSelects:  res.Counters.VersionSelects,
			Cycles:          res.Counters.Cycles,
			StaticVersions:  res.Stats.Versions,
			InvokedVersions: res.Invoked,
			IRNodes:         res.Stats.IRNodes,
			WallNS:          res.Wall.Nanoseconds(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolved is a validated RunRequest ready to execute.
type resolved struct {
	label       string
	src         string
	key         string // breaker key: hash of the program identity
	cfg         opt.Config
	mech        interp.Mechanism
	engine      driver.Engine
	threshold   int64
	train, test map[string]int64
	timeout     time.Duration
	// stats: the response reports code space, so every static version
	// body is built before the run (opt.Compiled.CompileAll).
	stats bool
}

// resolve validates the request against the single sources of truth
// the CLI uses (opt.ParseConfig, interp.ParseMechanism, programs
// registry) and fills defaults.
func (s *Server) resolve(req *RunRequest) (*resolved, error) {
	rr := &resolved{threshold: specialize.DefaultThreshold, stats: req.Stats}
	switch {
	case req.Source != "" && req.Bench != "":
		return nil, fmt.Errorf("source and bench are mutually exclusive")
	case req.Bench != "":
		b, ok := programs.ByName(req.Bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
		}
		rr.src, rr.train, rr.test, rr.label = b.Source, b.Train, b.Test, b.Name
		rr.key = ProgramKey("", b.Name)
	case req.Source != "":
		rr.src, rr.label = req.Source, "request"
		rr.key = ProgramKey(req.Source, "")
	default:
		return nil, fmt.Errorf("one of source or bench is required")
	}
	if req.Label != "" {
		rr.label = req.Label
	}

	cfgName := req.Config
	if cfgName == "" {
		cfgName = "Base"
	}
	cfg, err := opt.ParseConfig(cfgName)
	if err != nil {
		return nil, err
	}
	rr.cfg = cfg

	mechName := req.Dispatch
	if mechName == "" {
		mechName = "PIC"
	}
	mech, err := interp.ParseMechanism(mechName)
	if err != nil {
		return nil, err
	}
	rr.mech = mech

	engine, err := driver.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	rr.engine = engine

	if req.Threshold > 0 {
		rr.threshold = req.Threshold
	}
	rr.timeout = s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		rr.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if rr.timeout > s.cfg.MaxTimeout {
			rr.timeout = s.cfg.MaxTimeout
		}
	}
	return rr, nil
}

// The breaker keys on a content hash, so the same crashing program is
// recognized no matter which connection or label resubmits it.
func hashKey(sum string) string {
	h := sha256.Sum256([]byte(sum))
	return hex.EncodeToString(h[:8])
}

// ProgramKey is the canonical identity of a run request: the truncated
// sha256 of its source (or of the canonical benchmark name). It is the
// key the circuit breaker counts crashes under, and the key the fleet
// router consistent-hashes by — same bytes, same worker, warm caches.
// Exactly one of source/bench should be non-empty; bench wins when
// both are set, matching resolve's validation order.
func ProgramKey(source, bench string) string {
	if bench != "" {
		return hashKey("bench:" + bench)
	}
	return hashKey(source)
}

// execute runs the full pipeline for one request inside its own
// harness-level Guard: even a fault in server-side glue that no inner
// stage boundary saw becomes a structured error for this request,
// never a crashed worker or a torn-down process.
func (s *Server) execute(ctx context.Context, rr *resolved) (*driver.Result, error) {
	return pipeline.Guard(pipeline.StageHarness, rr.label, rr.cfg.String(), func() (*driver.Result, error) {
		p, err := driver.LoadNamed(rr.label, rr.src)
		if err != nil {
			return nil, err
		}
		ro := driver.RunOptions{
			Context:       ctx,
			StepLimit:     s.cfg.StepLimit,
			DepthLimit:    s.cfg.DepthLimit,
			Mechanism:     rr.mech,
			Engine:        rr.engine,
			CaptureOutput: true,
			Instruments:   s.instruments,
			Verify:        s.cfg.Verify,
		}
		bo := driver.BuildOptions{
			Opt:  opt.Options{Config: rr.cfg},
			Spec: specialize.Params{Threshold: rr.threshold},
		}
		var key profileKey
		if rr.cfg == opt.Selective {
			key = newProfileKey(rr.src, rr.train)
			if w := s.profiles.get(key); w != nil {
				s.mProfileHit.Inc()
				bo.Profile, err = pipeline.Guard(pipeline.StageProfile, rr.label, rr.cfg.String(), func() (*profile.CallGraph, error) {
					cg := profile.NewCallGraph(p.Prog)
					return cg, cg.LoadWire(w)
				})
				if err != nil {
					return nil, err
				}
			} else {
				// The training run keeps the request's mechanism, engine
				// and guards; only its input differs.
				s.mProfileMiss.Inc()
				bo.Train = ro
				bo.Train.Overrides = rr.train
				bo.Train.Profile = profile.NewCallGraph(p.Prog)
			}
		}
		c, _, err := p.Build(bo)
		if err != nil {
			return nil, err // a failed training run is never cached
		}
		if bo.Train.Profile != nil {
			s.profiles.put(key, bo.Train.Profile.Wire())
		}
		if rr.stats {
			if err := pipeline.CompileAll(rr.label, c); err != nil {
				return nil, err
			}
		}
		ro.Overrides = rr.test
		return driver.Execute(c, ro)
	})
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was ready.
const statusClientClosedRequest = 499

// classify maps an execution error to (HTTP status, error body). The
// context is consulted first so a run killed by its deadline reports
// KindDeadline even though the proximate error is an interpreter
// cancellation.
func (s *Server) classify(ctx context.Context, err error) (int, ErrorBody) {
	body := ErrorBody{Error: err.Error()}
	var se *pipeline.StageError
	if errors.As(err, &se) {
		body.Stage = string(se.Stage)
	}
	switch {
	case ctx.Err() == context.DeadlineExceeded:
		body.Kind = KindDeadline
		return http.StatusGatewayTimeout, body
	case ctx.Err() == context.Canceled:
		body.Kind = KindCanceled
		return statusClientClosedRequest, body
	case se != nil && se.Stack != nil:
		s.faulted.Add(1)
		s.mFaulted.Inc()
		body.Kind = KindPanic
		return http.StatusInternalServerError, body
	default:
		body.Kind = KindProgram
		return http.StatusUnprocessableEntity, body
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, body ErrorBody) {
	if body.RetryAfterMS > 0 {
		secs := (body.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, code, body)
}

// ListenAndServe binds addr and serves until ctx is cancelled (the CLI
// wires SIGTERM/SIGINT here), then drains gracefully: admission stops,
// /readyz flips to 503, and in-flight requests get up to DrainTimeout
// to finish before connections are torn down. Returns nil after a
// clean drain.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.OnListen != nil {
		s.OnListen(ln.Addr())
	}
	hs := &http.Server{Handler: s.mux}

	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		s.BeginDrain()
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		shutdownDone <- hs.Shutdown(dctx)
	}()

	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	// Serve returns as soon as Shutdown begins; wait for the drain
	// itself (in-flight requests) to complete.
	if err := <-shutdownDone; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
