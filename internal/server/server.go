// Package server is the long-running HTTP query/ops service over the
// execution engine: a versioned JSON API to submit plan or litmus jobs
// (POST /v1/jobs), watch them (status, SSE event streams), query their
// results by unit ID or full content key, and fetch reports through the
// existing encoders byte-identically to the batch CLI — plus the
// operational surface a service needs: /healthz, /readyz, Prometheus-format /metrics, bounded
// TTL'd job retention with 429 backpressure, and graceful drain on
// shutdown (in-flight jobs finish under a deadline, finished shard
// artifacts are flushed to disk). The public facade re-exports it as
// rmwtso.NewServer; cmd/rmwtso-serve is the binary.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/simcache"
)

// Config configures the service. The zero value of every field picks the
// noted default, so Config{} is a runnable local server.
type Config struct {
	// Addr is the listen address of Run. Default ":8080".
	Addr string
	// Parallelism is the engine worker-pool size (0 = GOMAXPROCS).
	Parallelism int
	// Cache, when non-nil, backs the engine with the content-addressed
	// result cache: warm submits collapse to digest lookups.
	Cache *simcache.Cache
	// MaxJobs bounds the jobs running concurrently; submits beyond it are
	// rejected with 429 until one finishes. Default 8.
	MaxJobs int
	// RetainFinished is how long a finished job (its status, events,
	// report and unit results) stays queryable before the registry
	// evicts it. Default 1h.
	RetainFinished time.Duration
	// DrainTimeout bounds the graceful drain: on shutdown the server
	// stops accepting submits and waits this long for in-flight jobs
	// before cancelling the stragglers. Default 30s.
	DrainTimeout time.Duration
	// ArtifactDir, when set, receives every finished plan job's shard
	// artifact (<jobID>.json) during drain, so a stopped server loses no
	// completed units.
	ArtifactDir string
}

// withDefaults resolves the zero fields to their defaults.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 8
	}
	if c.RetainFinished <= 0 {
		c.RetainFinished = time.Hour
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server is the service: one engine, a bounded job registry, and the
// HTTP API over both. Build it with New, serve it with Run (or mount
// Handler under a server you own), and it drains gracefully when Run's
// context ends.
type Server struct {
	cfg Config
	eng *engine.Engine
	mux *http.ServeMux

	// jobCtx is the context every job runs under. It is independent of
	// Run's context on purpose: shutdown must stop accepting work and
	// wait, not kill in-flight sweeps — cancelJobs fires only when the
	// drain deadline expires.
	jobCtx     context.Context
	cancelJobs context.CancelFunc

	// now is the registry clock, injectable so retention tests don't
	// sleep.
	now func() time.Time

	// The registry: every retained job by ID. finished queues the
	// finished ones in finish order, oldest first, so pruning pops
	// expired jobs off its head; units indexes each unit ID to its result
	// in the last retained job that finished it.
	mu        sync.Mutex
	jobs      map[string]*job
	finished  []*job
	units     map[engine.UnitID]unitEntry
	nextID    int
	running   int
	jobsTotal int
	draining  bool
	drained   chan struct{} // non-nil once draining; closed when running hits 0

	reqMu sync.Mutex
	reqs  map[string]map[int]int64 // route → status code → count
}

// New builds the server and its engine from the configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var engOpts []engine.Option
	if cfg.Parallelism > 0 {
		engOpts = append(engOpts, engine.WithParallelism(cfg.Parallelism))
	}
	if cfg.Cache != nil {
		engOpts = append(engOpts, engine.WithCache(cfg.Cache))
	}
	jobCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		eng:        engine.New(engOpts...),
		jobCtx:     jobCtx,
		cancelJobs: cancel,
		now:        time.Now,
		jobs:       map[string]*job{},
		units:      map[engine.UnitID]unitEntry{},
		reqs:       map[string]map[int]int64{},
	}
	s.mux = s.buildMux()
	return s, nil
}

// Engine exposes the server's engine, e.g. to pre-warm its cache.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the full instrumented API handler, for mounting under
// a caller-owned HTTP server (tests, embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Run listens on the configured address and serves until ctx ends, then
// drains: submits are refused, in-flight jobs get DrainTimeout to
// finish (then are cancelled), finished plan artifacts are flushed to
// ArtifactDir, and the HTTP server shuts down.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, and idleTimeout how long a kept-alive connection may
// wait for its next request, so a client that never finishes a request
// cannot hold a connection forever. idleTimeout outlasts the 90s after
// which Go's default transport drops idle connections itself. There is
// deliberately no write timeout: SSE streams are long-lived. Variables so tests can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve is Run over a caller-provided listener (which it takes ownership
// of), so callers can bind port 0 and learn the address first.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}

// Drain runs the graceful-drain state machine: serving → draining
// (readiness 503, submits refused) → wait for in-flight jobs under
// DrainTimeout → cancel stragglers → flush finished plan artifacts. It
// is idempotent and returns when the registry is quiescent.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.drained == nil {
		s.draining = true
		s.drained = make(chan struct{})
		if s.running == 0 {
			close(s.drained)
		}
	}
	done := s.drained
	s.mu.Unlock()

	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		// Deadline passed: kill the stragglers and wait for their
		// watchers to record the cancellation.
		s.cancelJobs()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
	}
	s.flushArtifacts()
}

// flushArtifacts writes every retained plan job's shard artifact (full
// or dead-letter partial) to ArtifactDir, so completed units survive the
// process. Flush failures are reported on stderr but don't abort the
// shutdown.
func (s *Server) flushArtifacts() {
	if s.cfg.ArtifactDir == "" {
		return
	}
	if err := os.MkdirAll(s.cfg.ArtifactDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rmwtso-serve: artifact dir:", err)
		return
	}
	for _, j := range s.retainedJobs() {
		sr := j.shardResult()
		if sr == nil {
			continue
		}
		path := filepath.Join(s.cfg.ArtifactDir, j.id+".json")
		if err := sr.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "rmwtso-serve: flushing %s: %v\n", j.id, err)
		}
	}
}

// isDraining reports whether the server has entered the drain state.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// buildMux assembles the routing table. Every route is registered
// through handle(), which instruments it for the per-route request
// counters /metrics exposes.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(route, h))
	}
	handle("GET /healthz", "/healthz", s.handleHealthz)
	handle("GET /readyz", "/readyz", s.handleReadyz)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	handle("POST /v1/jobs", "/v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", "/v1/jobs", s.handleListJobs)
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobStatus)
	handle("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", s.handleJobEvents)
	handle("GET /v1/results/{unit}", "/v1/results/{unit}", s.handleResult)
	handle("GET /v1/results/by-key/{digest}", "/v1/results/by-key/{digest}", s.handleResultByKey)
	handle("GET /v1/reports/{id}", "/v1/reports/{id}", s.handleReport)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// instrument wraps a route with the per-route request counter.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.reqMu.Lock()
		m := s.reqs[route]
		if m == nil {
			m = map[int]int64{}
			s.reqs[route] = m
		}
		m[code]++
		s.reqMu.Unlock()
	})
}

// statusWriter records the response status for the request counters. It
// forwards Flush so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
