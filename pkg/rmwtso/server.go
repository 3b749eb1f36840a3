package rmwtso

import "repro/internal/server"

// ServerConfig configures the long-running HTTP query/ops service
// (NewServer). The zero value of every field picks a sensible default,
// so ServerConfig{} is a runnable local server.
type ServerConfig = server.Config

// Server is the long-running HTTP query/ops service over an execution
// engine: POST /v1/jobs submits plan or litmus jobs, SSE streams per-unit
// progress, /v1/results answers unit and content-key queries, /v1/reports
// encodes finished sweeps byte-identically to cmd/experiments, /metrics
// exposes Prometheus-format counters, and shutdown drains in-flight jobs
// gracefully. cmd/rmwtso-serve is the binary form.
type Server = server.Server

// NewServer builds the HTTP service from its configuration. Serve it
// with Server.Run (or mount Server.Handler under your own listener).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }
