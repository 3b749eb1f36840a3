// Command rmwtso-serve runs the long-running HTTP query/ops service over
// the execution engine: the batch pipeline as a server.
//
// Usage:
//
//	rmwtso-serve -addr :8080                      serve the API
//	rmwtso-serve -addr :8080 -cache               back it with the result cache
//	rmwtso-serve -max-jobs 4 -retain 30m          tune the job registry
//	rmwtso-serve -drain-timeout 60s -artifact-dir /var/lib/rmwtso
//	                                              drain budget + artifact flush on SIGTERM
//
// The API (all JSON unless noted):
//
//	POST /v1/jobs                     submit {"plan":{"preset":"quick"}} or {"litmus":{"name":...}}
//	GET  /v1/jobs                     list jobs
//	GET  /v1/jobs/{id}                job status + live metrics
//	GET  /v1/jobs/{id}/events         per-unit progress as Server-Sent Events
//	GET  /v1/results/{unitID}         unit result from a retained job (404 after -retain)
//	GET  /v1/results/by-key/{digest}  the same lookup by full 64-hex key digest
//	GET  /v1/reports/{jobID}?format=ascii|json|csv
//	                                  finished sweep's report, byte-identical to cmd/experiments
//	*    /v1/coord/{jobID}/...        hosted coordinator protocol for fleet-mode jobs
//	GET  /healthz, /readyz            liveness / readiness (503 while draining)
//	GET  /metrics                     Prometheus text format
//
// Submitting {"mode":"fleet"} hosts the sweep's pull queue under
// /v1/coord/{jobID}/, so `experiments -worker http://host:8080/v1/coord/{jobID}`
// processes drain it — one process serves the query API and the fleet.
//
// On SIGTERM/SIGINT the server drains gracefully: readiness flips to 503,
// submits are refused, in-flight jobs get -drain-timeout to finish (then
// are cancelled), and finished plan jobs' shard artifacts are flushed to
// -artifact-dir so completed units are never lost.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/pkg/rmwtso"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port)")
		par      = flag.Int("j", 0, "simulation worker-pool parallelism (default: GOMAXPROCS)")
		enumW    = flag.Int("enum-workers", 0, "goroutines per model-checking verdict (default: auto by candidate count)")
		maxJobs  = flag.Int("max-jobs", 0, "jobs allowed to run concurrently before submits get 429 (default 8)")
		retain   = flag.Duration("retain", 0, "how long finished jobs stay queryable (default 1h)")
		drainT   = flag.Duration("drain-timeout", 0, "graceful-drain budget for in-flight jobs on shutdown (default 30s)")
		artifact = flag.String("artifact-dir", "", "flush finished plan jobs' shard artifacts here during drain")
	)
	cacheFlags := cliflags.RegisterCache(flag.CommandLine)
	flag.Parse()

	if err := cliflags.NonNegativeInt("j", *par); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.NonNegativeInt("enum-workers", *enumW); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveIntIfSet(flag.CommandLine, "max-jobs", *maxJobs); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveDurationIfSet(flag.CommandLine, "retain", *retain); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveDurationIfSet(flag.CommandLine, "drain-timeout", *drainT); err != nil {
		fatalUsage(err)
	}

	cache, err := rmwtso.OpenCacheFromFlags(*cacheFlags.Enabled, *cacheFlags.Dir, *cacheFlags.Clear)
	check(err)

	srv, err := rmwtso.NewServer(rmwtso.ServerConfig{
		Addr:           *addr,
		Parallelism:    *par,
		EnumWorkers:    *enumW,
		Cache:          cache,
		MaxJobs:        *maxJobs,
		RetainFinished: *retain,
		DrainTimeout:   *drainT,
		ArtifactDir:    *artifact,
	})
	check(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	check(err)
	fmt.Fprintf(os.Stderr, "rmwtso-serve: serving on %s\n", ln.Addr())
	start := time.Now()
	err = srv.Serve(ctx, ln)
	fmt.Fprintf(os.Stderr, "rmwtso-serve: drained and stopped after %s\n", time.Since(start).Round(time.Millisecond))
	check(err)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmwtso-serve:", err)
		os.Exit(1)
	}
}

// fatalUsage reports a bad flag value and exits with the usage status.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "rmwtso-serve:", err)
	os.Exit(2)
}
