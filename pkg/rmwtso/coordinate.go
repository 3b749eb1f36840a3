package rmwtso

import (
	"context"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// Coordination summarizes how a plan job's units executed when the
// report needs saying so: the dead-lettered units, and for an HTTP fleet
// its per-worker unit counts and retry/expiry churn.
type Coordination = experiments.Coordination

// CoordWorker is one worker's traffic in a coordinated sweep.
type CoordWorker = experiments.CoordWorker

// DeadUnit is one dead-lettered unit.
type DeadUnit = experiments.DeadUnit

// ErrInjectedCrash is the error a FaultInjector returns to simulate a
// worker death. Under RunPlanWorker the worker abandons its current
// lease without acking or nacking and stops, so the unit is recovered
// through lease expiry exactly like a real crash, and RunPlanWorker
// returns ErrInjectedCrash. On the static pool it dead-letters the unit
// like any other injected error.
var ErrInjectedCrash = engine.ErrInjectedCrash

// CoordEvent is one coordination state transition of a plan job,
// streamed through the Runner's observer alongside the job's SimRun
// events so progress displays can show dead letters, and a fleet's
// leases and requeues, as they happen.
type CoordEvent = engine.CoordEvent

// FaultInjector decides, before each execution of a plan unit, whether to
// inject a fault: return nil to execute normally, or an error to fail the
// execution without simulating. On the static pool every injected error
// dead-letters the unit. Under RunPlanWorker a plain error nacks the
// lease (retried, eventually dead-lettered) and ErrInjectedCrash kills
// the worker mid-lease. worker is the RunPlanWorker's name, empty on the
// static pool; attempt is the lease's 1-based attempt, always 1 on the
// static pool. Fault injection exists for tests, demos and CI drills.
type FaultInjector = engine.FaultInjector

// WithFaultInjector makes every plan unit the Runner executes consult f
// first, on the static pool (RunPlan, Submit) and under RunPlanWorker
// alike. Nil, the default, injects nothing.
func WithFaultInjector(f FaultInjector) Option { return engine.WithFaultInjector(f) }

// CoordinationConfig tunes the lease queue of an HTTP fleet: the
// coordinator's (NewCoordServer) and its workers' (RunPlanWorker). The
// zero value picks the noted defaults.
type CoordinationConfig = engine.CoordinationConfig

// DeadLetterError reports a plan job that finished with dead-lettered
// units: every other unit finished, but the listed units failed. On the
// static pool a unit is dead-lettered after its one failed execution; in
// an HTTP fleet, after its last allowed attempt. Partial carries the
// completed units and the coordination summary — including the dead
// letters with their failure reasons — so callers can still render a
// partial report (Plan.RunsPartial) with the DLQ section instead of
// discarding the sweep.
type DeadLetterError = engine.DeadLetterError

// CoordServer coordinates one plan shard for HTTP workers on other
// machines: it owns the pull queue, serves the versioned JSON protocol
// (Handler), and assembles the shard result once the fleet drains the
// queue (Wait).
type CoordServer = engine.CoordServer

// NewCoordServer builds the coordination server for the plan units the
// shard selects, under the lease-queue configuration cfg. obs, when
// non-nil, receives this sweep's events only; the Runner's observer
// still sees them too.
func (r *Runner) NewCoordServer(plan *Plan, shard Shard, cfg CoordinationConfig, obs Observer) (*CoordServer, error) {
	return r.eng.NewCoordServer(plan, shard, cfg, obs)
}

// RunPlanWorker runs one pull worker against the coordinator at addr
// ("http://host:port") until that sweep's queue drains: the worker
// rebuilds the identical plan locally (the fingerprint handshake refuses
// a mismatched one), leases units one at a time, simulates them through
// the same runUnit path as the static pool, and acks checksummed
// results, heartbeating its leases as cfg says. It returns nil when the
// queue drains, ErrInjectedCrash when the fault injector killed the
// worker, or the transport/handshake error.
func (r *Runner) RunPlanWorker(ctx context.Context, plan *Plan, addr, name string, cfg CoordinationConfig) error {
	return r.eng.RunPlanWorker(ctx, plan, addr, name, cfg)
}
