package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/coordinator"
)

// ErrInjectedCrash is the error a FaultInjector returns to simulate a
// worker death. Under RunPlanWorker the worker abandons its current
// lease without acking or nacking and stops, so the unit is recovered
// through lease expiry exactly like a real crash, and RunPlanWorker
// returns ErrInjectedCrash. On the static pool it dead-letters the unit
// like any other injected error.
var ErrInjectedCrash = coordinator.ErrAbandon

// CoordEvent is one coordination state transition of a plan job,
// streamed through the engine's observer alongside the job's SimRun
// events so progress displays can show leases, requeues and dead letters
// as they happen. The static pool emits only "dead-letter"; a fleet's
// lease queue emits every kind.
type CoordEvent struct {
	// Kind is the transition: "lease", "ack", "nack", "expire",
	// "requeue", "dead-letter" or "drained".
	Kind string
	// Unit is the plan unit concerned (empty for "drained").
	Unit UnitID
	// Worker is the worker involved, when one is.
	Worker string
	// Attempt is the 1-based attempt the transition concerns.
	Attempt int
	// Reason carries the failure reason for nack/expire/requeue/dead-letter.
	Reason string
}

// FaultInjector decides, before each execution of a plan unit, whether to
// inject a fault: return nil to execute normally, or an error to fail the
// execution without simulating. On the static pool every injected error
// dead-letters the unit. Under RunPlanWorker a plain error nacks the
// lease (retried, eventually dead-lettered) and ErrInjectedCrash kills
// the worker mid-lease. worker is the RunPlanWorker's name, empty on the
// static pool; attempt is the lease's 1-based attempt, always 1 on the
// static pool. Fault injection exists for tests, demos and CI drills.
type FaultInjector func(worker string, unit Unit, attempt int) error

// WithFaultInjector makes every plan unit the engine executes consult
// f first, on the static pool and under RunPlanWorker alike. Nil, the
// default, injects nothing.
func WithFaultInjector(f FaultInjector) Option {
	return func(o *options) { o.faults = f }
}

// CoordinationConfig tunes the lease queue of an HTTP fleet: the
// coordinator's (NewCoordServer) and its workers' (RunPlanWorker). The
// zero value picks the noted defaults.
type CoordinationConfig struct {
	// LeaseTTL is how long a unit lease lives without a heartbeat before
	// the worker is presumed dead and the unit requeued. Default 15s.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one unit is handed out before it
	// is dead-lettered. Default 3.
	MaxAttempts int
	// RetryBackoff and MaxBackoff shape the jittered exponential delay
	// between a unit's attempts. Defaults 250ms and 5s.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// Heartbeat is the workers' lease-extension interval. Default
	// LeaseTTL/3.
	Heartbeat time.Duration
	// Seed drives the backoff jitter deterministically. Default 1.
	Seed int64
}

// heartbeat resolves the effective heartbeat interval.
func (c CoordinationConfig) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	ttl := c.LeaseTTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	return ttl / 3
}

// queueConfig maps the sweep configuration onto the coordinator's.
func (c CoordinationConfig) queueConfig(onEvent func(coordinator.Event)) coordinator.Config {
	return coordinator.Config{
		LeaseTTL:     c.LeaseTTL,
		MaxAttempts:  c.MaxAttempts,
		RetryBackoff: c.RetryBackoff,
		MaxBackoff:   c.MaxBackoff,
		Seed:         c.Seed,
		OnEvent:      onEvent,
	}
}

// coordObserver builds the queue's event callback: each transition feeds
// the job's metrics (live lease gauge) and the observer streams.
func (e *Engine) coordObserver(m *metrics) func(coordinator.Event) {
	return func(ev coordinator.Event) {
		m.coordEvent(ev)
		e.emitCoord(m, ev)
	}
}

// emitCoord forwards one queue transition to the engine's observer and
// the owning job's stream.
func (e *Engine) emitCoord(m *metrics, ev coordinator.Event) {
	e.emitTo(m, Event{Coord: &CoordEvent{
		Kind:    string(ev.Kind),
		Unit:    UnitID(ev.Task),
		Worker:  ev.Worker,
		Attempt: ev.Attempt,
		Reason:  ev.Reason,
	}})
}

// DeadLetterError reports a plan job that finished with dead-lettered
// units: every other unit finished, but the listed units failed. On the
// static pool a unit is dead-lettered after its one failed execution; in
// an HTTP fleet, after its last allowed attempt. Partial carries the
// completed units and the coordination summary — including the dead
// letters with their failure reasons — so callers can still render a
// partial report (Plan.RunsPartial) with the DLQ section instead of
// discarding the sweep.
type DeadLetterError struct {
	// Partial is the shard result of the completed units, with its
	// Coordination section populated (DeadLetters non-empty).
	Partial *ShardResult
}

// Error lists the dead-lettered unit IDs, sorted and bounded, and the
// first one's last failure reason.
func (e *DeadLetterError) Error() string {
	dls := e.Partial.Coordination.DeadLetters
	ids := make([]string, len(dls))
	for i, d := range dls {
		ids[i] = d.Unit
	}
	msg := fmt.Sprintf("rmwtso: %d of %d sweep units dead-lettered: %s",
		len(dls), len(e.Partial.Units)+len(dls), boundedList(ids, listedUnitsMax))
	if first := dls[0]; len(first.Reasons) > 0 {
		msg += "; first failure: " + first.Reasons[len(first.Reasons)-1]
	}
	return msg
}

// deadUnit renders one dead-lettered unit for the coordination section,
// resolving its ID to its trace and type in the plan.
func deadUnit(plan *Plan, id string, attempts int, reasons []string) DeadUnit {
	du := DeadUnit{Unit: id, Attempts: attempts, Reasons: reasons}
	if u, ok := plan.Unit(UnitID(id)); ok {
		du.Trace, du.Type = u.Trace, u.Type.String()
	}
	return du
}

// unitExecutor adapts runUnit into a coordinator Executor for one named
// worker: resolve the leased unit, execute it, and return the
// JSON-encoded UnitResult as the ack payload that crosses HTTP.
func (e *Engine) unitExecutor(plan *Plan, worker string, m *metrics) coordinator.Executor {
	return func(_ context.Context, task string, attempt int) ([]byte, error) {
		u, ok := plan.Unit(UnitID(task))
		if !ok {
			return nil, fmt.Errorf("rmwtso: leased unit %s is not in the plan", task)
		}
		ur, err := e.runUnit(plan, u, worker, attempt, m)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ur)
	}
}

// CoordServer coordinates one plan shard for HTTP workers on other
// machines: it owns the pull queue, serves the versioned JSON protocol
// (Handler), and assembles the shard result once the fleet drains the
// queue (Wait). Build it from the Engine whose observer should stream
// the sweep's coordination events.
type CoordServer struct {
	eng      *Engine
	plan     *Plan
	shard    Shard
	selected []Unit
	queue    *coordinator.Queue
	srv      *coordinator.Server
	m        *metrics
}

// NewCoordServer builds the coordination server for the plan units the
// shard selects, under the lease-queue configuration cfg. obs, when
// non-nil, receives this sweep's events only (the engine-wide observer
// still sees them too), so a host of many fleets like rmwtso-serve can
// give each its own event stream.
func (e *Engine) NewCoordServer(plan *Plan, shard Shard, cfg CoordinationConfig, obs Observer) (*CoordServer, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	selected := plan.Select(shard)
	m := newJobMetrics(&e.metrics)
	m.obs = obs
	m.remoteAcks = true
	m.planned(len(selected))
	ids := make([]string, len(selected))
	for i, u := range selected {
		ids[i] = string(u.ID)
	}
	q, err := coordinator.NewQueue(cfg.queueConfig(e.coordObserver(m)), ids)
	if err != nil {
		return nil, err
	}
	return &CoordServer{
		eng:      e,
		plan:     plan,
		shard:    shard,
		selected: selected,
		queue:    q,
		srv:      coordinator.NewServer(q, plan.Fingerprint()),
		m:        m,
	}, nil
}

// Handler returns the HTTP handler speaking the coordinator protocol.
func (s *CoordServer) Handler() http.Handler { return s.srv }

// Snapshot reports the queue's progress for status displays.
func (s *CoordServer) Snapshot() coordinator.Snapshot { return s.queue.Snapshot() }

// Metrics snapshots the sweep's progress counters (including the live
// lease gauge) while the fleet works and after it drains.
func (s *CoordServer) Metrics() Metrics { return s.m.snapshot() }

// Wait blocks until every unit is done or dead-lettered, then assembles
// the shard result: a clean sweep returns the result (coordination
// section attached), dead letters return a *DeadLetterError with the
// partial result. Worker crashes are recovered through lease expiry;
// with no worker connected Wait simply keeps waiting (cancel ctx to give
// up).
func (s *CoordServer) Wait(ctx context.Context) (*ShardResult, error) {
	if ctx == nil {
		ctx = s.eng.opts.ctx
	}
	if err := s.queue.Wait(ctx); err != nil {
		return nil, err
	}
	return s.assemble()
}

// assemble turns the drained queue into the sweep's shard result: ack
// payloads decode back to UnitResults in plan order, the queue's final
// snapshot supplies the coordination section (and its counters go into
// the sweep's metrics), and a non-empty dead-letter set is reported as a
// *DeadLetterError carrying the partial result.
func (s *CoordServer) assemble() (*ShardResult, error) {
	snap := s.queue.Snapshot()
	s.m.absorbSnapshot(snap)
	payloads := s.queue.Payloads()
	var results []UnitResult
	for _, u := range s.selected {
		data, ok := payloads[string(u.ID)]
		if !ok {
			continue // dead-lettered; listed in the coordination section
		}
		var ur UnitResult
		if err := json.Unmarshal(data, &ur); err != nil {
			return nil, fmt.Errorf("rmwtso: unit %s result payload: %w", u.ID, err)
		}
		results = append(results, ur)
	}
	c := &Coordination{Mode: "http", Retries: snap.Retries, Expired: snap.Expired}
	for _, w := range snap.Workers {
		c.Workers = append(c.Workers, CoordWorker{
			Worker: w.Worker, Units: w.Acks, Retries: w.Nacks, Expired: w.Expired,
		})
	}
	for _, d := range snap.DeadLetters {
		c.DeadLetters = append(c.DeadLetters, deadUnit(s.plan, d.Task, d.Attempts, d.Reasons))
	}
	res := s.plan.shardResult(s.shard, results)
	res.Coordination = c
	if len(c.DeadLetters) > 0 {
		return nil, &DeadLetterError{Partial: res}
	}
	return res, nil
}

// RunPlanWorker runs one pull worker against the coordinator at addr
// ("http://host:port") until that sweep's queue drains: the worker
// rebuilds the identical plan locally (the fingerprint handshake refuses
// a mismatched one), leases units one at a time, simulates them through
// the same runUnit path as the static pool, and acks checksummed
// results, heartbeating its leases as cfg says. It returns nil when the
// queue drains, ErrInjectedCrash when the fault injector killed the
// worker, or the transport/handshake error.
func (e *Engine) RunPlanWorker(ctx context.Context, plan *Plan, addr, name string, cfg CoordinationConfig) error {
	if ctx == nil {
		ctx = e.opts.ctx
	}
	if name == "" {
		return fmt.Errorf("rmwtso: coordinated worker needs a name")
	}
	client := coordinator.Dial(addr, plan.Fingerprint())
	if err := client.WaitReachable(ctx, 30*time.Second); err != nil {
		return err
	}
	w := &coordinator.Worker{
		Name:      name,
		Coord:     client,
		Exec:      e.unitExecutor(plan, name, newJobMetrics(&e.metrics)),
		Heartbeat: cfg.heartbeat(),
	}
	return w.Run(ctx)
}
