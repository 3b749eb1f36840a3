package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/coordinator"
	"repro/internal/simcache"
)

// ErrInjectedCrash is the error a FaultInjector returns to simulate a
// worker death: the worker abandons its current lease without acking or
// nacking and stops, so the unit is recovered through lease expiry
// exactly like a real crash. A worker loop (in-process or RunPlanWorker)
// that crashed this way reports ErrInjectedCrash from its Run.
var ErrInjectedCrash = coordinator.ErrAbandon

// CoordEvent is one coordination state transition of a dynamic sweep,
// streamed through the engine's observer alongside the sweep's SimRun
// events so progress displays can show leases, requeues and dead letters
// as they happen.
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

// FaultInjector decides, before each unit execution of a coordinated
// sweep, whether to inject a fault: return nil to execute normally, a
// plain error to fail the attempt (nacked, retried, eventually
// dead-lettered), or ErrInjectedCrash to kill the worker mid-lease.
// Fault injection exists for tests, demos and CI crash drills.
type FaultInjector func(worker string, unit Unit, attempt int) error

// CoordinationConfig tunes a coordinated sweep (WithCoordinator). The
// zero value picks the noted defaults.
type CoordinationConfig struct {
	// Workers is how many in-process pull workers a plan job spawns.
	// Default: the engine's parallelism. Ignored by the HTTP mode, where
	// the fleet size is however many worker processes connect.
	Workers int
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
	// FaultInjector, when non-nil, is consulted before every unit
	// execution. Nil injects nothing.
	FaultInjector FaultInjector
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

// WithCoordinator switches the engine's plan jobs to dynamic
// coordination: instead of the static per-worker split, the shard's units
// go into a pull queue and workers lease them one at a time under
// heartbeat-kept leases — a crashed worker's unit is requeued on lease
// expiry, a repeatedly failing unit is retried with backoff and then
// dead-lettered (the job returns a *DeadLetterError carrying the partial
// results), and the completed sweep's results are byte-identical to a
// static run's. The same configuration drives the HTTP mode
// (NewCoordServer, RunPlanWorker) for fleets that span machines.
func WithCoordinator(cfg CoordinationConfig) Option {
	return func(o *options) { o.coord = &cfg }
}

// coordConfig returns the engine's coordination configuration, or the
// all-defaults configuration when WithCoordinator was not given (the
// HTTP entry points work without it).
func (e *Engine) coordConfig() CoordinationConfig {
	if e.opts.coord != nil {
		return *e.opts.coord
	}
	return CoordinationConfig{}
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

// DeadLetterError reports a coordinated sweep that completed with
// dead-lettered units: every other unit finished (the queue drained),
// but the listed units failed all their attempts. Partial carries the
// completed units and the coordination summary — including the dead
// letters with their full failure history — so callers can still render
// a partial report (Plan.RunsPartial) with the DLQ section instead of
// discarding the sweep.
type DeadLetterError struct {
	// Partial is the shard result of the completed units, with its
	// Coordination section populated (DeadLetters non-empty).
	Partial *ShardResult
}

// Error lists the dead-lettered unit IDs, sorted and bounded.
func (e *DeadLetterError) Error() string {
	dls := e.Partial.Coordination.DeadLetters
	ids := make([]string, len(dls))
	for i, d := range dls {
		ids[i] = d.Unit
	}
	return fmt.Sprintf("rmwtso: %d of %d sweep units dead-lettered after exhausting their attempts: %s",
		len(dls), len(e.Partial.Units)+len(dls), boundedList(ids, listedUnitsMax))
}

// unitExecutor adapts runUnit into a coordinator Executor for one named
// worker: resolve the leased unit, consult the fault injector, simulate,
// and return the JSON-encoded UnitResult as the ack payload.
func (e *Engine) unitExecutor(plan *Plan, cache *simcache.Cache, cfg CoordinationConfig, worker string, m *metrics) coordinator.Executor {
	return func(_ context.Context, task string, attempt int) ([]byte, error) {
		u, ok := plan.Unit(UnitID(task))
		if !ok {
			return nil, fmt.Errorf("rmwtso: leased unit %s is not in the plan", task)
		}
		if cfg.FaultInjector != nil {
			if err := cfg.FaultInjector(worker, u, attempt); err != nil {
				return nil, err
			}
		}
		ur, err := e.runUnit(plan, u, cache, m)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ur)
	}
}

// assembleCoordinated turns a drained queue into the sweep's shard
// result: ack payloads decode back to UnitResults in plan order, the
// queue's final snapshot supplies the coordination section (and its
// counters go into the job's metrics), and a non-empty dead-letter set
// is reported as a *DeadLetterError carrying the partial result.
func (e *Engine) assembleCoordinated(plan *Plan, shard Shard, selected []Unit, q *coordinator.Queue, mode string, m *metrics) (*ShardResult, error) {
	snap := q.Snapshot()
	m.absorbSnapshot(snap)
	payloads := q.Payloads()
	var results []UnitResult
	for _, u := range selected {
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
	res := plan.shardResult(shard, results)
	res.Coordination = coordinationSection(plan, snap, mode)
	if len(snap.DeadLetters) > 0 {
		return nil, &DeadLetterError{Partial: res}
	}
	return res, nil
}

// coordinationSection renders a drained queue's final snapshot as the
// report model's coordination section, resolving each dead-lettered unit
// ID to its trace and type in the plan.
func coordinationSection(plan *Plan, snap coordinator.Snapshot, mode string) *Coordination {
	c := &Coordination{Mode: mode, Retries: snap.Retries, Expired: snap.Expired}
	for _, w := range snap.Workers {
		c.Workers = append(c.Workers, CoordWorker{
			Worker: w.Worker, Units: w.Acks, Retries: w.Nacks, Expired: w.Expired,
		})
	}
	for _, d := range snap.DeadLetters {
		du := DeadUnit{Unit: d.Task, Attempts: d.Attempts, Reasons: d.Reasons}
		if u, ok := plan.Unit(UnitID(d.Task)); ok {
			du.Trace, du.Type = u.Trace, u.Type.String()
		}
		c.DeadLetters = append(c.DeadLetters, du)
	}
	return c
}

// unitQueue builds the pull queue over the selected units, its
// transitions feeding the job's metrics and event streams.
func (e *Engine) unitQueue(cfg CoordinationConfig, m *metrics, selected []Unit) (*coordinator.Queue, error) {
	ids := make([]string, len(selected))
	for i, u := range selected {
		ids[i] = string(u.ID)
	}
	return coordinator.NewQueue(cfg.queueConfig(e.coordObserver(m)), ids)
}

// runPlanCoordinated is a plan job through the pull queue: the shard's
// selected units are leased one at a time to in-process workers, with
// crash recovery (lease expiry requeue), bounded retries and
// dead-lettering — and a completed sweep's results identical to the
// static path's, since both execute units through runUnit.
func (e *Engine) runPlanCoordinated(ctx context.Context, plan *Plan, shard Shard, selected []Unit, cache *simcache.Cache, m *metrics, cfg CoordinationConfig) (*ShardResult, error) {
	q, err := e.unitQueue(cfg, m, selected)
	if err != nil {
		return nil, err
	}

	// A worker beyond the unit count could only find the queue drained,
	// so the unit count bounds the pool whatever size was asked for.
	workers := cfg.Workers
	if workers <= 0 {
		workers = e.opts.parallelism
	}
	workers = min(workers, len(selected))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		w := &coordinator.Worker{
			Name:      name,
			Coord:     q,
			Exec:      e.unitExecutor(plan, cache, cfg, name, m),
			Heartbeat: cfg.heartbeat(),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker stops for exactly three reasons: drained (nil),
			// context cancellation (surfaced through drainOrFail), or an
			// injected crash — which is the point of the injection, so the
			// error is not propagated; the queue recovers the lease.
			_ = w.Run(ctx)
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	if err := drainOrFail(ctx, q, workersDone, workers); err != nil {
		return nil, err
	}
	return e.assembleCoordinated(plan, shard, selected, q, "in-process", m)
}

// drainOrFail waits for the queue to drain. If every worker exits first
// (all crashed), outstanding leases are still driven to expiry, but a
// unit requeued with nobody left to lease it can never run — that state
// fails fast instead of hanging the sweep.
func drainOrFail(ctx context.Context, q *coordinator.Queue, workersDone <-chan struct{}, workers int) error {
	waitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	waitErr := make(chan error, 1)
	go func() { waitErr <- q.Wait(waitCtx) }()

	select {
	case err := <-waitErr:
		return err
	case <-workersDone:
	}
	for {
		snap := q.Snapshot() // drives lease expiry
		if snap.Drained() {
			return nil
		}
		if snap.Leased == 0 {
			return fmt.Errorf("rmwtso: all %d coordinated workers crashed with %d units unfinished", workers, snap.Pending)
		}
		select {
		case err := <-waitErr:
			if err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
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
// shard selects, configured by the engine's WithCoordinator (defaults
// apply without it).
func (e *Engine) NewCoordServer(plan *Plan, shard Shard) (*CoordServer, error) {
	return e.NewCoordServerWith(plan, shard, e.coordConfig(), nil)
}

// NewCoordServerWith is NewCoordServer under an explicit coordination
// configuration and an optional per-sweep observer that receives this
// sweep's events only (the engine-wide observer still sees them too) —
// the form a multi-sweep host like rmwtso-serve needs, where each hosted
// fleet carries its own configuration and event stream.
func (e *Engine) NewCoordServerWith(plan *Plan, shard Shard, cfg CoordinationConfig, obs Observer) (*CoordServer, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	selected := plan.Select(shard)
	m := newJobMetrics(&e.metrics)
	m.obs = obs
	m.remoteAcks = true
	m.planned(len(selected))
	q, err := e.unitQueue(cfg, m, selected)
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
// the shard result exactly like the in-process mode: a clean sweep
// returns the result (coordination section attached), dead letters
// return a *DeadLetterError with the partial result. Worker crashes are
// recovered through lease expiry; with no worker connected Wait simply
// keeps waiting (cancel ctx to give up).
func (s *CoordServer) Wait(ctx context.Context) (*ShardResult, error) {
	if ctx == nil {
		ctx = s.eng.opts.ctx
	}
	if err := s.queue.Wait(ctx); err != nil {
		return nil, err
	}
	return s.eng.assembleCoordinated(s.plan, s.shard, s.selected, s.queue, "http", s.m)
}

// RunPlanWorker runs one pull worker against the coordinator at addr
// ("http://host:port") until that sweep's queue drains: the worker
// rebuilds the identical plan locally (the fingerprint handshake refuses
// a mismatched one), leases units one at a time, simulates them through
// the same runUnit path as every other mode, and acks checksummed
// results. It returns nil when the queue drains, ErrInjectedCrash when
// the fault injector killed the worker, or the transport/handshake
// error.
func (e *Engine) RunPlanWorker(ctx context.Context, plan *Plan, addr, name string) error {
	if ctx == nil {
		ctx = e.opts.ctx
	}
	if name == "" {
		return fmt.Errorf("rmwtso: coordinated worker needs a name")
	}
	cfg := e.coordConfig()
	cache, err := e.planCache(plan)
	if err != nil {
		return err
	}
	client := coordinator.Dial(addr, plan.Fingerprint())
	if err := client.WaitReachable(ctx, 30*time.Second); err != nil {
		return err
	}
	m := newJobMetrics(&e.metrics)
	w := &coordinator.Worker{
		Name:      name,
		Coord:     client,
		Exec:      e.unitExecutor(plan, cache, cfg, name, m),
		Heartbeat: cfg.heartbeat(),
	}
	return w.Run(ctx)
}
