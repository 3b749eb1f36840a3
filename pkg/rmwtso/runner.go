package rmwtso

import (
	"context"

	"repro/internal/engine"
)

// Event is one streamed result from a Runner: exactly one field is
// non-nil — a litmus verdict (Litmus), a plan unit's UnitResult (Sim) or
// a dead-lettered plan unit (DeadLetter) — and it is the same record the
// job returns. Events are delivered to the observer serially (never
// concurrently), in completion order, as soon as each work unit finishes.
type Event = engine.Event

// Observer receives streamed events. It is called from worker goroutines
// but never concurrently, so it needs no locking of its own.
type Observer = engine.Observer

// Option configures a Runner.
type Option = engine.Option

// WithContext makes the Runner honour ctx: cancellation stops the sweep
// before the next work unit and the in-flight results are discarded; the
// Runner method returns ctx's error.
func WithContext(ctx context.Context) Option { return engine.WithContext(ctx) }

// WithParallelism sets the worker-pool size. Values below 1 mean 1; the
// default is runtime.GOMAXPROCS(0).
func WithParallelism(n int) Option { return engine.WithParallelism(n) }

// WithObserver streams every finished work unit to fn as it completes,
// in completion order. fn is never called concurrently.
func WithObserver(fn Observer) Option { return engine.WithObserver(fn) }

// WithEnumWorkers sets how many goroutines each single litmus verdict or
// mapping validation fans its candidate enumeration across: the
// candidates that satisfy uniproc, the only ones a verdict checks, are
// split into contiguous index ranges, one per worker, with the validity
// check running inside the workers. 1 keeps every verdict sequential.
// The default, 0, applies the candidate-count rule per program —
// GOMAXPROCS when the verdict walks at least memmodel.AutoEnumThreshold
// candidates, 1 below, so small suites don't pay goroutine overhead
// while one huge verdict no longer serializes on a single core. This
// parallelism is inside one work unit and multiplies with
// WithParallelism's unit-level pool.
func WithEnumWorkers(n int) Option { return engine.WithEnumWorkers(n) }

// WithCache makes the Runner's plan units (RunPlan) consult and fill a
// content-addressed cache of simulator results. Hits skip the simulator
// entirely and are flagged on the streamed UnitResult (its CacheHit
// field); results are identical either way. A nil cache disables caching (the
// default).
func WithCache(c *Cache) Option { return engine.WithCache(c) }

// WithRMWTypes narrows the model-checking grids — litmus verdicts and
// mapping validations — to the given atomicity types. The default is all
// three types. Plans are unaffected: each runs exactly the types of its
// benchmark specs.
func WithRMWTypes(types ...AtomicityType) Option { return engine.WithRMWTypes(types...) }

// Job is one unit of work submitted to the execution engine: exactly one
// of Plan or Litmus must be set, with Shard restricting the job to the
// units it covers.
type Job = engine.Job

// LitmusGrid is the litmus-verdict form of a Job: the (test, type) grid
// over the Runner's configured atomicity types.
type LitmusGrid = engine.LitmusGrid

// JobResult is the outcome of one finished job: Shard for plan jobs,
// Verdicts for litmus jobs.
type JobResult = engine.JobResult

// JobHandle tracks one submitted job: Wait blocks for the result, Done
// exposes completion for select loops, and Metrics snapshots the job's
// progress counters at any time.
type JobHandle = engine.JobHandle

// Metrics is a point-in-time snapshot of the execution counters: unit
// throughput, cache effectiveness and dead letters.
type Metrics = engine.Metrics

// Runner is the execution engine (internal/engine): it fans work units —
// litmus verdicts, mapping validations, simulator runs — across a
// goroutine pool, streaming each finished unit to the observer while
// returning aggregates in deterministic order. A Runner is safe for
// repeated and concurrent use; each method call runs its own pool.
type Runner = engine.Engine

// NewRunner builds a Runner from the options.
func NewRunner(opts ...Option) *Runner { return engine.New(opts...) }
