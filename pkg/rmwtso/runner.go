package rmwtso

import (
	"context"

	"repro/internal/engine"
)

// Event is one streamed result from a Runner: exactly one field is
// non-nil. Events are delivered to the observer serially (never
// concurrently), in completion order, as soon as each work unit finishes.
type Event = engine.Event

// Observer receives streamed events. It is called from worker goroutines
// but never concurrently, so it needs no locking of its own.
type Observer = engine.Observer

// ChannelObserver adapts a channel into an Observer. The caller owns the
// channel and must drain it; sends block the pool when the channel is
// unbuffered.
func ChannelObserver(ch chan<- Event) Observer { return engine.ChannelObserver(ch) }

// SimRun is one simulated plan unit: one trace under one RMW type. Unit
// carries the run's stable plan-unit identifier, and CacheHit marks a
// run served from the Runner's result cache without executing the
// simulator.
type SimRun = engine.SimRun

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
// while one huge verdict no longer serializes on a single core. This parallelism is inside one work unit
// and multiplies with WithParallelism's unit-level pool.
func WithEnumWorkers(n int) Option { return engine.WithEnumWorkers(n) }

// WithCache makes the Runner's plan units (RunPlan) consult and fill a
// content-addressed cache of simulator results. Hits skip the simulator
// entirely and are flagged on the streamed SimRun (its CacheHit field);
// results are identical either way. A nil cache disables caching (the
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

// Runner is the public face of the execution engine (internal/engine): it
// fans work units — litmus verdicts, mapping validations, simulator
// runs — across a goroutine pool, streaming each finished unit to the
// observer while returning aggregates in deterministic order. A Runner is
// safe for repeated use; each method call runs its own pool.
type Runner struct {
	eng *engine.Engine
}

// NewRunner builds a Runner from the options.
func NewRunner(opts ...Option) *Runner {
	return &Runner{eng: engine.New(opts...)}
}

// Types returns the atomicity types the Runner is configured with.
func (r *Runner) Types() []AtomicityType { return r.eng.Types() }

// Submit starts a job on the execution engine and returns a handle for
// it. A nil ctx uses the Runner's context (WithContext). The job executes
// asynchronously; all execution errors surface through the handle's Wait,
// and every finished unit streams to the observer as it completes. A
// malformed job (neither or both of Plan and Litmus) is rejected
// synchronously.
func (r *Runner) Submit(ctx context.Context, job Job) (*JobHandle, error) {
	return r.eng.Submit(ctx, job)
}

// Metrics snapshots the Runner's engine-wide execution counters across
// every job and sweep it has run.
func (r *Runner) Metrics() Metrics { return r.eng.Metrics() }

// CheckTests model-checks every test under every configured RMW type.
// Each (test, type) verdict is one work unit; one walk of a test decides
// all its types, and its verdicts stream to the observer as soon as that
// walk finishes. The returned slice is ordered (test, type) regardless of
// parallelism or completion order.
func (r *Runner) CheckTests(tests ...*Test) ([]TestResult, error) {
	return r.eng.CheckTests(tests...)
}

// CheckTestsSharded is CheckTests restricted to the verdict units a
// shard selects, so a fleet can split one suite across processes exactly
// like a simulation plan: the (test, type) grid is enumerated in
// deterministic order, each unit's stable ID is the UnitID of its
// content-addressed verdict key, and the round-robin selector (or unit-ID
// predicate) keeps a deterministic subset. The returned slice holds only
// the selected units, still in (test, type) order, and every result
// carries its unit ID for correlation.
func (r *Runner) CheckTestsSharded(shard Shard, tests ...*Test) ([]TestResult, error) {
	return r.eng.CheckTestsSharded(shard, tests...)
}

// CheckSuite model-checks the full registered litmus suite; shorthand for
// CheckTests over Suite().Tests().
func (r *Runner) CheckSuite() ([]TestResult, error) {
	return r.CheckTests(Suite().Tests()...)
}

// ValidateMappings validates every Table 4 mapping under every configured
// RMW type for each program. Each (program, mapping, type) combination is
// one result and one event; one walk of a compiled (program, mapping)
// pair decides all its types. The returned slice is ordered (program,
// mapping, type).
func (r *Runner) ValidateMappings(programs ...*Cpp11Program) ([]MappingResult, error) {
	return r.eng.ValidateMappings(programs...)
}
