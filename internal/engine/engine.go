// Package engine owns the execution lifecycle of the reproduction's work
// units: submit a job (a simulation plan or a litmus verdict grid), fan
// its units across a worker pool through the single runUnit execution
// path, stream progress as typed Events, and expose the finished results
// plus a Metrics snapshot. The public facade (pkg/rmwtso) is a thin
// adapter over this package: its Runner is an Engine, its
// plan/shard/artifact types alias the ones defined here, and its error
// strings are minted here (hence the "rmwtso:" prefixes — they are part
// of the facade's pinned surface).
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpp11"
	"repro/internal/experiments"
	"repro/internal/litmus"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// Aliases for the internal types the engine orchestrates. The facade
// re-exports these same types under its own names, so results flow from
// the engine to the public API without conversion.
type (
	// AtomicityType selects one of the paper's RMW atomicity definitions.
	AtomicityType = core.AtomicityType
	// Test and TestResult are one litmus test and its per-type verdict.
	Test = litmus.Test
	// TestResult is the verdict of one test under one atomicity type.
	TestResult = litmus.Result
	// Cpp11Program and MappingResult are one C/C++11 validation program
	// and the soundness verdict of one (program, mapping, type) unit.
	Cpp11Program = cpp11.Program
	// MappingResult is one mapping-validation verdict.
	MappingResult = cpp11.ValidationResult
	// SimConfig, Trace, TraceSource and SimResult are the simulator's
	// configuration, trace forms and run statistics.
	SimConfig = sim.Config
	// Trace is a materialized per-core trace.
	Trace = sim.Trace
	// TraceSource is the lazy, streaming trace form.
	TraceSource = sim.TraceSource
	// SimResult holds one run's statistics.
	SimResult = sim.Result
	// Replacement selects a wsq-mst C/C++11 replacement variant.
	Replacement = workload.Replacement
	// CacheKey identifies one cached result.
	CacheKey = simcache.Key
	// Options, BenchmarkSpec and BenchmarkRun are the experiment-harness
	// configuration and sweep data model.
	Options = experiments.Options
	// BenchmarkSpec names one benchmark × variant × types sweep column.
	BenchmarkSpec = experiments.BenchmarkSpec
	// BenchmarkRun holds one benchmark's per-type results.
	BenchmarkRun = experiments.BenchmarkRun
	// Coordination and DeadUnit are the report model's
	// coordination-metadata section.
	Coordination = experiments.Coordination
	// DeadUnit is one dead-lettered unit in the report model.
	DeadUnit = experiments.DeadUnit
)

// Event is one streamed result of a job: exactly one field is non-nil,
// and it is the same record the job returns. Events are delivered to the
// job's observer (Job.Observer) serially (never concurrently), in
// completion order, as soon as each verdict or plan unit finishes. The
// engine never writes a record after it has emitted it, so an observer
// may keep the Event itself rather than a copy.
type Event struct {
	// Litmus is set for one (test, type) verdict of a litmus job.
	Litmus *TestResult
	// Sim is set when the unit was one simulator run of a plan job.
	Sim *UnitResult
	// DeadLetter is set when a plan job dead-lettered the unit.
	DeadLetter *DeadUnit
}

// Observer receives streamed events. It is called from worker goroutines
// but never concurrently, so it needs no locking of its own.
type Observer func(Event)

// options collects the Engine configuration set by functional options.
type options struct {
	ctx         context.Context
	parallelism int
	enumWorkers int
	types       []AtomicityType
	cache       *simcache.Cache
	faults      FaultInjector
}

// Option configures an Engine.
type Option func(*options)

// WithContext makes the Engine honour ctx: cancellation stops the sweep
// before the next work unit and the in-flight results are discarded; the
// method returns ctx's error.
func WithContext(ctx context.Context) Option {
	return func(o *options) { o.ctx = ctx }
}

// WithParallelism sets the worker-pool size. Values below 1 mean 1; the
// default is runtime.GOMAXPROCS(0).
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

// WithEnumWorkers sets how many goroutines each single litmus verdict or
// mapping validation fans its candidate enumeration across, as
// memmodel.EnumWorkers defines them. The default, 0, applies the
// candidate-count rule per program.
func WithEnumWorkers(n int) Option {
	return func(o *options) { o.enumWorkers = n }
}

// WithCache makes the Engine's plan units consult (and fill) a
// content-addressed cache of simulator results. Hits skip the simulator
// entirely and are flagged on the streamed UnitResult; results are
// identical either way. A nil cache disables caching (the default).
func WithCache(c *simcache.Cache) Option {
	return func(o *options) { o.cache = c }
}

// WithRMWTypes narrows the model-checking grids — litmus verdicts and
// mapping validations — to the given atomicity types. The default is all
// three types. Plans are unaffected: each runs exactly the types of its
// benchmark specs.
func WithRMWTypes(types ...AtomicityType) Option {
	return func(o *options) { o.types = append([]AtomicityType(nil), types...) }
}

// Engine fans work — litmus tests, mapping validations, simulator runs —
// across a goroutine pool, streaming each finished verdict and plan unit
// to its job's observer while returning aggregates in deterministic
// order. An Engine is safe for repeated and concurrent use; each
// submitted job runs its own pool.
type Engine struct {
	opts    options
	metrics metrics
}

// New builds an Engine from the options.
func New(opts ...Option) *Engine {
	o := options{
		ctx:         context.Background(),
		parallelism: runtime.GOMAXPROCS(0),
		types:       core.AllTypes(),
	}
	for _, f := range opts {
		f(&o)
	}
	if o.parallelism < 1 {
		o.parallelism = 1
	}
	if len(o.types) == 0 {
		o.types = core.AllTypes()
	}
	return &Engine{opts: o, metrics: metrics{start: time.Now()}}
}

// Types returns the atomicity types the Engine is configured with.
func (e *Engine) Types() []AtomicityType {
	return append([]AtomicityType(nil), e.opts.types...)
}

// runUnits executes run(0..n-1) on the worker pool under the Engine's
// own context. It returns the context's error if cancelled, otherwise the
// first unit error. Units are claimed in order but finish in any order;
// each unit writes only its own result slot, so aggregates stay
// deterministic.
func (e *Engine) runUnits(n int, run func(int) error) error {
	return e.runUnitsCtx(e.opts.ctx, n, run)
}

// runUnitsCtx is runUnits under an explicit context (plan jobs accept a
// per-call context on top of the Engine's).
func (e *Engine) runUnitsCtx(ctx context.Context, n int, run func(int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	workers := e.opts.parallelism
	if workers > n {
		workers = n
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil || failed() {
					continue
				}
				if err := run(i); err != nil {
					setErr(err)
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// simulateCached runs one plan unit's source on the configuration through
// the result cache, under runUnit's cache policy: a stored result is
// served (hit) and a fresh one is stored, except that a deadlocked result
// is never stored and never served. Deadlocks therefore always
// re-execute, so warm and cold runs report them identically. key
// addresses the run in the cache; with a nil cache it is unused and the
// run just simulates.
func simulateCached(cache *simcache.Cache, key CacheKey, cfg SimConfig, src TraceSource) (res *SimResult, hit bool, err error) {
	if cache != nil {
		if res, ok := cache.GetSim(key); ok && !res.Deadlocked {
			return res, true, nil
		}
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, false, err
	}
	if res, err = s.RunSource(src); err != nil {
		return nil, false, err
	}
	if cache != nil && !res.Deadlocked {
		// Persistence is best-effort: a failed store is counted in the
		// cache's Stats and the run's result stands.
		_ = cache.PutSim(key, res)
	}
	return res, false, nil
}
