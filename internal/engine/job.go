package engine

import (
	"context"
	"fmt"
)

// Job is one unit of work submitted to the engine: exactly one of Plan
// or Litmus must be set. Shard restricts the job to the units it covers
// (the zero Shard covers everything), with the same round-robin /
// predicate semantics for both job kinds.
type Job struct {
	// Plan runs the simulation units the shard selects, statically or —
	// when the engine is configured with a coordinator — through the pull
	// queue.
	Plan *Plan
	// Litmus model-checks a verdict grid: every (test, configured type)
	// pair the shard selects.
	Litmus *LitmusGrid
	// Shard selects the subset of the job's units to execute.
	Shard Shard
	// Observer, when non-nil, receives exactly this job's events (the
	// engine-wide WithObserver stream still sees every job's). It is
	// called serially per job but concurrently across jobs, so a shared
	// Observer needs its own locking; per-job Observers need none.
	Observer Observer
	// Coordination, when non-nil, runs a plan job through its own
	// dynamic pull queue with this configuration, overriding the
	// engine-level WithCoordinator setting for this job only.
	Coordination *CoordinationConfig
}

// LitmusGrid is the litmus-verdict form of a Job: the (test, type) grid
// over the engine's configured atomicity types.
type LitmusGrid struct {
	// Tests are the litmus tests to check, in grid order.
	Tests []*Test
}

// JobResult is the outcome of one finished job: Shard for plan jobs,
// Verdicts for litmus jobs.
type JobResult struct {
	// Shard holds a plan job's unit results as a shard artifact.
	Shard *ShardResult
	// Verdicts holds a litmus job's selected verdicts in (test, type)
	// order.
	Verdicts []TestResult
}

// JobHandle tracks one submitted job. Wait blocks for the result; Done
// exposes completion for select loops; Metrics snapshots the job's
// progress counters at any time, including while the job runs.
type JobHandle struct {
	done chan struct{}
	res  *JobResult
	err  error
	m    *metrics
}

// Done is closed when the job has finished (successfully or not).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes and returns its result. A
// coordinated plan that drained with dead letters returns a
// *DeadLetterError exactly like the facade's RunPlan.
func (h *JobHandle) Wait() (*JobResult, error) {
	return h.WaitCtx(context.Background())
}

// WaitCtx is Wait bounded by ctx: it returns ctx.Err() if the context
// ends first. The job itself keeps running — WaitCtx abandons the wait,
// not the work; cancel the Submit context to stop the job.
func (h *JobHandle) WaitCtx(ctx context.Context) (*JobResult, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Metrics snapshots the job's progress counters. Safe to call while the
// job is still running; after completion the snapshot is final.
func (h *JobHandle) Metrics() Metrics { return h.m.snapshot() }

// Submit starts the job on the engine and returns a handle for it. A nil
// ctx uses the engine's context (WithContext). The job executes
// asynchronously on the engine's worker pool; all execution errors —
// including shard validation — surface through the handle's Wait, and
// every finished unit streams to the engine's observer as it completes.
// A malformed job (neither or both of Plan and Litmus) is rejected
// synchronously.
func (e *Engine) Submit(ctx context.Context, job Job) (*JobHandle, error) {
	if (job.Plan == nil) == (job.Litmus == nil) {
		return nil, fmt.Errorf("rmwtso: a job needs exactly one of a plan or a litmus grid")
	}
	if ctx == nil {
		ctx = e.opts.ctx
	}
	h := &JobHandle{done: make(chan struct{}), m: newJobMetrics(&e.metrics)}
	h.m.obs = job.Observer
	coord := e.opts.coord
	if job.Coordination != nil {
		coord = job.Coordination
	}
	go func() {
		defer close(h.done)
		switch {
		case job.Plan != nil:
			sr, err := e.runPlanJob(ctx, job.Plan, job.Shard, h.m, coord)
			h.res, h.err = &JobResult{Shard: sr}, err
		case job.Litmus != nil:
			vs, err := e.checkTestsSharded(ctx, job.Shard, h.m, job.Litmus.Tests...)
			h.res, h.err = &JobResult{Verdicts: vs}, err
		}
	}()
	return h, nil
}

// runPlanJob executes the plan units a shard selects and returns their
// results as a shard artifact: on the engine's worker pool, or through
// the coordinated pull queue when the job (Job.Coordination) or the
// engine (WithCoordinator) selected one. Unit identities, order and
// results are exactly the plan's.
//
// The plan — not the engine's WithRMWTypes restriction — determines what
// runs: dropping plan units silently would leave merges incomplete. Each
// unit streams its group's trace lazily, and the engine's cache
// (WithCache, else the plan options' Cache/CacheDir) serves and stores
// units by their keys, so warm shards do zero simulation work.
func (e *Engine) runPlanJob(ctx context.Context, plan *Plan, shard Shard, m *metrics, coord *CoordinationConfig) (*ShardResult, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	cache, err := e.planCache(plan)
	if err != nil {
		return nil, err
	}
	selected := plan.Select(shard)
	m.planned(len(selected))
	if coord != nil {
		return e.runPlanCoordinated(ctx, plan, shard, selected, cache, m, *coord)
	}
	results := make([]UnitResult, len(selected))
	err = e.runUnitsCtx(ctx, len(selected), func(i int) error {
		ur, err := e.runUnit(plan, selected[i], cache, m)
		results[i] = ur
		return err
	})
	if err != nil {
		return nil, err
	}
	return plan.shardResult(shard, results), nil
}

// RunPlan executes the units of the plan a shard selects and returns
// their results as a shard artifact; it is Submit + Wait for a plan job.
// Unit identities, order and results are exactly the plan's: running
// shards 0..n-1 of a plan on n processes and merging the artifacts
// (MergeShards) reconstructs the unsharded sweep bit for bit.
func (e *Engine) RunPlan(ctx context.Context, plan *Plan, shard Shard) (*ShardResult, error) {
	h, err := e.Submit(ctx, Job{Plan: plan, Shard: shard})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait()
	if err != nil {
		return nil, err
	}
	return res.Shard, nil
}

// CheckTests model-checks every test under every configured RMW type;
// Submit + Wait for an unsharded litmus job.
func (e *Engine) CheckTests(tests ...*Test) ([]TestResult, error) {
	return e.CheckTestsSharded(FullShard(), tests...)
}

// CheckTestsSharded is CheckTests restricted to the verdict units the
// shard selects; Submit + Wait for a sharded litmus job.
func (e *Engine) CheckTestsSharded(shard Shard, tests ...*Test) ([]TestResult, error) {
	h, err := e.Submit(nil, Job{Litmus: &LitmusGrid{Tests: tests}, Shard: shard})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait()
	if err != nil {
		return nil, err
	}
	return res.Verdicts, nil
}
