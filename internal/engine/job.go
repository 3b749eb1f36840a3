package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
)

// Job is one unit of work submitted to the engine: exactly one of Plan
// or Litmus must be set. Shard restricts the job to the units it covers
// (the zero Shard covers everything), with the same round-robin /
// predicate semantics for both job kinds.
type Job struct {
	// Plan runs the simulation units the shard selects on the engine's
	// worker pool.
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

// Wait blocks until the job finishes and returns its result. A plan job
// that finished with dead-lettered units returns a *DeadLetterError
// exactly like the facade's RunPlan.
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
	go func() {
		defer close(h.done)
		switch {
		case job.Plan != nil:
			sr, err := e.runPlanJob(ctx, job.Plan, job.Shard, h.m)
			h.res, h.err = &JobResult{Shard: sr}, err
		case job.Litmus != nil:
			vs, err := e.checkTestsSharded(ctx, job.Shard, h.m, job.Litmus.Tests...)
			h.res, h.err = &JobResult{Verdicts: vs}, err
		}
	}()
	return h, nil
}

// CoordEvent is one coordination state transition of a plan job,
// streamed through the engine's observer alongside the job's SimRun
// events so progress displays can show dead letters as they happen.
type CoordEvent struct {
	// Kind is the transition; the static pool emits only "dead-letter".
	Kind string
	// Unit is the plan unit concerned.
	Unit UnitID
	// Attempt is the 1-based attempt the transition concerns, always 1:
	// the static pool runs each unit once.
	Attempt int
	// Reason carries the failure reason.
	Reason string
}

// FaultInjector decides, before each execution of a plan unit, whether to
// inject a fault: return nil to execute normally, or an error to fail the
// execution without simulating, which dead-letters the unit. Fault
// injection exists for tests, demos and CI drills.
type FaultInjector func(unit Unit) error

// WithFaultInjector makes every plan unit the engine executes consult
// f first. Nil, the default, injects nothing.
func WithFaultInjector(f FaultInjector) Option {
	return func(o *options) { o.faults = f }
}

// DeadLetterError reports a plan job that finished with dead-lettered
// units: every other unit finished, but the listed units failed, each
// after its one execution. Partial carries the completed units and the
// coordination summary — including the dead letters with their failure
// reasons — so callers can still render a partial report
// (Plan.RunsPartial) with the DLQ section instead of discarding the
// sweep.
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
// with the trace and type the plan gives it, after its one attempt.
func deadUnit(u Unit, reason string) DeadUnit {
	return DeadUnit{Unit: string(u.ID), Trace: u.Trace, Type: u.Type.String(), Attempts: 1, Reasons: []string{reason}}
}

// runPlanJob executes the plan units a shard selects on the engine's
// worker pool and returns their results as a shard artifact. Unit
// identities, order and results are exactly the plan's.
//
// The plan — not the engine's WithRMWTypes restriction — determines what
// runs: dropping plan units silently would leave merges incomplete. Each
// unit streams its group's trace lazily, and the engine's cache
// (WithCache; none without it) serves and stores units by their keys, so
// warm shards do zero simulation work.
//
// A unit whose execution fails — a simulator error, a deadlock or an
// injected fault — is dead-lettered after its one attempt, and the other
// units still run: units are deterministic, so a retry in this process
// would only fail again. A job with dead letters returns a
// *DeadLetterError carrying the finished units.
func (e *Engine) runPlanJob(ctx context.Context, plan *Plan, shard Shard, m *metrics) (*ShardResult, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	selected := plan.Select(shard)
	m.planned(len(selected))
	results := make([]UnitResult, len(selected))
	errs := make([]error, len(selected))
	err := e.runUnitsCtx(ctx, len(selected), func(i int) error {
		u := selected[i]
		results[i], errs[i] = e.runUnit(plan, u, m)
		if errs[i] != nil {
			m.deadLetter()
			e.emitTo(m, Event{Coord: &CoordEvent{Kind: "dead-letter", Unit: u.ID, Attempt: 1, Reason: errs[i].Error()}})
		}
		// The error stays in the unit's slot: returning it would stop the
		// pool claiming the remaining units.
		return nil
	})
	if err != nil {
		return nil, err
	}
	done := results[:0] // compacted in place: slot i moves to an index <= i
	var dead []DeadUnit
	for i, u := range selected {
		if errs[i] != nil {
			dead = append(dead, deadUnit(u, errs[i].Error()))
			continue
		}
		done = append(done, results[i])
	}
	res := plan.shardResult(shard, done)
	if len(dead) == 0 {
		return res, nil
	}
	slices.SortFunc(dead, func(a, b DeadUnit) int { return strings.Compare(a.Unit, b.Unit) })
	res.Coordination = &Coordination{Mode: "in-process", DeadLetters: dead}
	return nil, &DeadLetterError{Partial: res}
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
