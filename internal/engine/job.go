package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
)

// Job is one unit of work submitted to the engine: exactly one of Plan
// or Litmus must be set.
type Job struct {
	// Plan runs the simulation units the shard selects on the engine's
	// worker pool.
	Plan *Plan
	// Litmus model-checks a verdict grid: every (test, configured type)
	// pair.
	Litmus *LitmusGrid
	// Shard selects the subset of a plan job's units to execute; the
	// zero Shard covers the whole plan. A litmus job always runs whole,
	// so its Shard must be the zero Shard.
	Shard Shard
	// Observer, when non-nil, receives exactly this job's events. It is
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
	// Verdicts holds a litmus job's verdicts in (test, type) order.
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
// that finished with dead-lettered units returns its partial shard
// together with a *DeadLetterError, exactly like RunPlan.
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
// job is still running; once Done is closed the snapshot is final, its
// Elapsed included.
func (h *JobHandle) Metrics() Metrics { return h.m.snapshot() }

// Submit starts the job on the engine and returns a handle for it. A nil
// ctx uses the engine's context (WithContext). The job executes
// asynchronously on the engine's worker pool; all execution errors —
// including a plan job's shard validation — surface through the handle's
// Wait, and every finished verdict or plan unit streams to the job's
// observer as it completes. A malformed job (neither or both of Plan and
// Litmus, or a litmus job with a shard) is rejected synchronously.
func (e *Engine) Submit(ctx context.Context, job Job) (*JobHandle, error) {
	if (job.Plan == nil) == (job.Litmus == nil) {
		return nil, fmt.Errorf("rmwtso: a job needs exactly one of a plan or a litmus grid")
	}
	if job.Litmus != nil && job.Shard != FullShard() {
		return nil, fmt.Errorf("rmwtso: a litmus job runs whole; shard %d/%d selects plan units only", job.Shard.Index, job.Shard.Count)
	}
	if ctx == nil {
		ctx = e.opts.ctx
	}
	h := &JobHandle{done: make(chan struct{}), m: newJobMetrics(&e.metrics)}
	h.m.obs = job.Observer
	go func() {
		switch {
		case job.Plan != nil:
			sr, err := e.runPlanJob(ctx, job.Plan, job.Shard, h.m)
			h.res, h.err = &JobResult{Shard: sr}, err
		case job.Litmus != nil:
			vs, err := e.checkTests(ctx, h.m, job.Litmus.Tests)
			h.res, h.err = &JobResult{Verdicts: vs}, err
		}
		h.m.finish()
		close(h.done)
	}()
	return h, nil
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
// after its one execution. The job returns its partial shard beside the
// error: the finished units plus the coordination section that lists the
// same dead letters, so Plan.Report still renders the partial report.
type DeadLetterError struct {
	// DeadLetters are the dead-lettered units, sorted by unit ID, each
	// with its failure reason.
	DeadLetters []DeadUnit
	// Finished counts the units that finished.
	Finished int
}

// Error lists the dead-lettered unit IDs, sorted and bounded, and the
// first one's last failure reason.
func (e *DeadLetterError) Error() string {
	dls := e.DeadLetters
	ids := make([]string, len(dls))
	for i, d := range dls {
		ids[i] = d.Unit
	}
	msg := fmt.Sprintf("rmwtso: %d of %d sweep units dead-lettered: %s",
		len(dls), e.Finished+len(dls), boundedList(ids, listedUnitsMax))
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
// Each finished unit streams the UnitResult the shard holds for it. A
// unit whose execution fails — a simulator error, a deadlock or an
// injected fault — is dead-lettered after its one attempt and streams
// the DeadUnit the shard's coordination section lists; the other units
// still run: units are deterministic, so a retry in this process would
// only fail again. A job with dead letters returns its partial shard
// together with a *DeadLetterError.
func (e *Engine) runPlanJob(ctx context.Context, plan *Plan, shard Shard, m *metrics) (*ShardResult, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	selected := plan.Select(shard)
	m.planned(len(selected))
	results := make([]UnitResult, len(selected))
	dead := make([]*DeadUnit, len(selected))
	err := e.runUnitsCtx(ctx, len(selected), func(i int) error {
		res, err := e.runUnit(plan, selected[i], m)
		if err != nil {
			// The failure stays in the unit's slot: returning it would
			// stop the pool claiming the remaining units.
			d := deadUnit(selected[i], err.Error())
			dead[i] = &d
			m.deadLetter()
			m.emit(Event{DeadLetter: &d})
			return nil
		}
		results[i] = res
		m.emit(Event{Sim: &results[i]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := plan.shardResult(shard, results)
	var letters []DeadUnit
	for _, d := range dead {
		if d != nil {
			letters = append(letters, *d)
		}
	}
	if len(letters) == 0 {
		return res, nil
	}
	// The streamed records point into results, so the finished units are
	// copied out rather than compacted in place.
	res.Units = make([]UnitResult, 0, len(results)-len(letters))
	for i, r := range results {
		if dead[i] == nil {
			res.Units = append(res.Units, r)
		}
	}
	slices.SortFunc(letters, func(a, b DeadUnit) int { return strings.Compare(a.Unit, b.Unit) })
	res.Coordination = &Coordination{Mode: "in-process", DeadLetters: letters}
	return res, &DeadLetterError{DeadLetters: letters, Finished: len(res.Units)}
}

// RunPlan executes the units of the plan a shard selects and returns
// their results as a shard artifact; it is Submit + Wait for a plan job.
// A nil ctx uses the engine's context (WithContext). Unit identities,
// order and results are exactly the plan's: running shards 0..n-1 of a
// plan on n processes and merging the artifacts (MergeShards)
// reconstructs the unsharded sweep bit for bit.
//
// The plan — not WithRMWTypes, which only narrows model-checking grids
// — determines what runs: dropping plan units silently would leave
// merges incomplete. Each unit streams its source group's trace lazily,
// and the engine's cache (WithCache; none without it) serves and stores
// units by their keys, so warm shards do zero simulation work. A unit
// that fails — a deadlock, a simulator error or an injected fault — is
// dead-lettered and the other units still run; RunPlan then returns the
// partial shard of the finished units together with a *DeadLetterError.
// Deadlocked results are never stored in or served from the cache.
func (e *Engine) RunPlan(ctx context.Context, plan *Plan, shard Shard) (*ShardResult, error) {
	h, err := e.Submit(ctx, Job{Plan: plan, Shard: shard})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait()
	return res.Shard, err
}

// CheckTests model-checks every test under every configured RMW type;
// Submit + Wait for a litmus job. One walk of a test decides all its
// types. The returned slice is ordered (test, type) regardless of
// parallelism or completion order.
func (e *Engine) CheckTests(tests ...*Test) ([]TestResult, error) {
	h, err := e.Submit(nil, Job{Litmus: &LitmusGrid{Tests: tests}})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait()
	if err != nil {
		return nil, err
	}
	return res.Verdicts, nil
}
