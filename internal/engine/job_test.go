package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// concurrencyOptions builds the quick sweep options of the concurrency
// tests, varied by seed so distinct jobs own disjoint unit sets.
func concurrencyOptions(seed int64) experiments.Options {
	return experiments.Options{Cores: 4, Scale: 0.05, Seed: seed}
}

// TestWaitCtxAbandonsWaitNotWork pins WaitCtx's contract mid-sweep: a
// context that ends abandons the wait immediately, the job keeps running,
// and cancelling the Submit context is what actually stops the sweep.
func TestWaitCtxAbandonsWaitNotWork(t *testing.T) {
	plan, err := engine.BuildPlanSeeds(concurrencyOptions(20130601), experiments.Table3Specs()[:3])
	if err != nil {
		t.Fatal(err)
	}

	// A single coordinated worker whose fault injector lets a few units
	// through and then blocks guarantees the job is provably mid-sweep —
	// some units done, the next one parked — with no timing assumptions.
	release := make(chan struct{})
	defer close(release)
	var executed atomic.Int32
	block := int32(3)
	if n := int32(plan.Len()); block > n-1 {
		block = n - 1
	}
	cfg := &engine.CoordinationConfig{
		Workers: 1,
		FaultInjector: func(_ string, _ engine.Unit, _ int) error {
			if executed.Add(1) > block {
				<-release
			}
			return nil
		},
	}

	eng := engine.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := eng.Submit(ctx, engine.Job{Plan: plan, Coordination: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the sweep to park on the blocked unit.
	deadline := time.Now().Add(10 * time.Second)
	for executed.Load() <= block {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached the blocked unit")
		}
		time.Sleep(time.Millisecond)
	}

	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer waitCancel()
	if _, err := h.WaitCtx(waitCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx mid-sweep: got %v, want context.DeadlineExceeded", err)
	}
	select {
	case <-h.Done():
		t.Fatal("WaitCtx cancellation must not stop the job itself")
	default:
	}
	if done := h.Metrics().UnitsDone; done < int(block) {
		t.Fatalf("expected at least %d units done mid-sweep, got %d", block, done)
	}

	// Cancelling the Submit context is what stops the work.
	cancel()
	res, err := h.WaitCtx(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after Submit-context cancel: got (%v, %v), want context.Canceled", res, err)
	}
}

// TestConcurrentSubmitsIsolateJobs runs N plan jobs concurrently on one
// engine (run under -race in CI) and asserts the two isolation contracts
// the service layer builds on: each job's Observer stream carries exactly
// that job's units — never another job's — and the engine-wide Metrics
// totals equal the per-job sums.
func TestConcurrentSubmitsIsolateJobs(t *testing.T) {
	const njobs = 4
	specs := experiments.Table3Specs()[:3]
	eng := engine.New(engine.WithParallelism(4))

	type jobRun struct {
		plan   *engine.Plan
		own    map[engine.UnitID]bool
		events []engine.Event
		h      *engine.JobHandle
	}
	jobs := make([]*jobRun, njobs)
	for i := range jobs {
		// Distinct seeds give every job a disjoint unit set, so a leaked
		// cross-job event is detectable by unit ID alone.
		plan, err := engine.BuildPlanSeeds(concurrencyOptions(20130601+int64(i)), specs)
		if err != nil {
			t.Fatal(err)
		}
		jr := &jobRun{plan: plan, own: map[engine.UnitID]bool{}}
		for _, u := range plan.Units() {
			jr.own[u.ID] = true
		}
		jobs[i] = jr
	}
	for _, jr := range jobs {
		jr := jr
		h, err := eng.Submit(nil, engine.Job{
			Plan: jr.plan,
			// Per-job observers are serialized per job, so appending
			// without a lock is the contract under test.
			Observer: func(ev engine.Event) { jr.events = append(jr.events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		jr.h = h
	}

	var sum engine.Metrics
	for i, jr := range jobs {
		res, err := jr.h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if got, want := len(res.Shard.Units), jr.plan.Len(); got != want {
			t.Fatalf("job %d: %d unit results, want %d", i, got, want)
		}
		if got, want := len(jr.events), jr.plan.Len(); got != want {
			t.Fatalf("job %d: observer saw %d events, want %d", i, got, want)
		}
		for _, ev := range jr.events {
			if ev.Sim == nil {
				t.Fatalf("job %d: plan job streamed a non-Sim event %+v", i, ev)
			}
			if !jr.own[ev.Sim.Unit] {
				t.Fatalf("job %d: observer saw foreign unit %s", i, ev.Sim.Unit)
			}
		}
		m := jr.h.Metrics()
		sum.UnitsPlanned += m.UnitsPlanned
		sum.UnitsDone += m.UnitsDone
		sum.CacheHits += m.CacheHits
		sum.CacheMisses += m.CacheMisses
	}

	agg := eng.Metrics()
	if agg.UnitsPlanned != sum.UnitsPlanned || agg.UnitsDone != sum.UnitsDone ||
		agg.CacheHits != sum.CacheHits || agg.CacheMisses != sum.CacheMisses {
		t.Fatalf("engine metrics %+v do not equal per-job sums %+v", agg, sum)
	}
}

// TestCoordinatedWorkersBoundedByUnits pins that a coordinated job starts
// no more pull workers than it has units, however many it is asked for: a
// one-unit plan asked for 20,000 workers, with its unit held in the fault
// injector, keeps the goroutine count near its baseline.
func TestCoordinatedWorkersBoundedByUnits(t *testing.T) {
	spec := experiments.Table3Specs()[0]
	spec.Types = spec.Types[:1]
	plan, err := engine.BuildPlanSeeds(concurrencyOptions(20130601), []experiments.BenchmarkSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 {
		t.Fatalf("plan has %d units, want 1", plan.Len())
	}
	held := make(chan struct{})
	release := make(chan struct{})
	cfg := &engine.CoordinationConfig{
		Workers: 20000,
		FaultInjector: func(string, engine.Unit, int) error {
			close(held)
			<-release
			return nil
		},
	}

	baseline := runtime.NumGoroutine()
	h, err := engine.New().Submit(nil, engine.Job{Plan: plan, Coordination: cfg})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	// The unit can be leased before the pool has finished starting, so
	// watch the count for a while rather than sampling it once.
	running := 0
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline) && running <= baseline+50; {
		running = max(running, runtime.NumGoroutine())
		time.Sleep(time.Millisecond)
	}
	close(release)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if running > baseline+50 {
		t.Fatalf("%d goroutines while the one unit ran (baseline %d): the job started more workers than units", running, baseline)
	}
}

// TestDeadLetterCounters runs two coordinated jobs on one engine, each
// with one poisoned unit, and pins the dead-letter bookkeeping: each
// job's handle counts its own dead letter and the retries before it, the
// engine-wide aggregate counts both, and each job's coordination section
// names its poisoned unit with the trace and type the plan gives it.
func TestDeadLetterCounters(t *testing.T) {
	const maxAttempts = 2
	eng := engine.New()
	type poisonedJob struct {
		unit engine.Unit
		h    *engine.JobHandle
	}
	var jobs []poisonedJob
	for i := range 2 {
		plan, err := engine.BuildPlanSeeds(concurrencyOptions(20130601+int64(i)), experiments.Table3Specs()[:1])
		if err != nil {
			t.Fatal(err)
		}
		poisoned := plan.Units()[i]
		cfg := &engine.CoordinationConfig{
			Workers:      2,
			MaxAttempts:  maxAttempts,
			RetryBackoff: time.Millisecond,
			MaxBackoff:   time.Millisecond,
			FaultInjector: func(_ string, u engine.Unit, attempt int) error {
				if u.ID == poisoned.ID {
					return fmt.Errorf("injected poison (attempt %d)", attempt)
				}
				return nil
			},
		}
		h, err := eng.Submit(nil, engine.Job{Plan: plan, Coordination: cfg})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, poisonedJob{unit: poisoned, h: h})
	}

	for i, j := range jobs {
		_, err := j.h.Wait()
		var dle *engine.DeadLetterError
		if !errors.As(err, &dle) {
			t.Fatalf("job %d: want *DeadLetterError, got %v", i, err)
		}
		if m := j.h.Metrics(); m.DLQDepth != 1 || m.Retries != maxAttempts-1 {
			t.Errorf("job %d: DLQDepth %d and Retries %d, want 1 and %d", i, m.DLQDepth, m.Retries, maxAttempts-1)
		}
		dls := dle.Partial.Coordination.DeadLetters
		if len(dls) != 1 {
			t.Fatalf("job %d: dead letters %+v, want exactly the poisoned unit", i, dls)
		}
		want := engine.DeadUnit{Unit: string(j.unit.ID), Trace: j.unit.Trace, Type: j.unit.Type.String(), Attempts: maxAttempts}
		if d := dls[0]; d.Unit != want.Unit || d.Trace != want.Trace || d.Type != want.Type || d.Attempts != want.Attempts {
			t.Errorf("job %d: dead letter %+v, want %+v", i, d, want)
		}
	}
	if m := eng.Metrics(); m.DLQDepth != 2 || m.Retries != 2*(maxAttempts-1) {
		t.Errorf("engine DLQDepth %d and Retries %d, want 2 and %d", m.DLQDepth, m.Retries, 2*(maxAttempts-1))
	}
}
