package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

	// A one-worker pool whose fault injector lets a few units through and
	// then blocks guarantees the job is provably mid-sweep — some units
	// done, the next one parked — with no timing assumptions. The parked
	// unit is released when the test ends or the Submit context is
	// cancelled, whichever comes first.
	release := make(chan struct{})
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int32
	block := int32(3)
	if n := int32(plan.Len()); block > n-1 {
		block = n - 1
	}
	eng := engine.New(engine.WithParallelism(1), engine.WithFaultInjector(func(engine.Unit) error {
		if executed.Add(1) > block {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return nil
	}))
	h, err := eng.Submit(ctx, engine.Job{Plan: plan})
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

// TestDeadLetterCounters runs two plan jobs on one engine whose fault
// injector poisons one unit of each — with a sentinel error in the first
// job, a formatted one in the second — and pins the static pool's
// dead-letter bookkeeping: each job's handle counts its own dead letter
// and no retries, the engine-wide aggregate counts both, each job streams
// one dead-letter event, and each job's coordination section names its
// poisoned unit, after one attempt, with the trace and type the plan
// gives it.
func TestDeadLetterCounters(t *testing.T) {
	var plans []*engine.Plan
	var poisoned []engine.Unit
	for i := range 2 {
		plan, err := engine.BuildPlanSeeds(concurrencyOptions(20130601+int64(i)), experiments.Table3Specs()[:1])
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
		poisoned = append(poisoned, plan.Units()[i])
	}
	errCrash := errors.New("injected crash")
	reasons := []string{errCrash.Error(), "injected poison (unit 1)"}
	eng := engine.New(engine.WithFaultInjector(func(u engine.Unit) error {
		switch u.ID {
		case poisoned[0].ID:
			return errCrash
		case poisoned[1].ID:
			return fmt.Errorf("injected poison (unit %d)", 1)
		}
		return nil
	}))
	type poisonedJob struct {
		h      *engine.JobHandle
		events []engine.DeadUnit
	}
	jobs := make([]*poisonedJob, len(plans))
	for i, plan := range plans {
		j := &poisonedJob{}
		h, err := eng.Submit(nil, engine.Job{Plan: plan, Observer: func(ev engine.Event) {
			if ev.DeadLetter != nil {
				j.events = append(j.events, *ev.DeadLetter)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		j.h = h
		jobs[i] = j
	}

	for i, j := range jobs {
		_, err := j.h.Wait()
		var dle *engine.DeadLetterError
		if !errors.As(err, &dle) {
			t.Fatalf("job %d: want *DeadLetterError, got %v", i, err)
		}
		if m := j.h.Metrics(); m.DLQDepth != 1 || m.Retries != 0 || m.UnitsDone != plans[i].Len()-1 {
			t.Errorf("job %d: DLQDepth %d, Retries %d, UnitsDone %d; want 1, 0 and %d", i, m.DLQDepth, m.Retries, m.UnitsDone, plans[i].Len()-1)
		}
		u, reason := poisoned[i], reasons[i]
		want := engine.DeadUnit{Unit: string(u.ID), Trace: u.Trace, Type: u.Type.String(), Attempts: 1, Reasons: []string{reason}}
		if !reflect.DeepEqual(j.events, []engine.DeadUnit{want}) {
			t.Errorf("job %d: dead-letter events %+v, want one for %s", i, j.events, u.ID)
		}
		c := dle.Partial.Coordination
		if c.Mode != "in-process" || len(c.DeadLetters) != 1 {
			t.Fatalf("job %d: coordination %+v, want in-process mode with exactly the poisoned unit", i, c)
		}
		if d := c.DeadLetters[0]; !reflect.DeepEqual(d, want) {
			t.Errorf("job %d: dead letter %+v, want %+v", i, d, want)
		}
		if got := len(dle.Partial.Units); got != plans[i].Len()-1 {
			t.Errorf("job %d: partial has %d units, want %d", i, got, plans[i].Len()-1)
		}
	}
	if m := eng.Metrics(); m.DLQDepth != 2 || m.Retries != 0 {
		t.Errorf("engine DLQDepth %d and Retries %d, want 2 and 0", m.DLQDepth, m.Retries)
	}
}
