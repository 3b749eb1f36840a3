package rmwtso_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/pkg/rmwtso"
)

// tinyOptions keep the cached sweeps fast (4 cores, 10% scale).
func tinyOptions() rmwtso.Options {
	return rmwtso.Options{Cores: 4, Scale: 0.1, Seed: 20130601}
}

// runSpecs runs the plan of the specs as one job on the runner, streaming
// its events to obs, and reassembles its benchmark runs.
func runSpecs(t *testing.T, r *rmwtso.Runner, o rmwtso.Options, specs []rmwtso.BenchmarkSpec, obs rmwtso.Observer) []*rmwtso.BenchmarkRun {
	t.Helper()
	plan, err := rmwtso.BuildPlan(o, specs)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	h, err := r.Submit(nil, rmwtso.Job{Plan: plan, Observer: obs})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatalf("plan job: %v", err)
	}
	runs, err := plan.Runs(res.Shard.Units)
	if err != nil {
		t.Fatalf("Runs: %v", err)
	}
	return runs
}

// TestRunnerBenchmarkCacheObserver is the acceptance check of the cache:
// a second run of the same plan over the same cache serves every unit as
// a CacheHit event — zero simulator runs — and returns deeply equal runs,
// while a different seed misses because the key includes the workload
// identity.
func TestRunnerBenchmarkCacheObserver(t *testing.T) {
	cache, err := rmwtso.OpenCache(rmwtso.CacheDir(t.TempDir()))
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	specs := experiments.Table3Specs()[:2]
	units := 0
	for _, s := range specs {
		units += len(s.Types)
	}

	var events, hits atomic.Int64
	observer := func(e rmwtso.Event) {
		if e.Sim == nil {
			return
		}
		events.Add(1)
		if e.Sim.CacheHit {
			hits.Add(1)
		}
	}
	runner := rmwtso.NewRunner(rmwtso.WithCache(cache))

	cold := runSpecs(t, runner, tinyOptions(), specs, observer)
	if got := hits.Load(); got != 0 {
		t.Fatalf("cold run streamed %d cache hits, want 0", got)
	}
	if got := events.Load(); got != int64(units) {
		t.Fatalf("cold run streamed %d sim events, want %d", got, units)
	}

	events.Store(0)
	hits.Store(0)
	warm := runSpecs(t, runner, tinyOptions(), specs, observer)
	if got := hits.Load(); got != int64(units) {
		t.Fatalf("warm run streamed %d cache hits, want %d (zero simulator runs)", got, units)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm runs differ from cold runs")
	}
	if st := cache.Stats(); st.Hits() != uint64(units) || st.Misses != uint64(units) {
		t.Fatalf("cache stats = %+v, want %d hits and %d misses", st, units, units)
	}

	// A different seed must miss: the key includes the workload identity.
	hits.Store(0)
	reseeded := tinyOptions()
	reseeded.Seed++
	runSpecs(t, runner, reseeded, specs, observer)
	if got := hits.Load(); got != 0 {
		t.Fatalf("a different seed streamed %d cache hits, want 0", got)
	}
}
