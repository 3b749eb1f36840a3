package rmwtso_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/pkg/rmwtso"
)

// tinyOptions keep the cached sweeps fast (4 cores, 10% scale).
func tinyOptions(cache *rmwtso.Cache) rmwtso.Options {
	return rmwtso.Options{Cores: 4, Scale: 0.1, Seed: 20130601, Cache: cache}
}

// runSpecs runs the plan of the specs on the runner and reassembles its
// benchmark runs.
func runSpecs(t *testing.T, r *rmwtso.Runner, o rmwtso.Options, specs []rmwtso.BenchmarkSpec) []*rmwtso.BenchmarkRun {
	t.Helper()
	plan, err := rmwtso.BuildPlan(o, specs)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	res, err := r.RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		t.Fatalf("RunPlan: %v", err)
	}
	runs, err := plan.Runs(res.Units)
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
	specs := rmwtso.Table3Specs()[:2]
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
	runner := rmwtso.NewRunner(rmwtso.WithObserver(observer), rmwtso.WithCache(cache))

	cold := runSpecs(t, runner, tinyOptions(nil), specs)
	if got := hits.Load(); got != 0 {
		t.Fatalf("cold run streamed %d cache hits, want 0", got)
	}
	if got := events.Load(); got != int64(units) {
		t.Fatalf("cold run streamed %d sim events, want %d", got, units)
	}

	events.Store(0)
	hits.Store(0)
	warm := runSpecs(t, runner, tinyOptions(nil), specs)
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
	reseeded := tinyOptions(nil)
	reseeded.Seed++
	runSpecs(t, runner, reseeded, specs)
	if got := hits.Load(); got != 0 {
		t.Fatalf("a different seed streamed %d cache hits, want 0", got)
	}
}

// TestOptionsCachePlumbing checks the Options.Cache route (no Runner
// option): the second sweep must hit.
func TestOptionsCachePlumbing(t *testing.T) {
	cache, err := rmwtso.OpenCache() // memory-only
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	runner := rmwtso.NewRunner()
	specs := rmwtso.Table3Specs()[:1]
	runSpecs(t, runner, tinyOptions(cache), specs)
	runSpecs(t, runner, tinyOptions(cache), specs)
	st := cache.Stats()
	if st.MemoryHits != uint64(len(specs[0].Types)) {
		t.Fatalf("stats = %+v, want %d memory hits via Options.Cache", st, len(specs[0].Types))
	}
}

// TestLitmusVerdictCache runs a slice of the registered suite twice
// through a caching Runner and asserts the second pass replays identical
// verdicts flagged CacheHit.
func TestLitmusVerdictCache(t *testing.T) {
	cache, err := rmwtso.OpenCache(rmwtso.CacheDir(t.TempDir()))
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	tests := rmwtso.Suite().Tests()[:3]
	runner := rmwtso.NewRunner(rmwtso.WithCache(cache))

	cold, err := runner.CheckTests(tests...)
	if err != nil {
		t.Fatalf("cold CheckTests: %v", err)
	}
	for _, r := range cold {
		if r.CacheHit {
			t.Fatalf("cold verdict for %s/%s flagged as cache hit", r.Test.Name, r.Atomicity)
		}
	}
	warm, err := runner.CheckTests(tests...)
	if err != nil {
		t.Fatalf("warm CheckTests: %v", err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("verdict counts differ")
	}
	for i := range warm {
		c, w := cold[i], warm[i]
		if !w.CacheHit {
			t.Errorf("warm verdict for %s/%s not served from cache", w.Test.Name, w.Atomicity)
		}
		if w.Holds != c.Holds || w.Matches != c.Matches ||
			w.ValidExecutions != c.ValidExecutions || w.Candidates != c.Candidates {
			t.Errorf("warm verdict for %s/%s differs: %+v vs %+v", w.Test.Name, w.Atomicity, w, c)
		}
		if !w.Outcomes.Equal(c.Outcomes) {
			t.Errorf("warm outcome set for %s/%s differs:\n%v\nvs\n%v",
				w.Test.Name, w.Atomicity, w.Outcomes.Keys(), c.Outcomes.Keys())
		}
	}
	// And the rendered report — what the litmus binary prints — must be
	// identical modulo the hit flag (which the report does not show).
	if rmwtso.RenderLitmusResults(cold) != rmwtso.RenderLitmusResults(warm) {
		t.Errorf("cached report rendering differs")
	}
}
