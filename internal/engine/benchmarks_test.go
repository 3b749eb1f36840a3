package engine_test

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// runSpecs runs the plan of the specs (under the given seeds, default
// o.Seed) through a fresh uncached engine — the single runUnit path every
// mode funnels into — and reassembles its benchmark runs.
func runSpecs(o experiments.Options, specs []experiments.BenchmarkSpec, seeds ...int64) ([]*experiments.BenchmarkRun, error) {
	return runSpecsOn(engine.New(), o, specs, seeds...)
}

// runSpecsOn is runSpecs on the given engine.
func runSpecsOn(eng *engine.Engine, o experiments.Options, specs []experiments.BenchmarkSpec, seeds ...int64) ([]*experiments.BenchmarkRun, error) {
	plan, err := engine.BuildPlanSeeds(o, specs, seeds...)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		return nil, err
	}
	return plan.Runs(res.Units)
}

// cacheTestOptions are small enough for the differential suite to run in
// seconds while still exercising every RMW type.
func cacheTestOptions() experiments.Options {
	return experiments.Options{Cores: 4, Scale: 0.1, Seed: 20130601}
}

// cacheTestSpecs keeps the differential runs fast: two Table 3 benchmarks
// under all three types plus one replacement variant.
func cacheTestSpecs() []experiments.BenchmarkSpec {
	specs := experiments.Table3Specs()[:2]
	specs = append(specs, experiments.Cpp11Specs()[1])
	return specs
}

// TestWarmVsColdDifferential runs the same spec set cold (empty cache),
// memory-warm (same cache object), disk-warm (fresh cache over the same
// directory, as a fresh process would see it) and uncached, and asserts
// all four produce deeply equal runs and byte-identical Table 3 / Fig. 11
// renderings — the cache must be invisible in the output.
func TestWarmVsColdDifferential(t *testing.T) {
	dir := t.TempDir()
	o := cacheTestOptions()
	specs := cacheTestSpecs()

	uncached, err := runSpecs(o, specs)
	if err != nil {
		t.Fatalf("uncached run: %v", err)
	}

	cold, err := simcache.Open(simcache.WithDir(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	coldEng := engine.New(engine.WithCache(cold))
	coldRuns, err := runSpecsOn(coldEng, o, specs)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	units := uint64(0)
	for _, s := range specs {
		units += uint64(len(s.Types))
	}
	if st := cold.Stats(); st.Misses != units || st.Stores != units || st.Hits() != 0 {
		t.Fatalf("cold stats = %+v, want %d misses and stores, 0 hits", st, units)
	}

	memWarm, err := runSpecsOn(coldEng, o, specs)
	if err != nil {
		t.Fatalf("memory-warm run: %v", err)
	}
	if st := cold.Stats(); st.MemoryHits != units {
		t.Fatalf("memory-warm stats = %+v, want %d memory hits", st, units)
	}

	fresh, err := simcache.Open(simcache.WithDir(dir))
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	diskWarm, err := runSpecsOn(engine.New(engine.WithCache(fresh)), o, specs)
	if err != nil {
		t.Fatalf("disk-warm run: %v", err)
	}
	if st := fresh.Stats(); st.DiskHits != units || st.Misses != 0 {
		t.Fatalf("disk-warm stats = %+v, want %d disk hits and 0 misses", st, units)
	}

	for name, got := range map[string][]*experiments.BenchmarkRun{
		"cold": coldRuns, "memory-warm": memWarm, "disk-warm": diskWarm,
	} {
		if !reflect.DeepEqual(got, uncached) {
			t.Errorf("%s runs differ from the uncached baseline", name)
		}
	}

	// Byte-identical tables and figures: the acceptance bar for warm runs.
	wantT3 := experiments.RenderTable3(experiments.Table3FromRuns(uncached[:2]))
	wantA, wantB := experiments.Fig11FromRuns(uncached)
	for name, got := range map[string][]*experiments.BenchmarkRun{"memory-warm": memWarm, "disk-warm": diskWarm} {
		if experiments.RenderTable3(experiments.Table3FromRuns(got[:2])) != wantT3 {
			t.Errorf("%s Table 3 rendering differs", name)
		}
		gotA, gotB := experiments.Fig11FromRuns(got)
		if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotB, wantB) {
			t.Errorf("%s Fig. 11 data differs", name)
		}
	}
}

// TestConsumersNeverWriteSharedResults pins the cache's no-mutate
// contract at the consumers: a warm run serves the very pointers the cold
// run stored, so anything that wrote to a result while building the
// report, encoding it in every format or encoding the shard artifact
// would show up as a difference from the untouched disk copy.
func TestConsumersNeverWriteSharedResults(t *testing.T) {
	dir := t.TempDir()
	cache, err := simcache.Open(simcache.WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	o := reportOptions()
	plan, err := engine.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WithCache(cache))
	first, err := eng.RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		t.Fatal(err)
	}

	runs, err := plan.Runs(first.Units)
	if err != nil {
		t.Fatal(err)
	}
	report, err := experiments.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range experiments.Formats() {
		enc, err := experiments.NewEncoder(format)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(io.Discard, report); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
	if _, err := first.Encode(); err != nil {
		t.Fatal(err)
	}

	second, err := eng.RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		t.Fatal(err)
	}
	disk, err := simcache.Open(simcache.WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range plan.Units() {
		got := second.Units[i].Result
		if !second.Units[i].CacheHit || got != first.Units[i].Result {
			t.Fatalf("unit %s: the warm run did not serve the cold run's result pointer", u.ID)
		}
		want, ok := disk.GetSim(u.Key)
		if !ok {
			t.Fatalf("unit %s: no disk entry", u.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("unit %s: the shared result was modified after it was stored", u.ID)
		}
	}
}

// TestCacheDirOption runs a plan through an engine over a disk cache: the
// run must leave disk entries addressable by the documented key
// derivation, as a fresh cache over the same directory sees them.
func TestCacheDirOption(t *testing.T) {
	dir := t.TempDir()
	o := cacheTestOptions()
	specs := experiments.Table3Specs()[:1]
	disk, err := simcache.Open(simcache.WithDir(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := runSpecsOn(engine.New(engine.WithCache(disk)), o, specs); err != nil {
		t.Fatalf("runSpecs: %v", err)
	}
	c, err := simcache.Open(simcache.WithDir(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfg := o.BaseConfig().WithRMWType(core.Type2)
	gen := workload.Generator{Cores: cfg.Cores, Seed: o.Seed}
	src, err := gen.Source(o.ScaledProfile(specs[0].Profile))
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	key := simcache.SimKey(cfg, src, o.Seed, o.Scale)
	res, ok := c.GetSim(key)
	if !ok {
		t.Fatalf("no disk entry for the documented key derivation")
	}
	if res.Workload != specs[0].Profile.Name || res.RMWType != core.Type2 {
		t.Fatalf("cached entry identifies as %s/%s", res.Workload, res.RMWType)
	}
}

// TestDeadlockedCacheEntryNeverServed pins runUnit's cache policy on the
// read side: a deadlocked result stored under a unit's key is never
// served. The unit re-executes as a miss, and its fresh result replaces
// the entry.
func TestDeadlockedCacheEntryNeverServed(t *testing.T) {
	spec := experiments.Table3Specs()[0]
	spec.Types = []core.AtomicityType{core.Type2}
	plan, err := engine.BuildPlan(cacheTestOptions(), []experiments.BenchmarkSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := engine.New().RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		t.Fatal(err)
	}
	fresh := uncached.Units[0].Result

	cache, err := simcache.Open()
	if err != nil {
		t.Fatal(err)
	}
	key := plan.Units()[0].Key
	deadlocked := *fresh
	deadlocked.Deadlocked = true
	if err := cache.PutSim(key, &deadlocked); err != nil {
		t.Fatal(err)
	}

	res, err := engine.New(engine.WithCache(cache)).RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		t.Fatalf("the deadlocked cache entry was served: %v", err)
	}
	if got := res.Units[0]; got.CacheHit || !reflect.DeepEqual(got.Result, fresh) {
		t.Fatalf("unit hit=%v, result equal to an uncached run's: %v; want a miss with the fresh result",
			got.CacheHit, reflect.DeepEqual(got.Result, fresh))
	}
	if stored, ok := cache.GetSim(key); !ok || !reflect.DeepEqual(stored, fresh) {
		t.Fatalf("cache entry after the run: found=%v, fresh=%v; want the fresh result", ok, reflect.DeepEqual(stored, fresh))
	}
}

// TestRunBenchmarksValidates covers the garbage inputs the engine must
// reject before they reach the generator or a cache key (Validate itself
// is pinned in the experiments package's own tests).
func TestRunBenchmarksValidates(t *testing.T) {
	cases := map[string]experiments.Options{
		"negative cores":   {Cores: -1, Scale: 1},
		"negative scale":   {Cores: 4, Scale: -0.5},
		"zero-core config": {Config: &sim.Config{}},
	}
	for name, o := range cases {
		if _, err := runSpecs(o, experiments.Table3Specs()[:1]); err == nil {
			t.Errorf("%s: a plan of %+v was accepted", name, o)
		}
	}
}

// TestGeneratorCoresFollowConfig pins the fix for the generator/simulator
// core-count split: a core count supplied only through Options.Config
// must drive the workload generator too, so the trace and the machine
// agree.
func TestGeneratorCoresFollowConfig(t *testing.T) {
	cfg := sim.DefaultConfig().WithCores(4)
	o := experiments.Options{Scale: 0.1, Seed: 1, Config: &cfg} // note: o.Cores == 0
	runs, err := runSpecs(o, experiments.Table3Specs()[:1])
	if err != nil {
		t.Fatalf("runSpecs: %v", err)
	}
	res := runs[0].Result(core.Type1)
	if len(res.PerCore) != 4 {
		t.Fatalf("simulated %d cores, want 4", len(res.PerCore))
	}
	active := 0
	for _, c := range res.PerCore {
		if c.Reads+c.Writes+c.RMWs > 0 {
			active++
		}
	}
	if active != 4 {
		t.Fatalf("%d of 4 cores executed work; generator and simulator disagree on the core count", active)
	}
}

// testRuns simulates a reduced benchmark set once and reuses it across the
// Table 3 / Fig. 11 tests (full sweeps are exercised by the benchmarks and
// the experiments tool).
func testRuns(t *testing.T) []*experiments.BenchmarkRun {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation sweep skipped in -short mode")
	}
	o := experiments.QuickOptions()
	o.Cores = 4
	o.Scale = 0.1
	runs, err := runSpecs(o, experiments.Table3Specs())
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestTable3FromRuns(t *testing.T) {
	runs := testRuns(t)
	rows := experiments.Table3FromRuns(runs)
	if len(rows) != 7 {
		t.Fatalf("Table 3 has %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.RMWsPer1000 <= 0 {
			t.Errorf("%s: zero RMW density", r.Name)
		}
		if r.UniquePct <= 0 || r.UniquePct > 100 {
			t.Errorf("%s: unique%% = %.2f out of range", r.Name, r.UniquePct)
		}
		if r.DrainPct < 0 || r.DrainPct > 100 {
			t.Errorf("%s: drain%% out of range", r.Name)
		}
		// The density must be within a factor of two of the paper's value.
		ratio := r.RMWsPer1000 / r.PaperRMWsPer1000
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: measured density %.2f vs paper %.2f", r.Name, r.RMWsPer1000, r.PaperRMWsPer1000)
		}
	}
	out := experiments.RenderTable3(rows)
	if !strings.Contains(out, "radiosity") || !strings.Contains(out, "wsq-mst") {
		t.Errorf("Table 3 rendering incomplete:\n%s", out)
	}
}

func TestFig11FromRunsShapes(t *testing.T) {
	runs := testRuns(t)
	a, b := experiments.Fig11FromRuns(runs)
	if len(a) != len(runs) || len(b) != len(runs) {
		t.Fatal("entry counts wrong")
	}
	for _, e := range a {
		t1 := e.Total(core.Type1)
		t2 := e.Total(core.Type2)
		t3 := e.Total(core.Type3)
		if t1 <= 0 {
			t.Errorf("%s: type-1 RMW cost is zero", e.Benchmark)
		}
		// The paper's central shape: weak RMWs are cheaper, and the type-1
		// cost is dominated by (or at least includes) the write-buffer
		// drain while type-2/3 mostly avoid it.
		if t2 > t1 {
			t.Errorf("%s: type-2 cost %.1f exceeds type-1 cost %.1f", e.Benchmark, t2, t1)
		}
		if t3 > t1 {
			t.Errorf("%s: type-3 cost %.1f exceeds type-1 cost %.1f", e.Benchmark, t3, t1)
		}
		if e.WriteBuffer[core.Type1] <= 0 {
			t.Errorf("%s: type-1 write-buffer component is zero", e.Benchmark)
		}
		if e.WriteBuffer[core.Type2] > e.WriteBuffer[core.Type1] {
			t.Errorf("%s: type-2 write-buffer component exceeds type-1", e.Benchmark)
		}
	}
	for _, e := range b {
		if e.Overhead[core.Type1] < e.Overhead[core.Type2] {
			t.Errorf("%s: type-2 overhead %.2f%% exceeds type-1 %.2f%%",
				e.Benchmark, e.Overhead[core.Type2], e.Overhead[core.Type1])
		}
		// Low-RMW-density benchmarks sit at ~0% improvement (the paper calls
		// them "negligible"); allow sub-half-percent noise but no real
		// regression.
		if e.Speedup(core.Type2) < -0.5 {
			t.Errorf("%s: type-2 slows execution down by %.2f%%", e.Benchmark, -e.Speedup(core.Type2))
		}
	}
	outA := experiments.RenderFig11a(a)
	outB := experiments.RenderFig11b(b)
	if !strings.Contains(outA, "Fig. 11(a)") || !strings.Contains(outB, "Fig. 11(b)") {
		t.Error("figure renderings missing titles")
	}
	sum := experiments.Summarize(a, b)
	if sum.Type2CostReductionMax <= 0 {
		t.Error("summary shows no type-2 cost reduction")
	}
	if sum.AvgType1DrainShare <= 0 || sum.AvgType1DrainShare > 100 {
		t.Errorf("drain share %.1f out of range", sum.AvgType1DrainShare)
	}
	if !strings.Contains(sum.Render(), "paper") {
		t.Error("summary rendering should cite the paper's numbers")
	}
}

func TestRunCpp11Benchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep skipped in -short mode")
	}
	// The C/C++11 variants need a somewhat larger run than the other tests:
	// at very small scales the wsq-mst deque anchors never warm up and
	// cold-miss noise swamps the type-1 vs type-2 difference.
	o := experiments.QuickOptions()
	o.Cores = 8
	o.Scale = 0.25
	runs, err := runSpecs(o, experiments.Cpp11Specs())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs, want 2 (wr, rr)", len(runs))
	}
	wr, rr := runs[0], runs[1]
	if wr.Name != "wsq-mst_wr" || rr.Name != "wsq-mst_rr" {
		t.Fatalf("run names = %q, %q", wr.Name, rr.Name)
	}
	if _, ok := wr.ByType[core.Type3]; ok {
		t.Error("write replacement must not be run with type-3 RMWs (unsound per §2.5)")
	}
	if _, ok := rr.ByType[core.Type3]; !ok {
		t.Error("read replacement should include type-3")
	}
	// Weak RMWs should not lose to type-1 on either variant (allow 5%
	// noise at this reduced scale).
	for _, run := range runs {
		_, _, c1 := run.Result(core.Type1).AvgRMWCost()
		_, _, c2 := run.Result(core.Type2).AvgRMWCost()
		if c2 > c1*1.05 {
			t.Errorf("%s: type-2 RMW cost %.1f exceeds type-1 %.1f", run.Name, c2, c1)
		}
	}
	// Read replacement leaves more pending writes in front of each RMW than
	// write replacement, so its type-1 cost is at least as high (§4.2).
	_, _, wr1 := wr.Result(core.Type1).AvgRMWCost()
	_, _, rr1 := rr.Result(core.Type1).AvgRMWCost()
	if rr1 < wr1*0.9 {
		t.Errorf("read-replacement type-1 RMW cost %.1f should not be far below write-replacement %.1f", rr1, wr1)
	}
}

// TestSummarizePopulatedUnchanged guards the empty-summary fix against
// regressing the populated path: real runs must still produce a nonzero
// range with min <= max.
func TestSummarizePopulatedUnchanged(t *testing.T) {
	a, b := experiments.Fig11FromRuns(testRuns(t))
	s := experiments.Summarize(a, b)
	if s.Type2CostReductionMin <= 0 || s.Type2CostReductionMin > s.Type2CostReductionMax {
		t.Fatalf("type-2 range %.1f..%.1f malformed", s.Type2CostReductionMin, s.Type2CostReductionMax)
	}
}

// TestTable3FromRunsSkipsNilResults guards the defensive path: a run
// missing its type-2 result contributes no row instead of a nil
// dereference.
func TestTable3FromRunsSkipsNilResults(t *testing.T) {
	runs := testRuns(t)
	runs[0].ByType[core.Type2] = nil
	rows := experiments.Table3FromRuns(runs)
	if len(rows) != len(runs)-1 {
		t.Fatalf("rows %d, want %d", len(rows), len(runs)-1)
	}
}
