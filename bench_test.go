// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation, plus ablation benchmarks for
// the design choices called out in DESIGN.md. Each benchmark reports the
// key figure-of-merit as custom metrics (cycles per RMW, percentage
// reductions, ...) so `go test -bench` output doubles as the experiment
// log; cmd/experiments produces the full formatted tables.
//
// The benchmark configuration is reduced (8 cores, shortened workloads) so
// that the whole suite completes in a few minutes; run
// `go run ./cmd/experiments -all` for the paper-scale 32-core sweep.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpp11"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/memmodel/memmodeltest"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// benchOptions is the reduced experiment configuration used by the
// benchmarks.
func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.Cores = 8
	o.Scale = 0.25
	return o
}

// runTable3 and runCpp11 run the benchmark sweeps as plans through the
// execution engine, the single runUnit path behind every sweep mode.
func runTable3(o experiments.Options) ([]*experiments.BenchmarkRun, error) {
	return runSpecs(o, experiments.Table3Specs())
}

func runCpp11(o experiments.Options) ([]*experiments.BenchmarkRun, error) {
	return runSpecs(o, experiments.Cpp11Specs())
}

// runSpecs runs the plan of the specs and reassembles its benchmark runs.
func runSpecs(o experiments.Options, specs []experiments.BenchmarkSpec) ([]*experiments.BenchmarkRun, error) {
	plan, err := engine.BuildPlan(o, specs)
	if err != nil {
		return nil, err
	}
	res, err := engine.New().RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		return nil, err
	}
	return plan.Runs(res.Units)
}

// BenchmarkTable1IdiomMatrix regenerates Table 1: model checking of the
// Dekker idioms and the C/C++11 mapping soundness per RMW type.
func BenchmarkTable1IdiomMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckTable1Matches(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Parameters renders the architectural parameters (Table 2);
// it mostly exists so every table has a named regeneration target.
func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.RenderTable2(sim.DefaultConfig().Table2()) == "" {
			b.Fatal("empty Table 2")
		}
	}
}

// BenchmarkTable3Characteristics regenerates Table 3: per-benchmark RMW
// density, unique-RMW fraction, revert rate and broadcast rate.
func BenchmarkTable3Characteristics(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		runs, err := runTable3(o)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table3FromRuns(runs)
		if len(rows) != 7 {
			b.Fatalf("Table 3 has %d rows", len(rows))
		}
		if i == b.N-1 {
			var density float64
			for _, r := range rows {
				density += r.RMWsPer1000
			}
			b.ReportMetric(density/float64(len(rows)), "RMWs/1000memops")
		}
	}
}

// BenchmarkTable4MappingValidation regenerates the Table 4 mapping
// soundness matrix.
func BenchmarkTable4MappingValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		unsound := 0
		for _, r := range rows {
			if !r.Sound {
				unsound++
			}
		}
		if unsound != 1 {
			b.Fatalf("expected exactly one unsound mapping/type combination, got %d", unsound)
		}
	}
}

// BenchmarkFig11aRMWCost regenerates Fig. 11(a): the per-RMW cost split for
// type-1/2/3 across the benchmark set. The reported metrics are the average
// per-RMW cost per type and the type-2/type-3 reductions.
func BenchmarkFig11aRMWCost(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		runs, err := runTable3(o)
		if err != nil {
			b.Fatal(err)
		}
		figA, figB := experiments.Fig11FromRuns(runs)
		sum := experiments.Summarize(figA, figB)
		if i == b.N-1 {
			var c1, c2, c3 float64
			for _, e := range figA {
				c1 += e.Total(core.Type1)
				c2 += e.Total(core.Type2)
				c3 += e.Total(core.Type3)
			}
			n := float64(len(figA))
			b.ReportMetric(c1/n, "type1-cycles/RMW")
			b.ReportMetric(c2/n, "type2-cycles/RMW")
			b.ReportMetric(c3/n, "type3-cycles/RMW")
			b.ReportMetric(sum.Type2CostReductionMax, "type2-max-reduction-%")
			b.ReportMetric(sum.Type3CostReductionMax, "type3-max-reduction-%")
		}
	}
}

// BenchmarkFig11bExecutionOverhead regenerates Fig. 11(b): the share of
// execution time spent on RMWs and the end-to-end improvement of the weak
// RMWs.
func BenchmarkFig11bExecutionOverhead(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		runs, err := runTable3(o)
		if err != nil {
			b.Fatal(err)
		}
		figA, figB := experiments.Fig11FromRuns(runs)
		sum := experiments.Summarize(figA, figB)
		if i == b.N-1 {
			var o1 float64
			for _, e := range figB {
				o1 += e.Overhead[core.Type1]
			}
			b.ReportMetric(o1/float64(len(figB)), "type1-overhead-%")
			b.ReportMetric(sum.MaxSpeedupType2, "type2-max-speedup-%")
			b.ReportMetric(sum.MaxSpeedupType3, "type3-max-speedup-%")
		}
	}
}

// BenchmarkFig11Cpp11Variants regenerates the wsq-mst_rr / wsq-mst_wr bars
// of Fig. 11: the C/C++11 SC-atomic read- and write-replacement runs.
func BenchmarkFig11Cpp11Variants(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		runs, err := runCpp11(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, run := range runs {
				_, _, c1 := run.Result(core.Type1).AvgRMWCost()
				_, _, c2 := run.Result(core.Type2).AvgRMWCost()
				name := run.Name
				b.ReportMetric(c1, name+"-type1-cycles/RMW")
				b.ReportMetric(c2, name+"-type2-cycles/RMW")
			}
		}
	}
}

// BenchmarkRunPlanOverhead measures the execution engine's dispatch cost
// around a sweep: a Table 3 plan is run once to warm an in-memory result
// cache, then every iteration re-runs the full plan against it, so each
// unit is a cache hit and the measured time is the shared
// submit → pool → runUnit → reassemble spine with zero simulation
// inside. It shows whether the engine layer stays overhead-free relative
// to calling the simulator directly.
func BenchmarkRunPlanOverhead(b *testing.B) {
	o := benchOptions()
	cache, err := simcache.Open()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(engine.WithCache(cache))
	plan, err := engine.BuildPlan(o, experiments.Table3Specs())
	if err != nil {
		b.Fatal(err)
	}
	warm, err := eng.RunPlan(context.Background(), plan, engine.FullShard())
	if err != nil {
		b.Fatal(err)
	}
	if len(warm.Units) != plan.Len() {
		b.Fatalf("warm run covered %d units, want %d", len(warm.Units), plan.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := eng.RunPlan(context.Background(), plan, engine.FullShard())
		if err != nil {
			b.Fatal(err)
		}
		runs, err := plan.Runs(sr.Units)
		if err != nil {
			b.Fatal(err)
		}
		if len(runs) != 7 {
			b.Fatalf("plan reassembled %d runs, want 7", len(runs))
		}
	}
	b.StopTimer()
	if m := eng.Metrics(); m.CacheMisses != plan.Len() {
		b.Fatalf("%d cache misses after warm-up, want %d (warm run only) — the overhead run simulated",
			m.CacheMisses, plan.Len())
	}
	b.ReportMetric(float64(plan.Len()), "units/op")
}

// BenchmarkRunPlanDiskWarm prices the disk tier the way a warm
// `cmd/experiments -cache-dir` rerun meets it: the Table 3 plan is run
// once into a temp-dir cache, then every iteration opens a fresh cache
// handle over that directory (an empty memory tier, as in a new process)
// and runs the plan and reassembles its runs, so each unit is a disk hit:
// a file read, the entry checks and one decode. Any miss after warm-up
// fails the benchmark, since it would price a simulation instead.
func BenchmarkRunPlanDiskWarm(b *testing.B) {
	o := benchOptions()
	dir := b.TempDir()
	plan, err := engine.BuildPlan(o, experiments.Table3Specs())
	if err != nil {
		b.Fatal(err)
	}
	open := func() *simcache.Cache {
		cache, err := simcache.Open(simcache.WithDir(dir))
		if err != nil {
			b.Fatal(err)
		}
		return cache
	}
	if _, err := engine.New(engine.WithCache(open())).RunPlan(context.Background(), plan, engine.FullShard()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := open()
		sr, err := engine.New(engine.WithCache(cache)).RunPlan(context.Background(), plan, engine.FullShard())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Runs(sr.Units); err != nil {
			b.Fatal(err)
		}
		if st := cache.Stats(); st.Misses != 0 || st.DiskHits != uint64(plan.Len()) {
			b.Fatalf("warm run: %s; want %d disk hits and no miss", st, plan.Len())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(plan.Len()), "units/op")
}

// BenchmarkBuildReport prices the report stage of a sweep: building the
// full report from one quick sweep's runs and encoding it as JSON, as
// every CLI report and every /v1/reports request does. The runs are
// simulated once before the timer starts, and one warm-up report is
// built, so the measured time is the report's own work with no
// simulation and no cache inside.
func BenchmarkBuildReport(b *testing.B) {
	o := benchOptions()
	runs, err := runSpecs(o, append(experiments.Table3Specs(), experiments.Cpp11Specs()...))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	report := func() {
		rep, err := experiments.BuildReport(o, runs)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Table1Matches {
			b.Fatal("Table 1 does not match the paper")
		}
		buf.Reset()
		if err := (experiments.JSONEncoder{}).Encode(&buf, rep); err != nil {
			b.Fatal(err)
		}
	}
	report()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report()
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len()), "report-bytes")
}

// BenchmarkDefaultPlan prices building the paper's sweep plan at 32
// cores (scale 0.2): its sources, unit keys, unit IDs and fingerprint.
// Every warm sweep and every service submit builds one, and no trace
// operation is generated or simulated.
func BenchmarkDefaultPlan(b *testing.B) {
	o := experiments.DefaultOptions()
	o.Scale = 0.2
	b.ReportAllocs()
	var units int
	for i := 0; i < b.N; i++ {
		plan, err := engine.DefaultPlan(o)
		if err != nil {
			b.Fatal(err)
		}
		units = plan.Len()
	}
	b.ReportMetric(float64(units), "units/op")
}

// BenchmarkServeSubmitWarm measures the HTTP service's per-job overhead
// on a warm cache: one submit of a small quick plan populates the
// content-addressed cache, then every iteration re-submits the identical
// spec over HTTP and polls the status endpoint until the job finishes.
// With every unit a cache hit, the measured time is the whole service
// spine — JSON decode, registry admission, engine dispatch, event log,
// status polling — with zero simulation inside, the same contract
// BenchmarkRunPlanOverhead pins for the engine layer below it.
func BenchmarkServeSubmitWarm(b *testing.B) {
	cache, err := simcache.Open()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Cache: cache})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const spec = `{"plan": {"preset": "quick", "cores": 4, "scale": 0.05}}`
	submitWait := func() int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		var sub struct {
			ID    string `json:"id"`
			Units int    `json:"units"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		for {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
			if err != nil {
				b.Fatal(err)
			}
			var st struct {
				State string `json:"state"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			switch st.State {
			case "done":
				return sub.Units
			case "failed":
				b.Fatalf("job %s failed", sub.ID)
			}
		}
	}
	units := submitWait() // warm the cache: the only simulated run
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitWait()
	}
	b.StopTimer()
	if m := srv.Engine().Metrics(); int(m.CacheMisses) != units {
		b.Fatalf("%d cache misses after warm-up, want %d (warm run only) — a warm submit simulated",
			m.CacheMisses, units)
	}
	b.ReportMetric(float64(units), "units/op")
}

// BenchmarkAblationBloomFilterOverhead measures what the addr-list protocol
// itself costs when it is never needed: a single-core workload where no RMW
// can conflict, run with the protocol enabled and disabled. DESIGN.md calls
// this out as the price of deadlock safety.
func BenchmarkAblationBloomFilterOverhead(b *testing.B) {
	profile, err := workload.FindProfile("radiosity")
	if err != nil {
		b.Fatal(err)
	}
	profile.Iterations = 64
	trace, err := workload.Generator{Cores: 1, Seed: 3}.Generate(profile)
	if err != nil {
		b.Fatal(err)
	}
	run := func(disable bool) *sim.Result {
		cfg := sim.DefaultConfig().WithCores(1).WithRMWType(core.Type2)
		cfg.DisableDeadlockAvoidance = disable
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		with := run(false)
		without := run(true)
		if i == b.N-1 {
			_, _, cw := with.AvgRMWCost()
			_, _, cwo := without.AvgRMWCost()
			b.ReportMetric(cw, "with-addrlist-cycles/RMW")
			b.ReportMetric(cwo, "naive-cycles/RMW")
		}
	}
}

// BenchmarkAblationParallelDrain measures the effect of the parallel
// write-buffer drain optimization on the type-1 baseline (the paper adopts
// it from Gharachorloo et al. to strengthen the baseline).
func BenchmarkAblationParallelDrain(b *testing.B) {
	profile, err := workload.FindProfile("bayes")
	if err != nil {
		b.Fatal(err)
	}
	profile.Iterations = 48
	trace, err := workload.Generator{Cores: 8, Seed: 5}.Generate(profile)
	if err != nil {
		b.Fatal(err)
	}
	run := func(parallel bool) *sim.Result {
		cfg := sim.DefaultConfig().WithCores(8).WithRMWType(core.Type1)
		cfg.ParallelDrain = parallel
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for i := 0; i < b.N; i++ {
		par := run(true)
		ser := run(false)
		if i == b.N-1 {
			wbPar, _, _ := par.AvgRMWCost()
			wbSer, _, _ := ser.AvgRMWCost()
			b.ReportMetric(wbPar, "parallel-drain-cycles")
			b.ReportMetric(wbSer, "serial-drain-cycles")
		}
	}
}

// BenchmarkAblationBloomFilterSize sweeps the addr-list filter size and
// reports the revert (false-positive-induced drain) rate at each size,
// justifying the paper's 128-byte choice.
func BenchmarkAblationBloomFilterSize(b *testing.B) {
	profile, err := workload.FindProfile("wsq-mst")
	if err != nil {
		b.Fatal(err)
	}
	profile.Iterations = 64
	trace, err := workload.Generator{Cores: 8, Seed: 9}.Generate(profile)
	if err != nil {
		b.Fatal(err)
	}
	sizes := []int{128, 512, 1024, 4096}
	for i := 0; i < b.N; i++ {
		for _, bits := range sizes {
			cfg := sim.DefaultConfig().WithCores(8).WithRMWType(core.Type2)
			cfg.BloomFilterBits = bits
			s, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(trace)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.RevertPercent(), "revert%-"+itoa(bits)+"bit")
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// enumerate3ThreadProgram builds the 3-thread program used to compare the
// materializing and streaming enumerations: three threads with crossed
// write/RMW/read pairs, giving a candidate set in the thousands so the
// cost of materializing it is visible.
func enumerate3ThreadProgram() *memmodel.Program {
	p := memmodel.NewProgram("enumerate-bench-3t")
	p.AddThread(memmodel.Write(0, 1), memmodel.FetchAdd(1, "a0", 1), memmodel.Read(2, "r0"))
	p.AddThread(memmodel.Write(1, 1), memmodel.FetchAdd(2, "a1", 1), memmodel.Read(0, "r1"))
	p.AddThread(memmodel.Write(2, 1), memmodel.FetchAdd(0, "a2", 1), memmodel.Read(1, "r2"))
	return p
}

// BenchmarkEnumerateMaterialized measures the slice-based Enumerate on the
// 3-thread program: the whole candidate set is allocated and retained
// before a Checker's type-2 validity filter can run.
func BenchmarkEnumerateMaterialized(b *testing.B) {
	p := enumerate3ThreadProgram()
	c := core.NewChecker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cands, err := memmodel.Enumerate(p)
		if err != nil {
			b.Fatal(err)
		}
		valid := 0
		for _, x := range cands {
			if c.Valid(x, core.Type2) {
				valid++
			}
		}
		if valid == 0 {
			b.Fatal("no valid executions")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(cands)), "candidates")
		}
	}
}

// BenchmarkEnumerateStreaming measures the visitor-based EnumerateFunc on
// the same program and filter: candidates are visited one at a time, so
// the candidate set is never materialized. The allocation win over
// BenchmarkEnumerateMaterialized is the figure to track.
func BenchmarkEnumerateStreaming(b *testing.B) {
	p := enumerate3ThreadProgram()
	c := core.NewChecker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		valid, candidates := 0, 0
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			candidates++
			if c.Valid(x, core.Type2) {
				valid++
			}
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
		if valid == 0 {
			b.Fatal("no valid executions")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(candidates), "candidates")
		}
	}
}

// streamBenchProfile is the workload for the streamed-vs-materialized
// trace comparison: a paper-scale-shaped run whose trace is long enough
// that holding it in memory dominates the allocation profile.
func streamBenchProfile(tb testing.TB) (workload.Generator, workload.Profile) {
	profile, err := workload.FindProfile("radiosity")
	if err != nil {
		tb.Fatal(err)
	}
	profile.Iterations = 256
	return workload.Generator{Cores: 8, Seed: 31}, profile
}

// BenchmarkSimMaterializedTrace measures the pre-streaming end-to-end
// path: generate the whole trace into memory, then simulate it. The
// allocations include the O(cores × iterations × ops) trace slices.
func BenchmarkSimMaterializedTrace(b *testing.B) {
	gen, profile := streamBenchProfile(b)
	cfg := sim.DefaultConfig().WithCores(8).WithRMWType(core.Type2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace, err := gen.Generate(profile)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.TotalMemOps()), "trace-memops")
			b.ReportMetric(float64(res.Cycles), "cycles")
		}
	}
}

// BenchmarkSimStreamedTrace measures the same end-to-end run through the
// streaming path: each core pulls its ops from the generator one episode
// at a time, so only the O(episode) refill buffers are ever live. The
// allocation win over BenchmarkSimMaterializedTrace is the figure to
// track; the simulated statistics are identical by construction (asserted
// by pkg/rmwtso's stream tests).
func BenchmarkSimStreamedTrace(b *testing.B) {
	gen, profile := streamBenchProfile(b)
	cfg := sim.DefaultConfig().WithCores(8).WithRMWType(core.Type2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := gen.Source(profile)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.RunSource(src)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.TotalMemOps()), "trace-memops")
			b.ReportMetric(float64(res.Cycles), "cycles")
		}
	}
}

// BenchmarkSimSweepUnit runs one unit of the paper's sweep as the cold
// path runs it: radiosity on 32 cores at scale 0.2 under type-2, its
// streams generated on demand and simulated through RunSource. It is the
// top rung above BenchmarkCalendar, BenchmarkDirectoryAccess,
// BenchmarkWriteBuffer and BenchmarkWorkloadSource.
func BenchmarkSimSweepUnit(b *testing.B) {
	o := experiments.DefaultOptions()
	o.Scale = 0.2
	profile, err := workload.FindProfile("radiosity")
	if err != nil {
		b.Fatal(err)
	}
	profile = o.ScaledProfile(profile)
	gen := workload.Generator{Cores: o.Cores, Seed: o.Seed}
	cfg := o.BaseConfig().WithRMWType(core.Type2)
	b.ReportAllocs()
	var memops uint64
	for i := 0; i < b.N; i++ {
		src, err := gen.Source(profile)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.RunSource(src)
		if err != nil {
			b.Fatal(err)
		}
		memops = res.TotalMemOps()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*memops), "ns/memop")
}

// TestSimStreamedTraceAllocs pins the simulator's allocations on
// BenchmarkSimStreamedTrace's input (radiosity, 8 cores, 256 iterations,
// type-2): at most 0.1 per memory operation, generation included. Events,
// write-buffer entries and parked directory requests are values, so the
// count does not grow with the trace.
func TestSimStreamedTraceAllocs(t *testing.T) {
	gen, profile := streamBenchProfile(t)
	cfg := sim.DefaultConfig().WithCores(8).WithRMWType(core.Type2)
	var memops uint64
	allocs := testing.AllocsPerRun(2, func() {
		src, err := gen.Source(profile)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunSource(src)
		if err != nil {
			t.Fatal(err)
		}
		memops = res.TotalMemOps()
	})
	if memops != 131072 {
		t.Fatalf("the run has %d memops, want 131072: the benchmark input changed", memops)
	}
	if per := allocs / float64(memops); per > 0.1 {
		t.Errorf("%.0f allocations per run, %.3f per memop; want at most 0.1", allocs, per)
	}
}

// iriwReadWriteProgram compiles the IRIW C/C++11 idiom under the
// read-write mapping: every SC access becomes a locked RMW, giving the
// largest candidate space of the C/C++11 registry, 9,216 rf×ws choices,
// which the full walk visits. A verdict walks only 36 of them: 1,296
// satisfy uniproc, and in 36 of those every RMW reads the ws-predecessor
// of its write half.
func iriwReadWriteProgram(b *testing.B) *memmodel.Program {
	p, err := cpp11.Compile(cpp11.SCIRIW(), cpp11.ReadWriteMapping)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkEnumerateParallel measures the rf-partitioned enumeration of
// the IRIW-class program at increasing worker counts against the
// sequential walk ("seq" is the plain visitor API; "workers-1" passes
// EnumWorkers(1), the same sequential walk). Every variant must visit the
// identical number of candidates; the figure of merit is the speedup of
// workers-8 over seq on multi-core hardware (≥2x expected from 8 workers
// on ≥4 cores; on a single-core runner the parallel variants only measure
// the partitioning overhead).
func BenchmarkEnumerateParallel(b *testing.B) {
	p := iriwReadWriteProgram(b)
	want, err := memmodel.CountCandidates(p)
	if err != nil {
		b.Fatal(err)
	}
	count := func(b *testing.B, run func(visit func(*memmodel.Execution) bool) error) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			candidates := 0
			err := run(func(x *memmodel.Execution) bool {
				candidates++
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
			if candidates != want {
				b.Fatalf("visited %d candidates, want %d", candidates, want)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(candidates), "candidates")
			}
		}
	}
	b.Run("seq", func(b *testing.B) {
		count(b, func(visit func(*memmodel.Execution) bool) error {
			return memmodel.EnumerateFunc(p, visit)
		})
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			count(b, func(visit func(*memmodel.Execution) bool) error {
				return memmodel.EnumerateFunc(p, visit, memmodel.EnumWorkers(workers))
			})
		})
	}
}

// BenchmarkEnumerateParallelVerdict measures the same program through a
// whole litmus-style verdict under one type (validity classification
// inside the workers via Test.Check). The verdict walks only the 36
// candidates in which every RMW reads the ws-predecessor of its write
// half, so the time is mostly the walk's set-up, and workers-8 measures
// the fan-out's overhead on a walk that small rather than a speedup.
func BenchmarkEnumerateParallelVerdict(b *testing.B) {
	p := iriwReadWriteProgram(b)
	test := &litmus.Test{
		Name:    "iriw-rw-bench",
		Program: p,
		Cond:    litmus.ExistsCond(litmus.RegTerm(2, "r0", 1)),
	}
	for _, workers := range []int{1, 8} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			var candidates int
			for i := 0; i < b.N; i++ {
				rs, err := test.Check(context.Background(), []core.AtomicityType{core.Type2}, workers)
				if err != nil {
					b.Fatal(err)
				}
				if candidates == 0 {
					candidates = rs[0].Candidates
				} else if rs[0].Candidates != candidates {
					b.Fatalf("candidate count drifted: %d vs %d", rs[0].Candidates, candidates)
				}
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// BenchmarkVerdictGenerated measures whole verdicts on generated
// programs of the shape the benchmark's litmus-check workload draws: the
// first 24 programs of the walk-level differential test (seed 23, at most
// 20,000 candidates each), under every atomicity type, through the
// per-program entry point the engine's litmus jobs use (Test.Check, one
// walk deciding the three types), one worker per walk. It is the rung
// between one large verdict (BenchmarkEnumerateParallelVerdict) and the
// registry suite (BenchmarkLitmusSuite). It reports per op the verdicts'
// candidates (CountCandidates, once per verdict) and the candidates the
// verdicts decide, those that satisfy uniproc and in which every RMW
// reads the ws-predecessor of its write half (once per verdict, though
// one walk assembles them once for all three): 621 per verdict, of the
// 1,626 that satisfy uniproc and 24,828 candidates.
func BenchmarkVerdictGenerated(b *testing.B) {
	programs := memmodeltest.Programs(23, 24, 20_000)
	tests := make([]*litmus.Test, len(programs))
	var candidates, walked int
	for i, p := range programs {
		tests[i] = &litmus.Test{Name: p.Name, Program: p, Cond: litmus.ExistsCond(litmus.MemTerm(p.Addrs()[0], 1))}
		n, err := memmodel.CountCandidates(p)
		if err != nil {
			b.Fatal(err)
		}
		candidates += n
		err = memmodel.EnumerateFunc(p, func(*memmodel.Execution) bool {
			walked++
			return true
		}, memmodel.EnumUniprocAdjacentRMW())
		if err != nil {
			b.Fatal(err)
		}
	}
	types := core.AllTypes()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			if _, err := t.Check(ctx, types, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(candidates*len(types)), "candidates/op")
	b.ReportMetric(float64(walked*len(types)), "walked/op")
}

// BenchmarkLitmusSuite measures the model checker on the full litmus suite,
// one verdict per test and atomicity type, one walk per test.
func BenchmarkLitmusSuite(b *testing.B) {
	tests := litmus.AllTests()
	types := core.AllTypes()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, t := range tests {
			if _, err := t.Check(ctx, types, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMappingValidation measures the exhaustive C/C++11-vs-TSO outcome
// comparison on the SC store-buffering program.
func BenchmarkMappingValidation(b *testing.B) {
	p := cpp11.SCStoreBuffering()
	for i := 0; i < b.N; i++ {
		for _, m := range cpp11.AllMappings() {
			for _, typ := range core.AllTypes() {
				if _, err := cpp11.ValidateMapping(p, m, typ); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
