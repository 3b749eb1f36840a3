package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/pkg/rmwtso"
)

// The layer ladder is the traced pass's second half: direct calls into
// one layer at a time, on the run's own inputs (the sweep plan and the
// generated litmus programs of its seed), each timed by the benchmark.
// Every rung runs on every workload, so each per-layer metric is a fresh
// measurement in every traced run.

// perLayerMetrics are the metrics every traced run reports, in
// BENCHMARK.json order.
var perLayerMetrics = []metricSpec{
	{Name: "workload.gen_ns_per_op", Unit: "ns"},
	{Name: "workload.ops", Unit: "count"},
	{Name: "sim.self_ns_per_memop", Unit: "ns"},
	{Name: "sim.allocs_per_memop", Unit: "allocs/memop"},
	{Name: "sim.bytes_per_memop", Unit: "B/memop"},
	{Name: "sim.slowest_unit_s", Unit: "s"},
	{Name: "sim.memops", Unit: "count"},
	{Name: "sim.cycles", Unit: "count"},
	{Name: "simcache.put_ms", Unit: "ms"},
	{Name: "simcache.disk_hit_ms", Unit: "ms"},
	{Name: "simcache.mem_hit_ms", Unit: "ms"},
	{Name: "simcache.entry_bytes", Unit: "B"},
	{Name: "simcache.hit_ratio", Unit: "ratio"},
	{Name: "engine.runplan_s", Unit: "s"},
	{Name: "engine.self_ms", Unit: "ms"},
	{Name: "engine.units_per_s", Unit: "1/s"},
	{Name: "engine.litmus_job_ms", Unit: "ms"},
	{Name: "coordinator.job_ms", Unit: "ms"},
	{Name: "coordinator.retries", Unit: "count"},
	{Name: "coordinator.expiries", Unit: "count"},
	{Name: "experiments.build_report_ms", Unit: "ms"},
	{Name: "experiments.encode_json_ms", Unit: "ms"},
	{Name: "experiments.encode_ascii_ms", Unit: "ms"},
	{Name: "experiments.encode_csv_ms", Unit: "ms"},
	{Name: "experiments.report_bytes", Unit: "B"},
	{Name: "memmodel.enum_ns_per_candidate", Unit: "ns"},
	{Name: "memmodel.allocs_per_candidate", Unit: "allocs/cand"},
	{Name: "memmodel.candidates", Unit: "count"},
	{Name: "core.check_ns_per_candidate", Unit: "ns"},
	{Name: "litmus.parse_us", Unit: "us"},
	{Name: "litmus.verdicts", Unit: "count"},
	{Name: "cpp11.validate_ms", Unit: "ms"},
	{Name: "server.submit_ms", Unit: "ms"},
	{Name: "server.status_ms", Unit: "ms"},
	{Name: "server.report_ms", Unit: "ms"},
	{Name: "server.static_job_ms", Unit: "ms"},
	{Name: "server.job_wait_ms", Unit: "ms"},
	{Name: "server.result_by_key_ms", Unit: "ms"},
	{Name: "server.result_by_unit_ms", Unit: "ms"},
	{Name: "server.events_ms", Unit: "ms"},
	{Name: "server.metrics_ms", Unit: "ms"},
	{Name: "server.rejected", Unit: "count"},
	{Name: "trace.overhead_pct", Unit: "%"},
}

// rungReps is how often the ladder repeats its cheap rungs before taking
// the median.
const rungReps = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs f inside a span and returns how long it took.
func timed(tr *tracer, parent *active, req int64, name string, f func() error) (time.Duration, error) {
	sp := tr.start(name, parent, req)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.end()
	return d, err
}

// allocs reports the heap allocation counters: objects and bytes.
func allocs() (objects, bytes float64) {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Mallocs), float64(st.TotalAlloc)
}

// ladder runs every rung and returns the per-layer metrics it measures:
// all of them except trace.overhead_pct and simcache.hit_ratio, which come
// from the workload's own traced run. Wrong outputs are recorded in o.
func ladder(ctx context.Context, e *env, tr *tracer, o *outcome) (map[string]float64, error) {
	root := tr.start("ladder", nil, 0)
	defer root.end()
	m := map[string]float64{}
	opts := sweepOptions(e.seed, e.size)
	plan, err := rmwtso.DefaultPlan(opts)
	if err != nil {
		return nil, err
	}
	results, err := simRung(tr, root, opts, plan.Units(), m)
	if err != nil {
		return nil, err
	}
	dir, err := cacheRung(e, tr, root, plan.Units(), results, m, o)
	if err != nil {
		return nil, err
	}
	shard, err := engineRung(ctx, e, tr, root, plan, dir, m, o)
	if err != nil {
		return nil, err
	}
	if err := reportRung(tr, root, opts, plan, shard, m); err != nil {
		return nil, err
	}
	if err := litmusRung(ctx, e, tr, root, m, o); err != nil {
		return nil, err
	}
	if err := serverRung(ctx, e, tr, plan.Units(), results, m, o); err != nil {
		return nil, err
	}
	return m, nil
}

// unitSource rebuilds the workload source a plan unit simulates.
func unitSource(opts rmwtso.Options, u rmwtso.Unit) (rmwtso.TraceSource, error) {
	p, err := rmwtso.FindProfile(u.Benchmark)
	if err != nil {
		return nil, err
	}
	gen := rmwtso.Generator{Cores: opts.BaseConfig().Cores, Seed: u.Seed, Replacement: u.Variant}
	return gen.Source(opts.ScaledProfile(p))
}

// drain pulls every operation out of a fresh copy of each core's stream.
func drain(src rmwtso.TraceSource) float64 {
	n := 0
	for c := 0; c < src.Cores(); c++ {
		s := src.Stream(c)
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			n++
		}
	}
	return float64(n)
}

// simRung drains and then simulates each plan unit's source, one unit at
// a time. The simulator pulls the same operations the drain does, so the
// drain's time and allocations are subtracted to leave the simulator's
// own.
func simRung(tr *tracer, root *active, opts rmwtso.Options, units []rmwtso.Unit, m map[string]float64) ([]*rmwtso.SimResult, error) {
	base := opts.BaseConfig()
	results := make([]*rmwtso.SimResult, len(units))
	var ops, drainNS, simNS, memops, cycles, slowest float64
	var drainObjs, drainBytes, simObjs, simBytes float64
	for i, u := range units {
		src, err := unitSource(opts, u)
		if err != nil {
			return nil, err
		}
		cfg := base.WithRMWType(u.Type)
		if rmwtso.SimCacheKey(cfg, src, u.Seed, opts.Scale).Digest() != u.Key.Digest() {
			return nil, fmt.Errorf("unit %s: the rebuilt source is not the plan's", u.ID)
		}
		req := int64(i + 1)
		o0, b0 := allocs()
		var n float64
		d, _ := timed(tr, root, req, "workload.drain", func() error { n = drain(src); return nil })
		o1, b1 := allocs()
		var res *rmwtso.SimResult
		s, err := timed(tr, root, req, "sim.simulate_source", func() (err error) {
			res, err = rmwtso.SimulateSource(cfg, src)
			return err
		})
		o2, b2 := allocs()
		if err != nil {
			return nil, err
		}
		if res.Deadlocked {
			return nil, fmt.Errorf("unit %s deadlocked", u.ID)
		}
		results[i] = res
		ops += n
		drainNS += float64(d)
		simNS += float64(s)
		memops += float64(res.TotalMemOps())
		cycles += float64(res.Cycles)
		slowest = max(slowest, s.Seconds())
		drainObjs += o1 - o0
		drainBytes += b1 - b0
		simObjs += o2 - o1
		simBytes += b2 - b1
	}
	m["workload.gen_ns_per_op"] = drainNS / ops
	m["workload.ops"] = ops
	m["sim.self_ns_per_memop"] = (simNS - drainNS) / memops
	m["sim.allocs_per_memop"] = (simObjs - drainObjs) / memops
	m["sim.bytes_per_memop"] = (simBytes - drainBytes) / memops
	m["sim.slowest_unit_s"] = slowest
	m["sim.memops"] = memops
	m["sim.cycles"] = cycles
	return results, nil
}

// cacheRung stores every result in a fresh disk cache, then reads each
// back through a new handle twice: once from disk, once from memory. It
// returns the cache directory.
func cacheRung(e *env, tr *tracer, root *active, units []rmwtso.Unit, results []*rmwtso.SimResult, m map[string]float64, o *outcome) (string, error) {
	dir, err := freshDir(e, "ladder-cache")
	if err != nil {
		return "", err
	}
	disk, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
	if err != nil {
		return "", err
	}
	var puts []float64
	for i, u := range units {
		d, err := timed(tr, root, int64(i+1), "simcache.put", func() error { return disk.PutSim(u.Key, results[i]) })
		if err != nil {
			return "", err
		}
		puts = append(puts, ms(d))
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var total int64
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			return "", err
		}
		total += info.Size()
	}
	fresh, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
	if err != nil {
		return "", err
	}
	getAll := func(name string) []float64 {
		times := make([]float64, len(units))
		got := make([]*rmwtso.SimResult, len(units)) // held like a sweep holds its results
		for i, u := range units {
			var ok bool
			d, _ := timed(tr, root, int64(i+1), name, func() error { got[i], ok = fresh.GetSim(u.Key); return nil })
			times[i] = ms(d)
			o.check(ok && got[i].Cycles == results[i].Cycles, "%s of unit %s: hit %v", name, u.ID, ok)
		}
		return times
	}
	// The new handle starts with an empty memory tier; the disk hits
	// promote every entry into it.
	diskHits := getAll("simcache.disk_hit")
	memHits := getAll("simcache.mem_hit")
	st := fresh.Stats()
	o.check(st.DiskHits == uint64(len(units)) && st.MemoryHits == uint64(len(units)),
		"cache rung: %d disk and %d memory hits for %d units", st.DiskHits, st.MemoryHits, len(units))
	m["simcache.put_ms"] = median(puts)
	m["simcache.disk_hit_ms"] = median(diskHits)
	m["simcache.mem_hit_ms"] = median(memHits)
	m["simcache.entry_bytes"] = float64(total) / float64(len(files))
	return dir, nil
}

// engineRung runs the plan through RunPlan over the warm disk cache at
// parallelism 1, where the units run one after another, so RunPlan's time
// minus the time the same units' disk hits take on their own is the
// engine's dispatch cost; the two are measured alternately and their
// medians subtracted. It also times a litmus job of the whole registry.
func engineRung(ctx context.Context, e *env, tr *tracer, root *active, plan *rmwtso.Plan, dir string, m map[string]float64, o *outcome) (*rmwtso.ShardResult, error) {
	var sr *rmwtso.ShardResult
	var serial, hits []float64
	for i := 0; i < rungReps; i++ {
		fresh, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
		if err != nil {
			return nil, err
		}
		// The results are held until the round ends, as RunPlan holds them,
		// so both sides pay the same garbage collection.
		var total time.Duration
		got := make([]*rmwtso.SimResult, plan.Len())
		for j, u := range plan.Units() {
			d, _ := timed(tr, root, int64(i+1), "simcache.disk_hit", func() error { got[j], _ = fresh.GetSim(u.Key); return nil })
			total += d
		}
		hits = append(hits, ms(total))

		cache, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
		if err != nil {
			return nil, err
		}
		r := rmwtso.NewRunner(rmwtso.WithParallelism(1), rmwtso.WithCache(cache))
		d, err := timed(tr, root, int64(i+1), "engine.runplan", func() (err error) {
			sr, err = r.RunPlan(ctx, plan, rmwtso.FullShard())
			return err
		})
		if err != nil {
			return nil, err
		}
		serial = append(serial, ms(d))
		n := 0
		for _, u := range sr.Units {
			if u.CacheHit {
				n++
			}
		}
		o.check(n == plan.Len(), "engine rung: %d of %d units were cache hits", n, plan.Len())
	}
	m["engine.runplan_s"] = median(serial) / 1000
	m["engine.units_per_s"] = float64(plan.Len()) / m["engine.runplan_s"]
	m["engine.self_ms"] = median(serial) - median(hits)

	r := rmwtso.NewRunner(rmwtso.WithParallelism(e.size.Parallelism))
	tests := rmwtso.Suite().Tests()
	var jobs []float64
	for i := 0; i < rungReps; i++ {
		d, err := timed(tr, root, int64(i+1), "engine.litmus_job", func() error {
			h, err := r.Submit(ctx, rmwtso.Job{Litmus: &rmwtso.LitmusGrid{Tests: tests}})
			if err != nil {
				return err
			}
			_, err = h.Wait()
			return err
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, ms(d))
	}
	m["engine.litmus_job_ms"] = median(jobs)
	return sr, nil
}

// reportRung builds the report from the plan's runs and encodes it in
// each format.
func reportRung(tr *tracer, root *active, opts rmwtso.Options, plan *rmwtso.Plan, sr *rmwtso.ShardResult, m map[string]float64) error {
	runs, err := plan.Runs(sr.Units)
	if err != nil {
		return err
	}
	var rep *rmwtso.Report
	var builds []float64
	for i := 0; i < rungReps; i++ {
		d, err := timed(tr, root, int64(i+1), "experiments.build_report", func() (err error) {
			rep, err = rmwtso.BuildReport(opts, runs)
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, ms(d))
	}
	m["experiments.build_report_ms"] = median(builds)
	for _, format := range rmwtso.ReportFormats() {
		var encodes []float64
		var buf bytes.Buffer
		for i := 0; i < rungReps; i++ {
			buf.Reset()
			d, err := timed(tr, root, int64(i+1), "experiments.encode_"+format, func() error {
				return rmwtso.EncodeReport(&buf, rep, format)
			})
			if err != nil {
				return err
			}
			encodes = append(encodes, ms(d))
		}
		m["experiments.encode_"+format+"_ms"] = median(encodes)
		if format == rmwtso.FormatJSON {
			m["experiments.report_bytes"] = float64(buf.Len())
		}
	}
	return nil
}

// litmusRung parses the generated programs, enumerates their candidates
// and checks their verdicts one at a time on one goroutine, so the
// verdict time minus one enumeration per atomicity type is the checker's.
// It also times the C++11 mapping validation.
func litmusRung(ctx context.Context, e *env, tr *tracer, root *active, m map[string]float64, o *outcome) error {
	srcs, err := generateLitmus(e.seed, e.size.LadderPrograms)
	if err != nil {
		return err
	}
	var parses []float64
	tests := make([]*rmwtso.Test, len(srcs))
	for i, src := range srcs {
		d, err := timed(tr, root, int64(i+1), "litmus.parse", func() (err error) {
			tests[i], err = rmwtso.ParseTest(src)
			return err
		})
		if err != nil {
			return err
		}
		parses = append(parses, float64(d)/float64(time.Microsecond))
	}
	m["litmus.parse_us"] = median(parses)

	r := rmwtso.NewRunner(rmwtso.WithContext(ctx), rmwtso.WithParallelism(1), rmwtso.WithEnumWorkers(1))
	types := float64(len(r.Types()))
	var cands, enumNS, enumObjs, verdictNS, verdicts float64
	for i, t := range tests {
		n := 0
		o0, _ := allocs()
		d, err := timed(tr, root, int64(i+1), "memmodel.enumerate", func() error {
			return rmwtso.EnumerateExecutionsFunc(t.Program, func(*rmwtso.Execution) bool { n++; return true })
		})
		o1, _ := allocs()
		if err != nil {
			return err
		}
		cands += float64(n)
		enumNS += float64(d)
		enumObjs += o1 - o0
		var res []rmwtso.TestResult
		d, err = timed(tr, root, int64(i+1), "core.verdicts", func() (err error) {
			res, err = r.CheckTests(t)
			return err
		})
		if err != nil {
			return err
		}
		verdictNS += float64(d)
		verdicts += float64(len(res))
		for _, v := range res {
			o.check(v.Candidates == n, "%s under %s: %d candidates, enumeration visited %d", t.Name, v.Atomicity, v.Candidates, n)
		}
	}
	m["memmodel.enum_ns_per_candidate"] = enumNS / cands
	m["memmodel.allocs_per_candidate"] = enumObjs / cands
	m["memmodel.candidates"] = cands
	m["core.check_ns_per_candidate"] = (verdictNS - types*enumNS) / (types * cands)
	m["litmus.verdicts"] = verdicts

	progs := rmwtso.Cpp11ValidationSuite().Programs()
	var validations []float64
	for i := 0; i < rungReps; i++ {
		d, err := timed(tr, root, int64(i+1), "cpp11.validate", func() error {
			_, err := r.ValidateMappings(progs...)
			return err
		})
		if err != nil {
			return err
		}
		validations = append(validations, ms(d))
	}
	m["cpp11.validate_ms"] = median(validations)
	return nil
}

// serverRequestBase offsets the server rung's request IDs, so its client
// spans can be told apart from the workload's.
const serverRequestBase = 1 << 40

// serverRung runs serve-mix's set-up on a server whose cache already
// holds the plan's results, then sends RouteReqs requests of each kind one
// at a time through serve-mix's checked operations: static and
// coordinate-mode small jobs (submit, follow the event stream to done,
// status, JSON report), by-key and by-unit lookups, SSE replays and
// /metrics. Route times are the client spans' durations; the follow
// span is the time a job kept its client waiting. A failed or refused
// request counts as rejected.
func serverRung(ctx context.Context, e *env, tr *tracer, units []rmwtso.Unit, results []*rmwtso.SimResult, m map[string]float64, o *outcome) error {
	cache, err := rmwtso.OpenCache()
	if err != nil {
		return err
	}
	for i, u := range units {
		if err := cache.PutSim(u.Key, results[i]); err != nil {
			return err
		}
	}
	f, err := newMixFixture(ctx, e, cache)
	if err != nil {
		return err
	}
	defer f.svc.stop()
	c := newClient(f.svc.url)
	defer c.close()
	rng := rand.New(rand.NewSource(e.seed))
	failed := o.failed
	req := int64(serverRequestBase)
	for i := 0; i < e.size.RouteReqs; i++ {
		for _, op := range []opKind{opJobStatic, opJobCoord, opByKey, opByUnit, opEvents, opMetrics} {
			req++
			f.do(ctx, c, tr, req, op, rng, nil, o)
		}
	}

	spans := map[string][]float64{}
	for _, s := range tr.snapshot() {
		if s.Request > serverRequestBase {
			spans[s.Name] = append(spans[s.Name], ms(s.dur()))
		}
	}
	for _, route := range []string{"submit", "status", "report", "result_by_key", "result_by_unit", "events", "metrics"} {
		m["server."+route+"_ms"] = median(spans["server."+route])
	}
	static, coord := spans["serve.job.static"], spans["serve.job.coordinate"]
	m["server.static_job_ms"] = median(static)
	m["coordinator.job_ms"] = median(coord)
	m["server.job_wait_ms"] = median(spans["server.follow"])
	m["server.rejected"] = float64(o.failed - failed)
	em := f.svc.srv.Engine().Metrics()
	m["coordinator.retries"] = float64(em.Retries)
	m["coordinator.expiries"] = float64(em.Expired)
	return nil
}
