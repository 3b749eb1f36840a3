package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the workload seed the pinned digests were taken at: the
// reproduction's own default seed.
const defaultSeed = 20130601

// The pinned digests are SHA-256 sums of the sweep's JSON report and of
// litmus-check's verdict set, taken at the default seed and the standard
// run size. A run whose outputs differ fails; only a change meant to
// change those outputs may update them.
const (
	pinnedReportDigest  = "76491aa1a859bc1ba9bd411c536435af370a2422f95467583ef6e77ae697427a"
	pinnedVerdictDigest = "dd8861378df2b60710e445ba8881ede29eecf5a6f01d5544861e312e29a7acdc"
)

// setupReps is how often a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// parts is how many pieces a run splits its fixed work into. Before each
// piece and after the last the run times the reference loop (speed.go);
// a traced run traces every other pair of pieces.
const parts = 8

// portion is how many of total operations piece p of n does; the pieces
// add up to total.
func portion(total, p, n int) int { return total*(p+1)/n - total*p/n }

// size is the fixed amount of work of one run. Every count is fixed
// before the run starts, so a faster build finishes sooner but does the
// same work; a duration-bound run would let a faster server accumulate
// more retained jobs and look worse on memory.
type size struct {
	// Cores and Scale shape the sweep plan: the paper's 32 cores, 26
	// units.
	Cores int
	Scale float64
	// Parallelism is the engine's worker count and the run process's
	// GOMAXPROCS; Clients is serve-mix's closed-loop client count.
	Parallelism int
	Clients     int
	// ColdReps and WarmReps are the sweep repetitions, ServeOps the
	// serve-mix client operations, Programs the generated litmus programs
	// and Passes the litmus-check passes over them.
	ColdReps int
	WarmReps int
	ServeOps int
	Programs int
	Passes   int
	// LadderPrograms and RouteReqs size the trace pass's layer ladder:
	// generated programs for the model-checking rungs, and requests per
	// route for the server rung.
	LadderPrograms int
	RouteReqs      int
	// Pinned marks the sizes the pinned report and verdict digests were
	// taken at.
	Pinned bool
}

// sizeFor sizes a run to take about seconds of measurement on the
// reference machine. The per-second rates are pinned, so a given
// --seconds always means the same work.
//
// The reference machine is a 2-vCPU VM that shares its host, and there
// two busy threads slow each other unpredictably: a warm sweep's
// per-sweep quartile spread was 0.24 at engine parallelism 2 and 0.10 at
// parallelism 1 on one CPU, and its median over 12-second windows moved
// by 0.09 against 0.04. So the engine runs one worker and the run process
// one CPU (runChild). Scale 0.2 keeps a cold sweep near 2.5 s, so a run
// holds several, and a litmus-check pass over 300 programs takes about
// 5 s, so a run compares at least two passes.
func sizeFor(seconds int) size {
	s := float64(seconds)
	return size{
		Cores: 32, Scale: 0.2, Parallelism: 1, Clients: 2,
		ColdReps: atLeast(4, s/2.5),
		WarmReps: atLeast(4, s/0.12),
		ServeOps: atLeast(80, s*300),
		Programs: 300,
		Passes:   atLeast(2, s/5),

		LadderPrograms: 16, RouteReqs: 10,
		Pinned: true,
	}
}

// toySize is a run small enough for unit tests. A traced run needs an
// operation in both its untraced and its traced pieces, so the sweep
// counts are at least 4.
func toySize() size {
	return size{
		Cores: 8, Scale: 0.02, Parallelism: 1, Clients: 2,
		ColdReps: 4, WarmReps: 4, ServeOps: 40, Programs: 8, Passes: 2,
		LadderPrograms: 8, RouteReqs: 2,
	}
}

func atLeast(lo int, x float64) int { return max(lo, int(math.Round(x))) }

// env is what every workload of one run shares.
type env struct {
	seed int64
	size size
	// dir is the run's scratch directory; the caller removes it.
	dir string
}

// outcome is what one measurement produced.
type outcome struct {
	mu sync.Mutex
	// latencies holds the ms of each completed operation by kind: "sweep",
	// "call", or a serve-mix request kind.
	latencies map[string][]float64
	work      float64 // units of work done: memops, plan units, requests or verdicts
	wall      float64 // seconds the measurement took
	attempted int
	failed    int
	errs      []string
	// lookups and hits count the workload cache's lookups and useful hits
	// while measuring (none for a workload without a cache).
	lookups, hits uint64
}

// add folds the operations of p into o.
func (o *outcome) add(p *outcome) {
	if o.latencies == nil {
		o.latencies = map[string][]float64{}
	}
	for k, l := range p.latencies {
		o.latencies[k] = append(o.latencies[k], l...)
	}
	o.work += p.work
	o.wall += p.wall
	o.attempted += p.attempted
	o.failed += p.failed
	for _, e := range p.errs {
		if len(o.errs) < 8 {
			o.errs = append(o.errs, e)
		}
	}
	o.lookups += p.lookups
	o.hits += p.hits
}

// done records one finished operation of the given kind.
func (o *outcome) done(kind string, start time.Time, work float64) {
	d := ms(time.Since(start))
	o.mu.Lock()
	o.attempted++
	if o.latencies == nil {
		o.latencies = map[string][]float64{}
	}
	o.latencies[kind] = append(o.latencies[kind], d)
	o.work += work
	o.mu.Unlock()
}

// scale multiplies every time of o by k.
func (o *outcome) scale(k float64) {
	for _, l := range o.latencies {
		for i := range l {
			l[i] *= k
		}
	}
	o.wall *= k
}

// count returns how many operations completed.
func (o *outcome) count() int {
	n := 0
	for _, l := range o.latencies {
		n += len(l)
	}
	return n
}

// all returns every operation's latency.
func (o *outcome) all() []float64 {
	var xs []float64
	for _, l := range o.latencies {
		xs = append(xs, l...)
	}
	return xs
}

// fail records one failed, refused or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	o.attempted++
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// check records one output check that is not itself an operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.fail(format, args...)
}

// fixture is a workload after set-up: measure runs piece p of the
// workload's fixed work split into parts pieces, and close releases the
// set-up state.
type fixture struct {
	measure func(ctx context.Context, tr *tracer, p int) (*outcome, error)
	close   func()
}

// workload is one named benchmark workload; BENCHMARK.json says why
// each was chosen.
type workload struct {
	name string
	// work names what work_per_s counts.
	work  string
	setup func(ctx context.Context, e *env) (*fixture, error)
	// named are the workload's own metrics, reported beside the
	// end-to-end ones in its record and compared by -compare.
	named []namedMetric
}

// namedMetric is a workload's own reading of an end-to-end metric, such
// as the sweep time or a serve-mix route's latency. -compare judges it
// under the bound and direction of the end-to-end metric it refines.
type namedMetric struct {
	name, unit string
	refines    string
	value      func(o *outcome) sampled
}

var workloads = []workload{
	{
		name:  "sweep-cold",
		work:  "simulated memory operations",
		setup: setupSweepCold,
		named: []namedMetric{
			{"sweep_s", "s", "op_p50_ms", latency("sweep", 0.5, 1e-3)},
			{"sim_memops_per_s", "1/s", "work_per_s", rate},
		},
	},
	{
		name:  "sweep-warm",
		work:  "plan units",
		setup: setupSweepWarm,
		named: []namedMetric{
			{"sweep_s", "s", "op_p50_ms", latency("sweep", 0.5, 1e-3)},
		},
	},
	{
		name:  "serve-mix",
		work:  "client requests",
		setup: setupServeMix,
		named: []namedMetric{
			{"job_p50_ms", "ms", "op_p50_ms", latency(kindJob, 0.5, 1)},
			{"job_p90_ms", "ms", "op_p50_ms", latency(kindJob, 0.9, 1)},
			{"lookup_p50_ms", "ms", "op_p50_ms", latency(kindLookup, 0.5, 1)},
			{"lookup_p90_ms", "ms", "op_p50_ms", latency(kindLookup, 0.9, 1)},
			{"req_per_s", "1/s", "work_per_s", rate},
		},
	},
	{
		name:  "litmus-check",
		work:  "verdicts",
		setup: setupLitmusCheck,
		named: []namedMetric{
			{"verdicts_per_s", "1/s", "work_per_s", rate},
		},
	},
}

// latency reads the p-quantile of one kind's latencies, multiplied by
// unit to change the unit.
func latency(kind string, p, unit float64) func(*outcome) sampled {
	return func(o *outcome) sampled {
		xs := o.latencies[kind]
		return sampled{Value: quantile(xs, p), summary: summarize(xs)}.scaled(unit)
	}
}

// rate is the work done per second of measurement.
func rate(o *outcome) sampled { return single(o.work/o.wall, "") }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure runs one piece of the work and records its wall time.
func measure(ctx context.Context, fx *fixture, tr *tracer, p int) (*outcome, error) {
	t0 := time.Now()
	o, err := fx.measure(ctx, tr, p)
	if err != nil {
		return nil, err
	}
	o.wall = time.Since(t0).Seconds()
	return o, nil
}

// run sets the workload up setupReps times, keeping the last fixture, and
// measures its work in parts pieces. It times the reference loop before
// the first set-up and after every set-up and piece, and scales the times
// of each to the reference speed. An untraced run reports the end-to-end
// and the workload's named metrics. A traced run traces half the pieces,
// runs the layer ladder, and reports the per-layer metrics.
func run(ctx context.Context, w workload, e *env, tr *tracer) (*record, error) {
	rec := &record{Workload: w.name, Seed: e.seed, Traced: tr != nil}
	// refs holds the reference loop's times before the first step and
	// after each step, the steps being the set-ups and then the pieces.
	// stepScale scales the last step by the loop's median around it, which
	// follows drift within the run.
	refs := [][]float64{refSamples()}
	stepScale := func() float64 {
		n := len(refs)
		return refPinnedMS / median(slices.Concat(refs[n-2], refs[n-1]))
	}
	var setupSecs []float64
	var fx *fixture
	defer func() {
		if fx != nil {
			fx.close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		t0 := time.Now()
		f, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0).Seconds()
		fx = f
		refs = append(refs, refSamples())
		setupSecs = append(setupSecs, d*stepScale())
	}

	total := &outcome{}
	// plain and traced hold the scaled time per operation of the untraced
	// and the traced pieces.
	var plain, traced []float64
	for p := 0; p < parts; p++ {
		// The order untraced, traced, traced, untraced repeats, so neither
		// side always runs first on a warmer cache or a larger heap.
		var t *tracer
		if p%4 == 1 || p%4 == 2 {
			t = tr
		}
		o, err := measure(ctx, fx, t, p)
		if err != nil {
			return nil, err
		}
		refs = append(refs, refSamples())
		o.scale(stepScale())
		total.add(o)
		if n := o.count(); n > 0 && t == nil {
			plain = append(plain, o.wall/float64(n))
		} else if n > 0 {
			traced = append(traced, o.wall/float64(n))
		}
	}
	all := slices.Concat(refs...)
	rec.RefMS = sampled{Value: median(all), Unit: "ms", summary: summarize(all)}
	rec.Scale = refPinnedMS / rec.RefMS.Value

	outs := []*outcome{total}
	if tr == nil {
		rec.Metrics = endToEnd(sampled{Value: median(setupSecs), Unit: "s", summary: summarize(setupSecs)}, total)
		rec.Named = map[string]sampled{}
		for _, n := range w.named {
			s := n.value(total)
			s.Unit = n.unit
			rec.Named[n.name] = s
		}
	} else {
		lad := &outcome{}
		layers, err := ladder(ctx, e, tr, lad)
		if err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		outs = append(outs, lad)
		layers["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100
		layers["simcache.hit_ratio"] = 0
		if total.lookups > 0 {
			layers["simcache.hit_ratio"] = float64(total.hits) / float64(total.lookups)
		}
		rec.Metrics = map[string]sampled{}
		for _, m := range perLayerMetrics {
			v, ok := layers[m.Name]
			if !ok {
				return nil, fmt.Errorf("layer ladder did not measure %s", m.Name)
			}
			rec.Metrics[m.Name] = single(v, m.Unit)
		}
	}
	for _, o := range outs {
		rec.Attempted += o.attempted
		rec.Failed += o.failed
		rec.Errors = append(rec.Errors, o.errs...)
	}
	// A metric without samples (every operation behind it failed) is
	// reported as 0 and fails the run.
	for _, ms := range []map[string]sampled{rec.Metrics, rec.Named} {
		for name, m := range ms {
			if !finite(m.Value, m.Median, m.Q1, m.Q3) {
				ms[name] = sampled{Unit: m.Unit}
				rec.Attempted++
				rec.Failed++
				rec.Errors = append(rec.Errors, name+" has no valid samples")
			}
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	return rec, nil
}

// endToEndMetrics are the metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEndMetrics = []metricSpec{
	{Name: "setup_s", Unit: "s"},
	{Name: "op_p50_ms", Unit: "ms"},
	{Name: "work_per_s", Unit: "1/s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

// endToEnd computes the end-to-end metrics from the set-up time and the
// run's operations.
func endToEnd(setup sampled, o *outcome) map[string]sampled {
	lat := summarize(o.all())
	return map[string]sampled{
		"setup_s":     setup,
		"op_p50_ms":   {Value: lat.Median, Unit: "ms", summary: lat},
		"work_per_s":  single(o.work/o.wall, "1/s"),
		"peak_rss_mb": single(peakRSSMB(), "MB"),
	}
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// scaled returns s with its value and quartiles multiplied by k.
func (s sampled) scaled(k float64) sampled {
	s.Value, s.Median, s.Q1, s.Q3 = s.Value*k, s.Median*k, s.Q1*k, s.Q3*k
	return s
}

// single is a metric measured once per run.
func single(v float64, unit string) sampled {
	return sampled{Value: v, Unit: unit, summary: summary{Median: v, Q1: v, Q3: v, N: 1}}
}

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
