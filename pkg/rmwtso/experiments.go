package rmwtso

import (
	"repro/internal/experiments"
)

// Options configure an experiment run: core count, workload scale, seed
// and architectural overrides.
type Options = experiments.Options

// DefaultOptions reproduce the paper's setup (32 cores, full workloads).
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions shrink the runs for tests and benchmarks (8 cores, short
// workloads, same structure).
func QuickOptions() Options { return experiments.QuickOptions() }

// BenchmarkRun holds the per-type simulation results for one benchmark,
// the unit of data behind Table 3 and Fig. 11.
type BenchmarkRun = experiments.BenchmarkRun

// Rows and entries of the paper's tables and figures.
type (
	// Table1Row is one row of Table 1 (idiom support per atomicity type).
	Table1Row = experiments.Table1Row
	// Table3Row is one row of Table 3 (benchmark characteristics).
	Table3Row = experiments.Table3Row
	// Table4Row is one row of Table 4 (mapping soundness).
	Table4Row = experiments.Table4Row
	// Fig11aEntry is one benchmark's per-RMW cost split (Fig. 11a).
	Fig11aEntry = experiments.Fig11aEntry
	// Fig11bEntry is one benchmark's execution-time overhead (Fig. 11b).
	Fig11bEntry = experiments.Fig11bEntry
	// Summary is the headline summary of the evaluation.
	Summary = experiments.Summary
)

// RunTable1 regenerates Table 1 by model checking the paper's litmus
// tests and validating the C/C++11 mappings.
func RunTable1() ([]Table1Row, error) { return experiments.RunTable1() }

// RunTable1Opts is RunTable1 honouring the options' EnumWorkers: each
// verdict's candidate enumeration is fanned across that many goroutines
// (0 picks the per-program candidate-count heuristic).
func RunTable1Opts(o Options) ([]Table1Row, error) { return experiments.RunTable1Opts(o) }

// CheckTable1Matches verifies the regenerated Table 1 against the paper.
func CheckTable1Matches(rows []Table1Row) error { return experiments.CheckTable1Matches(rows) }

// RenderTable1 renders Table 1 rows in the paper's layout.
func RenderTable1(rows []Table1Row) string { return experiments.RenderTable1(rows) }

// RenderTable2 renders the architectural parameters (Table 2).
func RenderTable2(cfg SimConfig) string { return experiments.RenderTable2(cfg) }

// Table3FromRuns derives the Table 3 rows from benchmark runs.
func Table3FromRuns(runs []*BenchmarkRun) []Table3Row { return experiments.Table3FromRuns(runs) }

// RenderTable3 renders Table 3 rows in the paper's layout.
func RenderTable3(rows []Table3Row) string { return experiments.RenderTable3(rows) }

// RunTable4 regenerates the Table 4 mapping-soundness matrix.
func RunTable4() ([]Table4Row, error) { return experiments.RunTable4() }

// RunTable4Opts is RunTable4 honouring the options' EnumWorkers, like
// RunTable1Opts.
func RunTable4Opts(o Options) ([]Table4Row, error) { return experiments.RunTable4Opts(o) }

// RenderTable4 renders Table 4 rows in the paper's layout.
func RenderTable4(rows []Table4Row) string { return experiments.RenderTable4(rows) }

// Fig11FromRuns derives the Fig. 11(a) and (b) entries from benchmark
// runs.
func Fig11FromRuns(runs []*BenchmarkRun) ([]Fig11aEntry, []Fig11bEntry) {
	return experiments.Fig11FromRuns(runs)
}

// RenderFig11a renders the per-RMW cost split chart.
func RenderFig11a(entries []Fig11aEntry) string { return experiments.RenderFig11a(entries) }

// RenderFig11b renders the execution-time overhead chart.
func RenderFig11b(entries []Fig11bEntry) string { return experiments.RenderFig11b(entries) }

// Summarize derives the headline summary from the figure entries.
func Summarize(a []Fig11aEntry, b []Fig11bEntry) Summary { return experiments.Summarize(a, b) }

// BenchmarkSpec describes one benchmark of a sweep: the profile, its
// replacement variant, and the atomicity types it runs under.
type BenchmarkSpec = experiments.BenchmarkSpec

// Table3Specs lists the seven Table 3 benchmarks, each under all three
// RMW types.
func Table3Specs() []BenchmarkSpec { return experiments.Table3Specs() }

// Cpp11Specs lists the wsq-mst C/C++11 replacement variants and the RMW
// types that are sound for them.
func Cpp11Specs() []BenchmarkSpec { return experiments.Cpp11Specs() }

// RunBenchmarks simulates every (spec, type) pair across the worker pool,
// streaming each finished run to the observer. A spec's types are
// intersected with the Runner's configured types (WithRMWTypes); specs
// left with no types are dropped.
//
// It is a thin wrapper over the plan pipeline: the (spec, type) grid is
// enumerated into a Plan of content-addressed units, executed unsharded
// with RunPlan (each unit's trace streamed lazily, the Runner's or
// options' result cache consulted per unit and hits streamed flagged
// CacheHit) and reassembled
// with Plan.Runs — so an in-process sweep and a sharded fleet run through
// one code path and produce identical results. Results come back in spec
// order with one ByType entry per simulated type.
func (r *Runner) RunBenchmarks(o Options, specs []BenchmarkSpec) ([]*BenchmarkRun, error) {
	return r.eng.RunBenchmarks(o, specs)
}

// RunBenchmarksSeeds is RunBenchmarks over an explicit workload seed
// list: the full (spec, type) grid is rerun under every seed in one
// plan, yielding one BenchmarkRun per (spec, seed) pair. Reports built
// from multi-seed runs gain the cross-seed mean/CI section (SeedStats).
func (r *Runner) RunBenchmarksSeeds(o Options, specs []BenchmarkSpec, seeds ...int64) ([]*BenchmarkRun, error) {
	return r.eng.RunBenchmarksSeeds(o, specs, seeds...)
}

// SeedAggregate is the cross-seed mean/CI statistics of one (benchmark,
// RMW type) cell of a multi-seed sweep.
type SeedAggregate = experiments.SeedAggregate

// AggregateSeeds derives the cross-seed statistics from benchmark runs;
// it returns nil for single-seed sweeps.
func AggregateSeeds(runs []*BenchmarkRun) []SeedAggregate { return experiments.AggregateSeeds(runs) }

// RenderSeedAggregates renders the cross-seed statistics table.
func RenderSeedAggregates(aggs []SeedAggregate) string {
	return experiments.RenderSeedAggregates(aggs)
}

// RunTable3Benchmarks simulates the Table 3 benchmark set across the
// worker pool. The result feeds Table 3 and Fig. 11(a)/(b); note the
// table and figure renderers expect all three types, so restrict
// WithRMWTypes only for ad-hoc sweeps.
func (r *Runner) RunTable3Benchmarks(o Options) ([]*BenchmarkRun, error) {
	return r.RunBenchmarks(o, Table3Specs())
}

// RunCpp11Benchmarks simulates the wsq-mst C/C++11 variants of
// Cpp11Specs across the pool.
func (r *Runner) RunCpp11Benchmarks(o Options) ([]*BenchmarkRun, error) {
	return r.RunBenchmarks(o, Cpp11Specs())
}
