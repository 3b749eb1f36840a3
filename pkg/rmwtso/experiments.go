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

// CheckTable1Matches verifies the regenerated Table 1 against the paper.
func CheckTable1Matches(rows []Table1Row) error { return experiments.CheckTable1Matches(rows) }

// RenderTable1 renders Table 1 rows in the paper's layout.
func RenderTable1(rows []Table1Row) string { return experiments.RenderTable1(rows) }

// RenderTable2 renders the architectural parameters (Table 2).
func RenderTable2(cfg SimConfig) string { return experiments.RenderTable2(cfg) }

// RenderTable3 renders Table 3 rows in the paper's layout.
func RenderTable3(rows []Table3Row) string { return experiments.RenderTable3(rows) }

// RenderTable4 renders Table 4 rows in the paper's layout.
func RenderTable4(rows []Table4Row) string { return experiments.RenderTable4(rows) }

// RenderFig11a renders the per-RMW cost split chart.
func RenderFig11a(entries []Fig11aEntry) string { return experiments.RenderFig11a(entries) }

// RenderFig11b renders the execution-time overhead chart.
func RenderFig11b(entries []Fig11bEntry) string { return experiments.RenderFig11b(entries) }

// BenchmarkSpec describes one benchmark of a sweep: the profile, its
// replacement variant, and the atomicity types it runs under.
type BenchmarkSpec = experiments.BenchmarkSpec

// SeedAggregate is the cross-seed mean/CI statistics of one (benchmark,
// RMW type) cell of a multi-seed sweep.
type SeedAggregate = experiments.SeedAggregate

// RenderSeedAggregates renders the cross-seed statistics table.
func RenderSeedAggregates(aggs []SeedAggregate) string {
	return experiments.RenderSeedAggregates(aggs)
}
