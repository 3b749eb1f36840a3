package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SeedAggregate is the cross-seed statistics of one (benchmark, RMW type)
// cell of a multi-seed sweep: the mean and 95% confidence half-width of
// the per-RMW cost, the RMW execution-time overhead and the total cycle
// count across the seeds. Single-seed sweeps have no aggregates — one
// measurement carries no spread information.
type SeedAggregate struct {
	// Benchmark is the run name ("bayes", "wsq-mst_rr", ...), which embeds
	// the replacement variant; Type is the RMW atomicity type of the cell.
	Benchmark string             `json:"benchmark"`
	Type      core.AtomicityType `json:"type"`
	// Seeds lists the workload seeds aggregated over, in sweep order.
	Seeds []int64 `json:"seeds"`
	// MeanRMWCost and CI95RMWCost are the mean total per-RMW cost (cycles)
	// and its 95% confidence half-width across the seeds.
	MeanRMWCost float64 `json:"mean_rmw_cost"`
	CI95RMWCost float64 `json:"ci95_rmw_cost"`
	// MeanOverheadPct and CI95OverheadPct aggregate the share of execution
	// time spent on RMWs (the Fig. 11(b) metric).
	MeanOverheadPct float64 `json:"mean_overhead_pct"`
	CI95OverheadPct float64 `json:"ci95_overhead_pct"`
	// MeanCycles and CI95Cycles aggregate the total execution time.
	MeanCycles float64 `json:"mean_cycles"`
	CI95Cycles float64 `json:"ci95_cycles"`
}

// AggregateSeeds derives the cross-seed statistics from benchmark runs:
// runs are grouped by (name, variant) — the name embeds the variant, and
// BenchmarkRun.Seed disambiguates reruns of the same grid cell — and each
// group with at least two distinct seeds contributes one aggregate per
// RMW type it ran under with two or more seeds. A group measured under a
// single seed is dropped before any statistic is computed: the result is
// nil (not empty) for a fully single-seed sweep, so the report section is
// omitted rather than rendered hollow.
func AggregateSeeds(runs []*BenchmarkRun) []SeedAggregate {
	type groupKey struct {
		name    string
		variant workload.Replacement
	}
	var order []groupKey
	groups := map[groupKey][]*BenchmarkRun{}
	for _, run := range runs {
		k := groupKey{run.Name, run.Variant}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], run)
	}
	var out []SeedAggregate
	for _, k := range order {
		if g := groups[k]; multiSeed(g) {
			out = appendGroupAggregates(out, k.name, g)
		}
	}
	return out
}

// multiSeed reports whether runs carry more than one distinct seed.
func multiSeed(runs []*BenchmarkRun) bool {
	return slices.ContainsFunc(runs, func(r *BenchmarkRun) bool { return r.Seed != runs[0].Seed })
}

// appendGroupAggregates appends the aggregates of one group's runs: one
// per RMW type that ran under two or more distinct seeds, in the order
// the group's runs first ran the types.
func appendGroupAggregates(out []SeedAggregate, name string, runs []*BenchmarkRun) []SeedAggregate {
	type cell struct {
		seeds    []int64
		cost     []float64
		overhead []float64
		cycles   []float64
	}
	var types []core.AtomicityType
	cells := map[core.AtomicityType]*cell{}
	for _, run := range runs {
		for _, typ := range core.AllTypes() {
			res := run.ByType[typ]
			if res == nil {
				continue
			}
			c := cells[typ]
			if c == nil {
				c = &cell{}
				cells[typ] = c
				types = append(types, typ)
			}
			_, _, total := res.AvgRMWCost()
			c.seeds = append(c.seeds, run.Seed)
			c.cost = append(c.cost, total)
			c.overhead = append(c.overhead, res.RMWOverheadPercent())
			c.cycles = append(c.cycles, float64(res.Cycles))
		}
	}
	for _, typ := range types {
		c := cells[typ]
		if len(distinctSeeds(c.seeds)) < 2 {
			continue
		}
		a := SeedAggregate{Benchmark: name, Type: typ, Seeds: c.seeds}
		a.MeanRMWCost, a.CI95RMWCost = stats.MeanCI95(c.cost)
		a.MeanOverheadPct, a.CI95OverheadPct = stats.MeanCI95(c.overhead)
		a.MeanCycles, a.CI95Cycles = stats.MeanCI95(c.cycles)
		out = append(out, a)
	}
	return out
}

// distinctSeeds returns the distinct values of a seed list, in order.
func distinctSeeds(seeds []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// RenderSeedAggregates renders the cross-seed statistics as a
// fixed-width table (mean ± 95% CI per metric); empty input renders the
// empty string.
func RenderSeedAggregates(aggs []SeedAggregate) string {
	if len(aggs) == 0 {
		return ""
	}
	var b strings.Builder
	n := len(aggs[0].Seeds)
	fmt.Fprintf(&b, "Seed stability: mean ± 95%% CI over %d seeds\n", n)
	t := stats.NewTable("", "Benchmark", "Type", "RMW cost", "Overhead", "Cycles")
	for _, a := range aggs {
		t.AddRow(a.Benchmark, a.Type.String(),
			fmt.Sprintf("%.1f ± %.1f", a.MeanRMWCost, a.CI95RMWCost),
			fmt.Sprintf("%.2f%% ± %.2f%%", a.MeanOverheadPct, a.CI95OverheadPct),
			fmt.Sprintf("%.0f ± %.0f", a.MeanCycles, a.CI95Cycles))
	}
	b.WriteString(t.Render())
	return b.String()
}
