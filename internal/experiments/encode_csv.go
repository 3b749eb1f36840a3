package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
)

// CSVEncoder renders a Report as a multi-section CSV stream: each section
// starts with a `# <section>` comment line (readable by csv readers
// configured with comment='#'), followed by that section's header row and
// records. Numbers are emitted at full float precision so a merged and an
// unsharded report encode byte-identically.
type CSVEncoder struct{}

// Encode writes every report section as CSV records.
func (CSVEncoder) Encode(w io.Writer, r *Report) error {
	cw := csv.NewWriter(w)
	section := func(name string, header []string, rows [][]string) error {
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# %s\n", name); err != nil {
			return err
		}
		if err := cw.Write(header); err != nil {
			return err
		}
		return cw.WriteAll(rows)
	}

	var t1 [][]string
	for _, row := range r.Table1 {
		t1 = append(t1, []string{row.Atomicity.String(),
			b(row.DekkerReads), b(row.DekkerWrites), b(row.RMWAsBarrier),
			b(row.CppReadReplacement), b(row.CppWriteReplacement)})
	}
	if err := section("table1", []string{"atomicity", "dekker_reads", "dekker_writes", "rmw_as_barrier", "cpp_read_replacement", "cpp_write_replacement"}, t1); err != nil {
		return err
	}

	var t2 [][]string
	for _, row := range r.Table2 {
		t2 = append(t2, []string{row[0], row[1]})
	}
	if err := section("table2", []string{"component", "configuration"}, t2); err != nil {
		return err
	}

	var t3 [][]string
	for _, row := range r.Table3 {
		t3 = append(t3, []string{row.Name, row.Suite, row.Size,
			f(row.RMWsPer1000), f(row.PaperRMWsPer1000),
			f(row.UniquePct), f(row.PaperUniquePct),
			f(row.DrainPct), f(row.BroadcastsPer100)})
	}
	if err := section("table3", []string{"code", "suite", "problem_size", "rmws_per_1000", "paper_rmws_per_1000", "unique_pct", "paper_unique_pct", "drain_pct", "broadcasts_per_100"}, t3); err != nil {
		return err
	}

	var t4 [][]string
	for _, row := range r.Table4 {
		t4 = append(t4, []string{row.Mapping.String(), row.Atomicity.String(), b(row.Sound), row.Counterexample})
	}
	if err := section("table4", []string{"mapping", "atomicity", "sound", "counterexample"}, t4); err != nil {
		return err
	}

	var fa [][]string
	for _, e := range r.Fig11a {
		rec := []string{e.Benchmark}
		for _, typ := range core.AllTypes() {
			// A type the benchmark does not run under stays empty, like
			// the ASCII table's "-" — emitting zeros would fabricate data.
			if !e.ran(typ) {
				rec = append(rec, "", "", "")
				continue
			}
			rec = append(rec, f(e.WriteBuffer[typ]), f(e.RaWa[typ]), f(e.Total(typ)))
		}
		fa = append(fa, rec)
	}
	if err := section("fig11a", []string{"benchmark",
		"t1_write_buffer", "t1_ra_wa", "t1_total",
		"t2_write_buffer", "t2_ra_wa", "t2_total",
		"t3_write_buffer", "t3_ra_wa", "t3_total"}, fa); err != nil {
		return err
	}

	var fb [][]string
	for _, e := range r.Fig11b {
		rec := []string{e.Benchmark}
		for _, typ := range core.AllTypes() {
			// Same sentinel rule: a missing type must not read as zero
			// overhead (or, worse, as a 100% speedup below).
			if !e.ran(typ) {
				rec = append(rec, "", "")
				continue
			}
			rec = append(rec, f(e.Overhead[typ]), strconv.FormatUint(e.Cycles[typ], 10))
		}
		for _, typ := range []core.AtomicityType{core.Type2, core.Type3} {
			if e.hasSpeedup(typ) {
				rec = append(rec, f(e.Speedup(typ)))
			} else {
				rec = append(rec, "")
			}
		}
		fb = append(fb, rec)
	}
	if err := section("fig11b", []string{"benchmark",
		"t1_overhead_pct", "t1_cycles",
		"t2_overhead_pct", "t2_cycles",
		"t3_overhead_pct", "t3_cycles",
		"speedup_t2_pct", "speedup_t3_pct"}, fb); err != nil {
		return err
	}

	s := r.Summary
	if err := section("summary", []string{
		"type2_cost_reduction_min", "type2_cost_reduction_max",
		"type3_cost_reduction_min", "type3_cost_reduction_max",
		"max_speedup_type2", "max_speedup_type3", "avg_type1_drain_share"},
		[][]string{{f(s.Type2CostReductionMin), f(s.Type2CostReductionMax),
			f(s.Type3CostReductionMin), f(s.Type3CostReductionMax),
			f(s.MaxSpeedupType2), f(s.MaxSpeedupType3), f(s.AvgType1DrainShare)}}); err != nil {
		return err
	}

	// The seed_stats section exists only for multi-seed sweeps, so
	// single-seed reports stay byte-identical to older encodings.
	if len(r.SeedStats) > 0 {
		var ss [][]string
		for _, a := range r.SeedStats {
			ss = append(ss, []string{a.Benchmark, a.Type.String(),
				strconv.Itoa(len(a.Seeds)),
				f(a.MeanRMWCost), f(a.CI95RMWCost),
				f(a.MeanOverheadPct), f(a.CI95OverheadPct),
				f(a.MeanCycles), f(a.CI95Cycles)})
		}
		if err := section("seed_stats", []string{"benchmark", "type", "seeds",
			"mean_rmw_cost", "ci95_rmw_cost",
			"mean_overhead_pct", "ci95_overhead_pct",
			"mean_cycles", "ci95_cycles"}, ss); err != nil {
			return err
		}
	}

	// The coordination sections are written only for a report with a
	// coordination section (a sweep with dead letters, or the server's
	// coordinate alias), so complete static reports stay byte-identical
	// to older encodings. The static pool has no workers:
	// coordination_workers keeps its header and has no rows.
	if c := r.Coordination; c != nil {
		if err := section("coordination", []string{"mode", "retries", "expired"},
			[][]string{{c.Mode, strconv.Itoa(c.Retries), strconv.Itoa(c.Expired)}}); err != nil {
			return err
		}
		if err := section("coordination_workers", []string{"worker", "units", "retries", "expired"}, nil); err != nil {
			return err
		}
		if len(c.DeadLetters) > 0 {
			var ds [][]string
			for _, u := range c.DeadLetters {
				last := ""
				if len(u.Reasons) > 0 {
					last = u.Reasons[len(u.Reasons)-1]
				}
				ds = append(ds, []string{u.Unit, u.Trace, u.Type, strconv.Itoa(u.Attempts), last})
			}
			if err := section("coordination_dead_letters", []string{"unit", "trace", "type", "attempts", "last_failure"}, ds); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// f formats a float at full precision (shortest round-tripping form).
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// b formats a bool as "true"/"false".
func b(v bool) string { return strconv.FormatBool(v) }

// schemaError reports a report schema this build cannot decode.
func schemaError(got int) error {
	return fmt.Errorf("experiments: report schema version %d, this build understands %d", got, ReportSchemaVersion)
}
