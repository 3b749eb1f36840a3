package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// ASCIIEncoder renders a Report as the paper-layout fixed-width tables
// and bar charts. It is the terminal-facing encoding, built from the
// exported section renderers (RenderTable1 … RenderFig11b), so one
// section rendered standalone is byte-identical to the same section
// inside a full report.
type ASCIIEncoder struct{}

// Encode writes the report's sections in paper order: Tables 1, 2, 3 and
// 4, Fig. 11(a)/(b), then the headline summary.
func (ASCIIEncoder) Encode(w io.Writer, r *Report) error {
	var b strings.Builder
	b.WriteString(RenderTable1(r.Table1))
	b.WriteString("\n")
	b.WriteString(RenderTable2(r.Table2))
	b.WriteString("\n")
	b.WriteString(RenderTable3(r.Table3))
	b.WriteString("\n")
	b.WriteString(RenderTable4(r.Table4))
	b.WriteString("\n")
	b.WriteString(RenderFig11a(r.Fig11a))
	b.WriteString("\n")
	b.WriteString(RenderFig11b(r.Fig11b))
	b.WriteString("\n")
	b.WriteString(r.Summary.Render())
	if len(r.SeedStats) > 0 {
		b.WriteString("\n")
		b.WriteString(RenderSeedAggregates(r.SeedStats))
	}
	if r.Coordination != nil {
		b.WriteString("\n")
		b.WriteString(asciiCoordination(r.Coordination))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// asciiCoordination renders the coordination section: its mode plus,
// when the sweep is partial, the dead-lettered units. The static pool
// has no workers to list; the empty worker table keeps the bytes that
// reports have always printed.
func asciiCoordination(c *Coordination) string {
	out := stats.NewTable(
		fmt.Sprintf("Coordination (%s mode, %d retries, %d lease expiries)",
			c.Mode, c.Retries, c.Expired),
		"Worker", "Units", "Retries", "Expired").Render()
	if len(c.DeadLetters) > 0 {
		d := stats.NewTable("DEAD-LETTERED UNITS (missing from the tables above)",
			"Unit", "Trace", "Type", "Attempts", "Last failure")
		for _, u := range c.DeadLetters {
			last := ""
			if len(u.Reasons) > 0 {
				last = u.Reasons[len(u.Reasons)-1]
			}
			d.AddRow(u.Unit, u.Trace, u.Type, strconv.Itoa(u.Attempts), last)
		}
		out += "\n" + d.Render()
	}
	return out
}

// RenderTable1 renders Table 1 rows in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	t := stats.NewTable("Table 1: conventional RMW (type-1) vs proposed RMWs (type-2, type-3)",
		"Atomicity", "Dekker reads->RMW", "Dekker writes->RMW", "RMW as barrier", "C++11 SC-reads->RMW", "C++11 SC-writes->RMW")
	for _, r := range rows {
		t.AddRow(r.Atomicity.String(),
			stats.Mark(r.DekkerReads), stats.Mark(r.DekkerWrites), stats.Mark(r.RMWAsBarrier),
			stats.Mark(r.CppReadReplacement), stats.Mark(r.CppWriteReplacement))
	}
	return t.Render()
}

// RenderTable2 renders the architectural parameter rows (Table 2), as a
// report's Table2 holds them.
func RenderTable2(rows [][2]string) string {
	t := stats.NewTable("Table 2: architectural parameters", "Component", "Configuration")
	for _, row := range rows {
		t.AddRow(row[0], row[1])
	}
	return t.Render()
}

// RenderTable3 renders Table 3 rows, including the paper's reference
// values for the structural columns.
func RenderTable3(rows []Table3Row) string {
	t := stats.NewTable("Table 3: benchmark characteristics (measured vs paper)",
		"Code", "Suite", "Problem size",
		"RMWs/1000 memops", "(paper)",
		"% unique RMWs", "(paper)",
		"% WB drains type-2/3", "RMW broadcasts/100")
	for _, r := range rows {
		t.AddRow(r.Name, r.Suite, r.Size,
			stats.F2(r.RMWsPer1000), stats.F2(r.PaperRMWsPer1000),
			stats.F2(r.UniquePct), stats.F2(r.PaperUniquePct),
			stats.F2(r.DrainPct), stats.F2(r.BroadcastsPer100))
	}
	return t.Render()
}

// RenderTable4 renders the mapping-validation matrix together with the
// instruction selection of each mapping.
func RenderTable4(rows []Table4Row) string {
	sel := stats.NewTable("Table 4: mapping from C/C++11 to x86",
		"Mapping", "SC read", "SC write", "non-SC read", "non-SC write")
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Mapping.String()] {
			continue
		}
		seen[r.Mapping.String()] = true
		scRead, scWrite := "mov", "mov"
		if r.Mapping.MapsSCLoadToRMW() {
			scRead = "lock xadd(0)"
		}
		if r.Mapping.MapsSCStoreToRMW() {
			scWrite = "lock xchg"
		}
		sel.AddRow(r.Mapping.String(), scRead, scWrite, "mov", "mov")
	}
	val := stats.NewTable("Mapping soundness per RMW atomicity type (SC store buffering)",
		"Mapping", "Atomicity", "Sound", "Counterexample")
	for _, r := range rows {
		val.AddRow(r.Mapping.String(), r.Atomicity.String(), stats.Mark(r.Sound), r.Counterexample)
	}
	return sel.Render() + "\n" + val.Render()
}

// RenderFig11a renders the Fig. 11(a) data as a table plus a bar chart of
// the total per-RMW cost. A type a benchmark has no run of prints as "-"
// in every cell and bar, and its change against type-1 too.
func RenderFig11a(entries []Fig11aEntry) string {
	t := stats.NewTable("Fig. 11(a): cost of type-1/2/3 RMWs (cycles, split write-buffer + Ra/Wa)",
		"Benchmark",
		"t1 WB", "t1 Ra/Wa", "t1 total",
		"t2 WB", "t2 Ra/Wa", "t2 total",
		"t3 WB", "t3 Ra/Wa", "t3 total",
		"t2 vs t1", "t3 vs t1")
	series := []stats.Series{{Name: "type-1"}, {Name: "type-2"}, {Name: "type-3"}}
	for _, e := range entries {
		cells := []string{e.Benchmark}
		var totals [3]float64
		for i, typ := range core.AllTypes() {
			totals[i] = math.NaN()
			if e.ran(typ) {
				totals[i] = e.Total(typ)
				cells = append(cells, stats.F1(e.WriteBuffer[typ]), stats.F1(e.RaWa[typ]), stats.F1(totals[i]))
			} else {
				cells = append(cells, "-", "-", "-")
			}
			series[i].Add(e.Benchmark, totals[i])
		}
		cells = append(cells, change(totals[0], totals[1]), change(totals[0], totals[2]))
		t.AddRow(cells...)
	}
	chart := stats.Chart("Average RMW cost (cycles)", 40, series...)
	return t.Render() + "\n" + chart
}

// change renders next relative to base as a signed percentage, negative
// when next is smaller, or "-" when either is missing (NaN).
func change(base, next float64) string {
	if math.IsNaN(base) || math.IsNaN(next) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", -stats.PercentReduction(base, next))
}

// RenderFig11b renders the Fig. 11(b) data. A type a benchmark has no run
// of prints as "-" in its table cells and its bar, and so does a speedup
// whose type or type-1 base is missing.
func RenderFig11b(entries []Fig11bEntry) string {
	t := stats.NewTable("Fig. 11(b): execution-time overhead of RMWs (% of total execution time)",
		"Benchmark", "type-1", "type-2", "type-3", "speedup t2", "speedup t3")
	series := []stats.Series{{Name: "type-1"}, {Name: "type-2"}, {Name: "type-3"}}
	for _, e := range entries {
		row := []string{e.Benchmark}
		for i, typ := range core.AllTypes() {
			v := math.NaN()
			if e.ran(typ) {
				v = e.Overhead[typ]
				row = append(row, stats.F2(v))
			} else {
				row = append(row, "-")
			}
			series[i].Add(e.Benchmark, v)
		}
		for _, typ := range []core.AtomicityType{core.Type2, core.Type3} {
			if e.hasSpeedup(typ) {
				row = append(row, stats.Percent(e.Speedup(typ)))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	chart := stats.Chart("RMW overhead (% of execution time)", 40, series...)
	return t.Render() + "\n" + chart
}
