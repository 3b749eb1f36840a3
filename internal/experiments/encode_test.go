package experiments

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// missingTypeReport has one benchmark with every type and one without each
// type's run; the complete one's type-2 RMWs cost more than its type-1
// RMWs.
func missingTypeReport() *Report {
	type costs = map[core.AtomicityType]float64
	type cycles = map[core.AtomicityType]uint64
	return &Report{
		Fig11a: []Fig11aEntry{
			{Benchmark: "all", WriteBuffer: costs{1: 10, 2: 5, 3: 4}, RaWa: costs{1: 20, 2: 30, 3: 21}},
			{Benchmark: "no-t1", WriteBuffer: costs{2: 5, 3: 4}, RaWa: costs{2: 30, 3: 21}},
			{Benchmark: "no-t2", WriteBuffer: costs{1: 10, 3: 4}, RaWa: costs{1: 20, 3: 21}},
			{Benchmark: "no-t3", WriteBuffer: costs{1: 10, 2: 5}, RaWa: costs{1: 20, 2: 18}},
		},
		Fig11b: []Fig11bEntry{
			{Benchmark: "all", Overhead: costs{1: 9, 2: 8, 3: 7}, Cycles: cycles{1: 1000, 2: 990, 3: 980}},
			{Benchmark: "no-t1", Overhead: costs{2: 8, 3: 7}, Cycles: cycles{2: 990, 3: 980}},
			{Benchmark: "no-t2", Overhead: costs{1: 9, 3: 7}, Cycles: cycles{1: 1000, 3: 980}},
			{Benchmark: "no-t3", Overhead: costs{1: 9, 2: 8}, Cycles: cycles{1: 1000, 2: 990}},
		},
	}
}

// tableRow returns the whitespace-separated cells of the table row whose
// first cell is name.
func tableRow(t *testing.T, text, name string) []string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f
		}
	}
	t.Fatalf("no row %q in\n%s", name, text)
	return nil
}

// chartBars returns the chart block under label: the series name and the
// value cell of each bar line.
func chartBars(t *testing.T, chart, label string) [][2]string {
	t.Helper()
	lines := strings.Split(chart, "\n")
	for i, line := range lines {
		if line != label {
			continue
		}
		var out [][2]string
		for _, bar := range lines[i+1:] {
			if !strings.HasPrefix(bar, "  ") {
				break
			}
			f := strings.Fields(bar)
			out = append(out, [2]string{f[0], f[1]})
		}
		return out
	}
	t.Fatalf("no chart block %q in\n%s", label, chart)
	return nil
}

// csvSection returns the records of one CSV section, header first.
func csvSection(t *testing.T, data []byte, name string) [][]string {
	t.Helper()
	parts := strings.Split(string(data), "# "+name+"\n")
	if len(parts) != 2 {
		t.Fatalf("no CSV section %q", name)
	}
	body, _, _ := strings.Cut(parts[1], "\n# ")
	recs, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFig11MissingTypePrintsAbsent checks that every Fig. 11 cell and bar
// of a type a benchmark has no run of prints as absent -- "-" in the ASCII
// tables and charts, an empty field in the CSV -- and never as a number,
// that every benchmark keeps its own three bars, and that a cost increase
// prints with its own sign.
func TestFig11MissingTypePrintsAbsent(t *testing.T) {
	r := missingTypeReport()
	// Fig. 11(a)'s cells: benchmark, three per type, then t2 and t3 vs t1.
	// Fig. 11(b)'s: benchmark, one per type, then the t2 and t3 speedups.
	// Without type-1 both comparisons with it are absent too.
	absentA := map[string][]int{"all": nil, "no-t1": {1, 2, 3, 10, 11}, "no-t2": {4, 5, 6, 10}, "no-t3": {7, 8, 9, 11}}
	absentB := map[string][]int{"all": nil, "no-t1": {1, 4, 5}, "no-t2": {2, 4}, "no-t3": {3, 5}}
	missing := map[string]string{"no-t1": "type-1", "no-t2": "type-2", "no-t3": "type-3"}
	check := func(fig, text string, absent map[string][]int) {
		table, chart, _ := strings.Cut(text, "\n\n")
		for name, cols := range absent {
			row := tableRow(t, table, name)
			for i, cell := range row[1:] {
				want := false
				for _, c := range cols {
					want = want || c == i+1
				}
				if (cell == "-") != want {
					t.Errorf("%s ASCII row %s cell %d = %q, absent %t", fig, name, i+1, cell, want)
				}
			}
			bars := chartBars(t, chart, name)
			if len(bars) != 3 {
				t.Errorf("%s chart block %s has %d bars, want 3: %v", fig, name, len(bars), bars)
			}
			for i, bar := range bars {
				if want := core.AllTypes()[i].String(); bar[0] != want {
					t.Errorf("%s chart block %s bar %d is %s, want %s", fig, name, i, bar[0], want)
				}
				if (bar[1] == "-") != (bar[0] == missing[name]) {
					t.Errorf("%s chart block %s bar %s = %q", fig, name, bar[0], bar[1])
				}
			}
		}
	}
	check("Fig. 11(a)", asciiFig11a(r.Fig11a), absentA)
	check("Fig. 11(b)", asciiFig11b(r.Fig11b), absentB)
	if got := tableRow(t, asciiFig11a(r.Fig11a), "all")[10]; got != "+16.7%" {
		t.Errorf("a 16.7%% cost increase prints as %q, want +16.7%%", got)
	}

	var buf bytes.Buffer
	if err := (CSVEncoder{}).Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct {
		name   string
		absent map[string][]int
	}{
		{"fig11a", map[string][]int{"all": nil, "no-t1": {1, 2, 3}, "no-t2": {4, 5, 6}, "no-t3": {7, 8, 9}}},
		{"fig11b", map[string][]int{"all": nil, "no-t1": {1, 2, 7, 8}, "no-t2": {3, 4, 7}, "no-t3": {5, 6, 8}}},
	} {
		for _, rec := range csvSection(t, buf.Bytes(), sec.name)[1:] {
			cols := sec.absent[rec[0]]
			for i, cell := range rec[1:] {
				want := false
				for _, c := range cols {
					want = want || c == i+1
				}
				if (cell == "") != want {
					t.Errorf("CSV %s row %s field %d = %q, absent %t", sec.name, rec[0], i+1, cell, want)
				}
			}
		}
	}
}

// TestSummarizeSkipsMissingTypes checks that the headline summary
// compares only types a benchmark ran: the benchmark without type-2 adds
// no type-2 cost reduction and no type-2 speedup (reading its absent
// cost and cycles as zero would claim 100% for both), and the one without
// type-1 adds nothing at all.
func TestSummarizeSkipsMissingTypes(t *testing.T) {
	r := missingTypeReport()
	got := Summarize(r.Fig11a, r.Fig11b)
	// Totals against type-1's 30 cycles: "all" 35 and 25, "no-t2" -
	// and 25, "no-t3" 23 and -; cycles against 1000: 990 and 980.
	want := Summary{
		Type2CostReductionMin: -100.0 / 6, Type2CostReductionMax: 700.0 / 30,
		Type3CostReductionMin: 100.0 / 6, Type3CostReductionMax: 100.0 / 6,
		MaxSpeedupType2: 1, MaxSpeedupType3: 2,
		AvgType1DrainShare: 100.0 / 3,
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"type-2 reduction min", got.Type2CostReductionMin, want.Type2CostReductionMin},
		{"type-2 reduction max", got.Type2CostReductionMax, want.Type2CostReductionMax},
		{"type-3 reduction min", got.Type3CostReductionMin, want.Type3CostReductionMin},
		{"type-3 reduction max", got.Type3CostReductionMax, want.Type3CostReductionMax},
		{"type-2 speedup", got.MaxSpeedupType2, want.MaxSpeedupType2},
		{"type-3 speedup", got.MaxSpeedupType3, want.MaxSpeedupType3},
		{"type-1 drain share", got.AvgType1DrainShare, want.AvgType1DrainShare},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
