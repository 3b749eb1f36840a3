package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// drawnSweep is one generated sweep: the runs a report is built from, the
// base seed, and the units dead-lettered out of it.
type drawnSweep struct {
	base int64
	runs []*BenchmarkRun
	dead []DeadUnit
}

// drawSweep draws a sweep over one to six of the paper's benchmarks and
// one to three seeds. A benchmark runs either every type of its spec or
// all but one (type-1 included), the same types under every seed; each
// (benchmark, seed) group is dead-lettered with probability 1/6, which
// drops its run as a partial sweep does.
func drawSweep(rng *rand.Rand) drawnSweep {
	sw := drawnSweep{base: rng.Int63n(1000)}
	specs := append(Table3Specs(), Cpp11Specs()...)
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	specs = specs[:1+rng.Intn(6)]
	for i := range specs {
		if types := specs[i].Types; len(types) > 1 && rng.Intn(2) == 0 {
			drop := rng.Intn(len(types))
			specs[i].Types = append(types[:drop:drop], types[drop+1:]...)
		}
	}
	for s := range 1 + rng.Intn(3) {
		seed := sw.base + int64(s)
		for _, spec := range specs {
			name := workload.Generator{Replacement: spec.Variant}.TraceName(spec.Profile)
			if rng.Intn(6) == 0 {
				typ := spec.Types[rng.Intn(len(spec.Types))]
				sw.dead = append(sw.dead, DeadUnit{Unit: fmt.Sprintf("%016x", rng.Uint64()), Trace: name,
					Type: typ.String(), Attempts: 1, Reasons: []string{"injected failure"}})
				continue
			}
			run := &BenchmarkRun{Profile: spec.Profile, Variant: spec.Variant, Name: name, Seed: seed,
				ByType: map[core.AtomicityType]*sim.Result{}}
			for _, typ := range spec.Types {
				run.ByType[typ] = drawResult(rng, name, typ)
			}
			sw.runs = append(sw.runs, run)
		}
	}
	return sw
}

// drawResult draws one run's result; one in eight completes no RMW, so
// its per-RMW cost is zero.
func drawResult(rng *rand.Rand, name string, typ core.AtomicityType) *sim.Result {
	r := &sim.Result{Workload: name, RMWType: typ, Cycles: uint64(1 + rng.Intn(1_000_000)),
		Broadcasts: uint64(rng.Intn(500)), UniqueRMWs: rng.Intn(300)}
	idle := rng.Intn(8) == 0
	for c := range 1 + rng.Intn(4) {
		cs := sim.CoreStats{Core: c, Reads: uint64(rng.Intn(5000)), Writes: uint64(rng.Intn(5000)),
			RMWs: uint64(rng.Intn(400)), Computes: uint64(rng.Intn(100))}
		if !idle {
			cs.RMWsCompleted = cs.RMWs
			cs.RMWWriteBufferCycles = uint64(rng.Intn(40_000))
			cs.RMWRaWaCycles = uint64(rng.Intn(60_000))
			cs.RMWReverts = uint64(rng.Intn(int(cs.RMWs) + 1))
		}
		r.PerCore = append(r.PerCore, cs)
	}
	return r
}

// expectedCell is what one benchmark's run of one type says.
type expectedCell struct {
	ran                 bool
	wb, rw, total, over float64
	cycles              uint64
}

// expectedReport is what a sweep's report must hold, derived from the
// runs alone.
type expectedReport struct {
	table3  []Table3Row
	names   []string
	cells   [][3]expectedCell // per benchmark, per type
	speedup [][2]*float64     // per benchmark: t2 and t3 against t1, nil when absent
	summary Summary
	seeds   []SeedAggregate
}

// expect derives the report's run sections from the sweep: the base
// seed's runs when the runs carry several seeds, every type a run has and
// no other, and the summary's reductions and speedups only between types
// that ran (and, for a cost reduction, completed RMWs).
func expect(sw drawnSweep) expectedReport {
	var want expectedReport
	base := sw.runs
	if seeds := distinctRunSeeds(sw.runs); len(seeds) > 1 {
		base = nil
		for _, run := range sw.runs {
			if run.Seed == sw.base {
				base = append(base, run)
			}
		}
	}
	var reductions, speedups [2][]float64 // type-2 and type-3 against type-1
	var drain []float64
	for _, run := range base {
		if t2 := run.ByType[core.Type2]; t2 != nil && run.Variant == workload.NoReplacement {
			want.table3 = append(want.table3, Table3Row{Name: run.Name, Suite: run.Profile.Suite, Size: run.Profile.ProblemSize,
				RMWsPer1000: t2.RMWsPer1000MemOps(), PaperRMWsPer1000: run.Profile.PaperRMWsPer1000,
				UniquePct: t2.UniqueRMWPercent(), PaperUniquePct: run.Profile.PaperUniquePct,
				DrainPct: t2.RevertPercent(), BroadcastsPer100: t2.BroadcastsPer100RMWs()})
		}
		var cells [3]expectedCell
		for i, typ := range core.AllTypes() {
			if res := run.ByType[typ]; res != nil {
				wb, rw, total := res.AvgRMWCost()
				cells[i] = expectedCell{true, wb, rw, total, res.RMWOverheadPercent(), res.Cycles}
			}
		}
		var speedup [2]*float64
		for i := range speedup {
			if c1, ct := cells[0], cells[i+1]; c1.ran && ct.ran {
				v := 0.0
				if c1.cycles > 0 {
					v = 100 * (float64(c1.cycles) - float64(ct.cycles)) / float64(c1.cycles)
				}
				speedup[i] = &v
				speedups[i] = append(speedups[i], v)
			}
			if c1, ct := cells[0], cells[i+1]; c1.total > 0 && ct.ran && ct.total > 0 {
				reductions[i] = append(reductions[i], 100*(c1.total-ct.total)/c1.total)
			}
		}
		if cells[0].total > 0 {
			drain = append(drain, 100*cells[0].wb/cells[0].total)
		}
		want.names = append(want.names, run.Name)
		want.cells = append(want.cells, cells)
		want.speedup = append(want.speedup, speedup)
	}
	s := &want.summary
	if r := reductions[0]; len(r) > 0 {
		s.Type2CostReductionMin, s.Type2CostReductionMax = slices.Min(r), slices.Max(r)
	}
	if r := reductions[1]; len(r) > 0 {
		s.Type3CostReductionMin, s.Type3CostReductionMax = slices.Min(r), slices.Max(r)
	}
	if v := speedups[0]; len(v) > 0 {
		s.MaxSpeedupType2 = slices.Max(v)
	}
	if v := speedups[1]; len(v) > 0 {
		s.MaxSpeedupType3 = slices.Max(v)
	}
	if len(drain) > 0 {
		s.AvgType1DrainShare = stats.Mean(drain)
	}

	// Seed statistics: per (name, variant) in first-run order, per type in
	// first-run order, for every type run under two or more seeds.
	type cell struct {
		seeds             []int64
		cost, over, cycle []float64
	}
	var order []string
	groups := map[string][]*BenchmarkRun{}
	for _, run := range sw.runs {
		if groups[run.Name] == nil {
			order = append(order, run.Name)
		}
		groups[run.Name] = append(groups[run.Name], run)
	}
	for _, name := range order {
		var types []core.AtomicityType
		cells := map[core.AtomicityType]*cell{}
		for _, run := range groups[name] {
			for _, typ := range core.AllTypes() {
				res := run.ByType[typ]
				if res == nil {
					continue
				}
				if cells[typ] == nil {
					cells[typ] = &cell{}
					types = append(types, typ)
				}
				c := cells[typ]
				_, _, total := res.AvgRMWCost()
				c.seeds = append(c.seeds, run.Seed)
				c.cost = append(c.cost, total)
				c.over = append(c.over, res.RMWOverheadPercent())
				c.cycle = append(c.cycle, float64(res.Cycles))
			}
		}
		for _, typ := range types {
			c := cells[typ]
			if len(c.seeds) < 2 {
				continue
			}
			a := SeedAggregate{Benchmark: name, Type: typ, Seeds: c.seeds}
			a.MeanRMWCost, a.CI95RMWCost = stats.MeanCI95(c.cost)
			a.MeanOverheadPct, a.CI95OverheadPct = stats.MeanCI95(c.over)
			a.MeanCycles, a.CI95Cycles = stats.MeanCI95(c.cycle)
			want.seeds = append(want.seeds, a)
		}
	}
	return want
}

// distinctRunSeeds returns the distinct seeds of runs.
func distinctRunSeeds(runs []*BenchmarkRun) map[int64]bool {
	seeds := map[int64]bool{}
	for _, run := range runs {
		seeds[run.Seed] = true
	}
	return seeds
}

// near reports whether two derived numbers agree to rounding.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestReportRendersItsRuns is the report oracle: for generated sweeps
// with missing types, dead-lettered units and one to three seeds, it
// derives what every run-derived cell must say from the runs alone,
// checks the Report model against that, and then checks every cell of
// the three renderings against the model: the JSON decodes back to it,
// the CSV parses back to its numbers, and the ASCII Table 3, Fig. 11(a)
// and (b) rows and bars and the summary print its values. A value a run
// did not produce prints as absent ("-" or an empty field), never as
// zero.
func TestReportRendersItsRuns(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		sw := drawSweep(rand.New(rand.NewSource(seed)))
		rep, err := BuildReport(Options{Cores: 4, Scale: 0.05, Seed: sw.base}, sw.runs)
		if err != nil {
			t.Fatal(err)
		}
		if len(sw.dead) > 0 {
			rep.Coordination = &Coordination{Mode: "in-process", DeadLetters: sw.dead}
		}
		want := expect(sw)
		t.Run(fmt.Sprintf("sweep%d", seed), func(t *testing.T) {
			checkModel(t, rep, want)
			checkJSONCells(t, rep)
			checkCSVCells(t, rep)
			checkASCIICells(t, rep)
		})
	}
}

// checkModel compares the report's run sections with the expectation.
func checkModel(t *testing.T, rep *Report, want expectedReport) {
	t.Helper()
	if len(rep.Table3) != len(want.table3) {
		t.Fatalf("Table 3 has %d rows, want %d", len(rep.Table3), len(want.table3))
	}
	for i, row := range rep.Table3 {
		w := want.table3[i]
		if row.Name != w.Name || row.Suite != w.Suite || row.Size != w.Size ||
			!near(row.RMWsPer1000, w.RMWsPer1000) || row.PaperRMWsPer1000 != w.PaperRMWsPer1000 ||
			!near(row.UniquePct, w.UniquePct) || row.PaperUniquePct != w.PaperUniquePct ||
			!near(row.DrainPct, w.DrainPct) || !near(row.BroadcastsPer100, w.BroadcastsPer100) {
			t.Errorf("Table 3 row %d = %+v, want %+v", i, row, w)
		}
	}
	if len(rep.Fig11a) != len(want.names) || len(rep.Fig11b) != len(want.names) {
		t.Fatalf("Fig. 11 has %d/%d entries, want %d", len(rep.Fig11a), len(rep.Fig11b), len(want.names))
	}
	for i, name := range want.names {
		a, b := rep.Fig11a[i], rep.Fig11b[i]
		if a.Benchmark != name || b.Benchmark != name {
			t.Fatalf("Fig. 11 entry %d is %s/%s, want %s", i, a.Benchmark, b.Benchmark, name)
		}
		for j, typ := range core.AllTypes() {
			c := want.cells[i][j]
			if a.ran(typ) != c.ran || b.ran(typ) != c.ran {
				t.Errorf("%s %s: ran %t/%t, want %t", name, typ, a.ran(typ), b.ran(typ), c.ran)
				continue
			}
			if c.ran && (!near(a.WriteBuffer[typ], c.wb) || !near(a.RaWa[typ], c.rw) ||
				!near(a.Total(typ), c.total) || !near(b.Overhead[typ], c.over) || b.Cycles[typ] != c.cycles) {
				t.Errorf("%s %s: cost %v+%v, overhead %v, cycles %d; want %+v", name, typ,
					a.WriteBuffer[typ], a.RaWa[typ], b.Overhead[typ], b.Cycles[typ], c)
			}
		}
		for j, typ := range []core.AtomicityType{core.Type2, core.Type3} {
			w := want.speedup[i][j]
			if b.hasSpeedup(typ) != (w != nil) || w != nil && !near(b.Speedup(typ), *w) {
				t.Errorf("%s speedup %s = %v (present %t), want %v", name, typ, b.Speedup(typ), b.hasSpeedup(typ), w)
			}
		}
	}
	s, w := rep.Summary, want.summary
	if !near(s.Type2CostReductionMin, w.Type2CostReductionMin) || !near(s.Type2CostReductionMax, w.Type2CostReductionMax) ||
		!near(s.Type3CostReductionMin, w.Type3CostReductionMin) || !near(s.Type3CostReductionMax, w.Type3CostReductionMax) ||
		!near(s.MaxSpeedupType2, w.MaxSpeedupType2) || !near(s.MaxSpeedupType3, w.MaxSpeedupType3) ||
		!near(s.AvgType1DrainShare, w.AvgType1DrainShare) {
		t.Errorf("summary %+v\nwant    %+v", s, w)
	}
	if !reflect.DeepEqual(rep.SeedStats, want.seeds) {
		t.Errorf("seed statistics %+v\nwant %+v", rep.SeedStats, want.seeds)
	}
}

// checkJSONCells requires the JSON rendering to decode back to the model.
func checkJSONCells(t *testing.T, rep *Report) {
	t.Helper()
	var buf bytes.Buffer
	if err := (JSONEncoder{}).Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReportJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("the JSON report decodes to another report:\n got %+v\nwant %+v", back, rep)
	}
}

// checkCSVCells parses every run-derived CSV section back and compares
// each field with the model; an absent value is an empty field.
func checkCSVCells(t *testing.T, rep *Report) {
	t.Helper()
	var buf bytes.Buffer
	if err := (CSVEncoder{}).Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	field := func(sec string, row, col int, cell string, v float64, ok bool) {
		t.Helper()
		if !ok {
			if cell != "" {
				t.Errorf("CSV %s row %d field %d = %q, want it empty", sec, row, col, cell)
			}
			return
		}
		got, err := strconv.ParseFloat(cell, 64)
		if err != nil || got != v {
			t.Errorf("CSV %s row %d field %d = %q, want %v", sec, row, col, cell, v)
		}
	}
	t3 := csvSection(t, data, "table3")[1:]
	if len(t3) != len(rep.Table3) {
		t.Fatalf("CSV table3 has %d rows, want %d", len(t3), len(rep.Table3))
	}
	for i, r := range rep.Table3 {
		rec := t3[i]
		if rec[0] != r.Name || rec[1] != r.Suite || rec[2] != r.Size {
			t.Errorf("CSV table3 row %d names %v, want %s %s %s", i, rec[:3], r.Name, r.Suite, r.Size)
		}
		for j, v := range []float64{r.RMWsPer1000, r.PaperRMWsPer1000, r.UniquePct, r.PaperUniquePct, r.DrainPct, r.BroadcastsPer100} {
			field("table3", i, 3+j, rec[3+j], v, true)
		}
	}
	fa, fb := csvSection(t, data, "fig11a")[1:], csvSection(t, data, "fig11b")[1:]
	if len(fa) != len(rep.Fig11a) || len(fb) != len(rep.Fig11b) {
		t.Fatalf("CSV Fig. 11 has %d/%d rows, want %d", len(fa), len(fb), len(rep.Fig11a))
	}
	for i, e := range rep.Fig11a {
		if fa[i][0] != e.Benchmark {
			t.Errorf("CSV fig11a row %d is %s, want %s", i, fa[i][0], e.Benchmark)
		}
		for j, typ := range core.AllTypes() {
			for k, v := range []float64{e.WriteBuffer[typ], e.RaWa[typ], e.Total(typ)} {
				field("fig11a", i, 1+3*j+k, fa[i][1+3*j+k], v, e.ran(typ))
			}
		}
	}
	for i, e := range rep.Fig11b {
		if fb[i][0] != e.Benchmark {
			t.Errorf("CSV fig11b row %d is %s, want %s", i, fb[i][0], e.Benchmark)
		}
		for j, typ := range core.AllTypes() {
			field("fig11b", i, 1+2*j, fb[i][1+2*j], e.Overhead[typ], e.ran(typ))
			field("fig11b", i, 2+2*j, fb[i][2+2*j], float64(e.Cycles[typ]), e.ran(typ))
		}
		for j, typ := range []core.AtomicityType{core.Type2, core.Type3} {
			field("fig11b", i, 7+j, fb[i][7+j], e.Speedup(typ), e.hasSpeedup(typ))
		}
	}
	s := rep.Summary
	sum := csvSection(t, data, "summary")[1]
	for j, v := range []float64{s.Type2CostReductionMin, s.Type2CostReductionMax, s.Type3CostReductionMin,
		s.Type3CostReductionMax, s.MaxSpeedupType2, s.MaxSpeedupType3, s.AvgType1DrainShare} {
		field("summary", 0, j, sum[j], v, true)
	}
	if len(rep.SeedStats) == 0 {
		if bytes.Contains(data, []byte("# seed_stats\n")) {
			t.Error("a single-seed CSV report has a seed_stats section")
		}
		return
	}
	ss := csvSection(t, data, "seed_stats")[1:]
	if len(ss) != len(rep.SeedStats) {
		t.Fatalf("CSV seed_stats has %d rows, want %d", len(ss), len(rep.SeedStats))
	}
	for i, a := range rep.SeedStats {
		if ss[i][0] != a.Benchmark || ss[i][1] != a.Type.String() || ss[i][2] != strconv.Itoa(len(a.Seeds)) {
			t.Errorf("CSV seed_stats row %d = %v, want %s %s %d seeds", i, ss[i][:3], a.Benchmark, a.Type, len(a.Seeds))
		}
		for j, v := range []float64{a.MeanRMWCost, a.CI95RMWCost, a.MeanOverheadPct, a.CI95OverheadPct, a.MeanCycles, a.CI95Cycles} {
			field("seed_stats", i, 3+j, ss[i][3+j], v, true)
		}
	}
}

// checkASCIICells reads the ASCII report's Table 3, Fig. 11(a) and (b)
// rows and bars and its summary lines back, cell by cell.
func checkASCIICells(t *testing.T, rep *Report) {
	t.Helper()
	var buf bytes.Buffer
	if err := (ASCIIEncoder{}).Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	between := func(from, to string) string {
		t.Helper()
		_, rest, ok := strings.Cut(doc, from)
		if !ok {
			t.Fatalf("no %q in the ASCII report", from)
		}
		out, _, _ := strings.Cut(rest, to)
		return out
	}
	cells := func(what string, got []string, want ...string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reads %q, want %q", what, got, want)
		}
	}
	table3 := between("Table 3:", "Table 4:")
	for _, r := range rep.Table3 {
		row := tableRow(t, table3, r.Name)
		cells("Table 3 row "+r.Name, row[len(row)-6:], stats.F2(r.RMWsPer1000), stats.F2(r.PaperRMWsPer1000),
			stats.F2(r.UniquePct), stats.F2(r.PaperUniquePct), stats.F2(r.DrainPct), stats.F2(r.BroadcastsPer100))
	}
	absent := func(ok bool, s string) string {
		if !ok {
			return "-"
		}
		return s
	}
	figA, chartA, _ := strings.Cut(between("Fig. 11(a):", "Fig. 11(b):"), "\n\n")
	for _, e := range rep.Fig11a {
		want := []string{e.Benchmark}
		var bars [][2]string
		for _, typ := range core.AllTypes() {
			ran := e.ran(typ)
			want = append(want, absent(ran, stats.F1(e.WriteBuffer[typ])), absent(ran, stats.F1(e.RaWa[typ])), absent(ran, stats.F1(e.Total(typ))))
			bars = append(bars, [2]string{typ.String(), absent(ran, fmt.Sprintf("%.2f", e.Total(typ)))})
		}
		for _, typ := range []core.AtomicityType{core.Type2, core.Type3} {
			ok := e.ran(core.Type1) && e.ran(typ)
			want = append(want, absent(ok, fmt.Sprintf("%+.1f%%", -stats.PercentReduction(e.Total(core.Type1), e.Total(typ)))))
		}
		cells("Fig. 11(a) row "+e.Benchmark, tableRow(t, figA, e.Benchmark), want...)
		if got := chartBars(t, chartA, e.Benchmark); !reflect.DeepEqual(got, bars) {
			t.Errorf("Fig. 11(a) bars of %s read %q, want %q", e.Benchmark, got, bars)
		}
	}
	figB, chartB, _ := strings.Cut(between("Fig. 11(b):", "Headline summary"), "\n\n")
	for _, e := range rep.Fig11b {
		want := []string{e.Benchmark}
		var bars [][2]string
		for _, typ := range core.AllTypes() {
			want = append(want, absent(e.ran(typ), stats.F2(e.Overhead[typ])))
			bars = append(bars, [2]string{typ.String(), absent(e.ran(typ), fmt.Sprintf("%.2f", e.Overhead[typ]))})
		}
		for _, typ := range []core.AtomicityType{core.Type2, core.Type3} {
			want = append(want, absent(e.hasSpeedup(typ), stats.Percent(e.Speedup(typ))))
		}
		cells("Fig. 11(b) row "+e.Benchmark, tableRow(t, figB, e.Benchmark), want...)
		if got := chartBars(t, chartB, e.Benchmark); !reflect.DeepEqual(got, bars) {
			t.Errorf("Fig. 11(b) bars of %s read %q, want %q", e.Benchmark, got, bars)
		}
	}
	if summary := between("Headline summary", "\n\n"); !strings.Contains(doc, rep.Summary.Render()) {
		t.Errorf("the ASCII summary reads\n%s\nwant\n%s", summary, rep.Summary.Render())
	}
}
