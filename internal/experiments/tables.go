package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpp11"
	"repro/internal/litmus"
	"repro/internal/sim"
)

// Table1Row is one row of the paper's Table 1: the synchronization idioms
// one atomicity type supports.
type Table1Row struct {
	Atomicity core.AtomicityType `json:"atomicity"`
	// DekkerReads: Dekker's with reads replaced by RMWs works.
	DekkerReads bool `json:"dekker_reads"`
	// DekkerWrites: Dekker's with writes replaced by RMWs works.
	DekkerWrites bool `json:"dekker_writes"`
	// RMWAsBarrier: an RMW to an unrelated address orders like mfence.
	RMWAsBarrier bool `json:"rmw_as_barrier"`
	// CppReadReplacement: C/C++11 is implementable by mapping SC-atomic
	// reads to RMWs.
	CppReadReplacement bool `json:"cpp_read_replacement"`
	// CppWriteReplacement: C/C++11 is implementable by mapping SC-atomic
	// writes to RMWs.
	CppWriteReplacement bool `json:"cpp_write_replacement"`
}

// RunTable1 regenerates Table 1 by model checking the paper's litmus tests
// (Dekker variants) and validating the C/C++11 mappings.
func RunTable1() ([]Table1Row, error) {
	t4, err := RunTable4()
	if err != nil {
		return nil, err
	}
	return table1(t4)
}

// table1 builds Table 1: the three Dekker columns are model checked here,
// one walk per Dekker test deciding all three types, while the two
// C/C++11 columns are read from the Table 4 rows of the read- and
// write-mappings under the same type, so the two tables cannot disagree.
func table1(t4 []Table4Row) ([]Table1Row, error) {
	type cell struct {
		m   cpp11.Mapping
		typ core.AtomicityType
	}
	sound := map[cell]bool{}
	for _, r := range t4 {
		sound[cell{r.Mapping, r.Atomicity}] = r.Sound
	}
	types := core.AllTypes()
	// An idiom "works" under a type when the mutual-exclusion-failure
	// outcome is forbidden (the litmus condition does NOT hold).
	works := func(t *litmus.Test) ([]bool, error) {
		rs, err := t.Check(context.Background(), types, 0)
		if err != nil {
			return nil, err
		}
		out := make([]bool, len(rs))
		for i, r := range rs {
			out[i] = !r.Holds
		}
		return out, nil
	}
	reads, err := works(litmus.DekkerReadReplacement())
	if err != nil {
		return nil, err
	}
	writes, err := works(litmus.DekkerWriteReplacement())
	if err != nil {
		return nil, err
	}
	barrier, err := works(litmus.DekkerRMWBarrierDifferentAddr())
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(types))
	for i, typ := range types {
		rows[i] = Table1Row{
			Atomicity:           typ,
			DekkerReads:         reads[i],
			DekkerWrites:        writes[i],
			RMWAsBarrier:        barrier[i],
			CppReadReplacement:  sound[cell{cpp11.ReadMapping, typ}],
			CppWriteReplacement: sound[cell{cpp11.WriteMapping, typ}],
		}
	}
	return rows, nil
}

// Table1Expected returns the paper's Table 1 for comparison.
func Table1Expected() []Table1Row {
	return []Table1Row{
		{Atomicity: core.Type1, DekkerReads: true, DekkerWrites: true, RMWAsBarrier: true, CppReadReplacement: true, CppWriteReplacement: true},
		{Atomicity: core.Type2, DekkerReads: true, DekkerWrites: true, RMWAsBarrier: false, CppReadReplacement: true, CppWriteReplacement: true},
		{Atomicity: core.Type3, DekkerReads: true, DekkerWrites: false, RMWAsBarrier: false, CppReadReplacement: true, CppWriteReplacement: false},
	}
}

// RenderTable1 renders Table 1 rows in the paper's layout; it is a thin
// wrapper over the Report model's ASCII section renderer.
func RenderTable1(rows []Table1Row) string { return asciiTable1(rows) }

// RenderTable2 renders the architectural parameters (Table 2).
func RenderTable2(cfg sim.Config) string { return asciiTable2(cfg.Table2()) }

// Table3Row is one row of Table 3: per-benchmark characteristics.
type Table3Row struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
	Size  string `json:"size"`
	// RMWsPer1000 is the measured RMW density; PaperRMWsPer1000 is the
	// value the paper reports.
	RMWsPer1000      float64 `json:"rmws_per_1000"`
	PaperRMWsPer1000 float64 `json:"paper_rmws_per_1000"`
	// UniquePct is the measured fraction of RMWs to unique lines.
	UniquePct      float64 `json:"unique_pct"`
	PaperUniquePct float64 `json:"paper_unique_pct"`
	// DrainPct is the measured fraction of type-2/3 RMWs that reverted to
	// a write-buffer drain.
	DrainPct float64 `json:"drain_pct"`
	// BroadcastsPer100 is the measured addr-list broadcast rate.
	BroadcastsPer100 float64 `json:"broadcasts_per_100"`
}

// Table3FromRuns derives Table 3 from the benchmark runs: the density and
// unique fraction are structural (identical across types); the drain and
// broadcast rates come from the type-2 runs.
func Table3FromRuns(runs []*BenchmarkRun) []Table3Row {
	var rows []Table3Row
	for _, run := range runs {
		t2 := run.Result(core.Type2)
		if t2 == nil {
			// A partial report's surviving groups always carry every type,
			// but guard anyway: a row built from a nil result would panic.
			continue
		}
		rows = append(rows, Table3Row{
			Name:             run.Name,
			Suite:            run.Profile.Suite,
			Size:             run.Profile.ProblemSize,
			RMWsPer1000:      t2.RMWsPer1000MemOps(),
			PaperRMWsPer1000: run.Profile.PaperRMWsPer1000,
			UniquePct:        t2.UniqueRMWPercent(),
			PaperUniquePct:   run.Profile.PaperUniquePct,
			DrainPct:         t2.RevertPercent(),
			BroadcastsPer100: t2.BroadcastsPer100RMWs(),
		})
	}
	return rows
}

// RenderTable3 renders Table 3 rows, including the paper's reference
// values for the structural columns; a thin wrapper over the Report
// model's ASCII section renderer.
func RenderTable3(rows []Table3Row) string { return asciiTable3(rows) }

// Table4Row is one row of the Table 4 mapping validation: which mappings
// are sound under which RMW type, checked on the SC store-buffering
// program.
type Table4Row struct {
	Mapping   cpp11.Mapping      `json:"mapping"`
	Atomicity core.AtomicityType `json:"atomicity"`
	Sound     bool               `json:"sound"`
	// Counterexample is the first forbidden outcome that the compiled
	// program allows, for unsound combinations.
	Counterexample string `json:"counterexample,omitempty"`
}

// RunTable4 validates every Table 4 mapping under every RMW type,
// analyzing the SC store-buffering program's C/C++11 semantics once and
// deciding each mapping's three types in one walk of its compiled
// program.
func RunTable4() ([]Table4Row, error) {
	ctx := context.Background()
	var rows []Table4Row
	sem, err := cpp11.Analyze(cpp11.SCStoreBuffering())
	if err != nil {
		return nil, err
	}
	for _, m := range cpp11.AllMappings() {
		rs, err := sem.Validate(ctx, m, core.AllTypes(), 0)
		if err != nil {
			return nil, err
		}
		for _, res := range rs {
			row := Table4Row{Mapping: m, Atomicity: res.Atomicity, Sound: res.Sound}
			if len(res.Counterexamples) > 0 {
				row.Counterexample = res.Counterexamples[0]
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable4 renders the mapping-validation matrix together with the
// instruction selection of each mapping; a thin wrapper over the Report
// model's ASCII section renderer.
func RenderTable4(rows []Table4Row) string { return asciiTable4(rows) }

// CheckTable1Matches compares generated Table 1 rows against the paper's
// and returns an error describing the first mismatch, if any.
func CheckTable1Matches(got []Table1Row) error {
	want := Table1Expected()
	if len(got) != len(want) {
		return fmt.Errorf("experiments: Table 1 has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("experiments: Table 1 row for %s is %+v, paper says %+v",
				want[i].Atomicity, got[i], want[i])
		}
	}
	return nil
}
