package experiments

import (
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/workload"
)

// ReportSchemaVersion versions the serialized Report model (and with it
// the JSON and CSV encodings). Consumers must reject reports of a schema
// they do not understand instead of misreading renamed fields.
const ReportSchemaVersion = 1

// Report is the typed, serializable model of the paper's full evaluation:
// Tables 1-4, Fig. 11(a)/(b) and the headline summary. It is what every
// encoder (ASCII, JSON, CSV) renders and what MergeShards reconstructs
// from shard artifacts — a merged report is deeply equal to an unsharded
// run's, so every encoding of it is byte-identical too.
type Report struct {
	// SchemaVersion is ReportSchemaVersion at build time.
	SchemaVersion int `json:"schema_version"`
	// Cores and Scale record the run shape the report was built from.
	Cores int     `json:"cores"`
	Scale float64 `json:"scale"`
	// Seed is the workload generation seed of the simulation sweep.
	Seed int64 `json:"seed"`
	// Table1 is the idiom-support matrix; Table1Matches records whether it
	// reproduces the paper's table exactly.
	Table1        []Table1Row `json:"table1"`
	Table1Matches bool        `json:"table1_matches_paper"`
	// Table2 is the architectural parameter listing (component, setting).
	Table2 [][2]string `json:"table2"`
	// Table3 is the benchmark-characteristics table.
	Table3 []Table3Row `json:"table3"`
	// Table4 is the mapping-soundness matrix.
	Table4 []Table4Row `json:"table4"`
	// Fig11a and Fig11b are the per-RMW cost split and execution-time
	// overhead figures.
	Fig11a []Fig11aEntry `json:"fig11a"`
	Fig11b []Fig11bEntry `json:"fig11b"`
	// Summary is the headline summary derived from the figures.
	Summary Summary `json:"summary"`
	// SeedStats, for multi-seed sweeps, holds the cross-seed mean/CI
	// statistics per (benchmark, RMW type). It is nil — and omitted from
	// every encoding — for single-seed sweeps, preserving byte-identity
	// with pre-aggregation reports.
	SeedStats []SeedAggregate `json:"seed_stats,omitempty"`
	// Coordination, on the partial report of a sweep that dead-lettered
	// units, lists those units (and the HTTP service's "coordinate" jobs
	// carry an empty one). It is nil for a complete sweep, and being
	// execution metadata it is excluded from byte-identity comparisons of
	// the result tables.
	Coordination *Coordination `json:"coordination,omitempty"`
}

// semanticsTables holds the report's semantics results: Tables 1 and 4
// and whether Table 1 reproduces the paper's.
type semanticsTables struct {
	table1   []Table1Row
	table1OK bool
	table4   []Table4Row
}

// semantics model checks Tables 1 and 4 once per process. They take no
// input and their walks are deterministic, so every report of a process
// reads the same rows; an error (a broken model checker) is kept with
// them and fails every report alike. The rows are plain values, and
// BuildReport hands each report its own copy.
var semantics = sync.OnceValues(func() (semanticsTables, error) {
	t4, err := RunTable4()
	if err != nil {
		return semanticsTables{}, err
	}
	t1, err := table1(t4)
	if err != nil {
		return semanticsTables{}, err
	}
	return semanticsTables{table1: t1, table1OK: CheckTable1Matches(t1) == nil, table4: t4}, nil
})

// BuildReport assembles the full evaluation report from finished
// benchmark runs: the semantics results (Tables 1 and 4) are model
// checked locally, once per process — they are exact, fast and identical
// on every machine — while the simulation sections (Table 3, Fig. 11,
// summary) derive from the runs, which may come from a local sweep or
// from merged shard artifacts. Table 3 is computed over the
// non-replacement runs (the Table 3 benchmark set); Fig. 11 covers every
// run.
//
// Multi-seed sweeps (runs carrying more than one distinct
// BenchmarkRun.Seed) build the per-seed sections from the base seed's
// runs — o.Seed, matching the report's stamped Seed — and additionally
// derive the cross-seed mean/CI statistics (SeedStats) over all runs.
func BuildReport(o Options, runs []*BenchmarkRun) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	sem, err := semantics()
	if err != nil {
		return nil, err
	}
	baseRuns := runs
	if multiSeed(runs) {
		baseRuns = nil
		for _, run := range runs {
			if run.Seed == o.Seed {
				baseRuns = append(baseRuns, run)
			}
		}
	}
	var table3Runs []*BenchmarkRun
	for _, run := range baseRuns {
		if run.Variant == workload.NoReplacement {
			table3Runs = append(table3Runs, run)
		}
	}
	figA, figB := Fig11FromRuns(baseRuns)
	cfg := o.BaseConfig()
	return &Report{
		SchemaVersion: ReportSchemaVersion,
		Cores:         cfg.Cores,
		Scale:         normalizedScale(o.Scale),
		Seed:          o.Seed,
		Table1:        slices.Clone(sem.table1),
		Table1Matches: sem.table1OK,
		Table2:        cfg.Table2(),
		Table3:        Table3FromRuns(table3Runs),
		Table4:        slices.Clone(sem.table4),
		Fig11a:        figA,
		Fig11b:        figB,
		Summary:       Summarize(figA, figB),
		SeedStats:     AggregateSeeds(runs),
	}, nil
}

// normalizedScale maps the "unset" scale spellings (zero and negative,
// which the generator treats as no scaling) to the canonical 1, matching
// the cache-key normalization so a report and its units agree.
func normalizedScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// Encoder renders a Report to a writer in one output format. Encodings
// are deterministic: equal reports produce byte-identical output.
type Encoder interface {
	Encode(w io.Writer, r *Report) error
}

// Output format names accepted by NewEncoder (and the binaries' -format
// flag).
const (
	FormatASCII = "ascii"
	FormatJSON  = "json"
	FormatCSV   = "csv"
)

// Formats lists the supported report output formats.
func Formats() []string { return []string{FormatASCII, FormatJSON, FormatCSV} }

// NewEncoder returns the encoder for a format name.
func NewEncoder(format string) (Encoder, error) {
	switch format {
	case FormatASCII:
		return ASCIIEncoder{}, nil
	case FormatJSON:
		return JSONEncoder{}, nil
	case FormatCSV:
		return CSVEncoder{}, nil
	}
	return nil, fmt.Errorf("experiments: unknown report format %q (want ascii, json or csv)", format)
}
