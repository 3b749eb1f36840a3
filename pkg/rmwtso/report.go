package rmwtso

import (
	"io"

	"repro/internal/experiments"
)

// Report is the typed, serializable model of the paper's full evaluation
// — Tables 1-4, Fig. 11(a)/(b) and the headline summary — the single
// structure every output format encodes. Plan.Report builds one from a
// shard result, either a local RunPlan's or one merged from shard
// artifacts (MergeShardFiles): a merged report is deeply equal to an
// unsharded run's, so every encoding is byte-identical too.
type Report = experiments.Report

// ReportEncoder renders a Report to a writer in one output format.
// Encodings are deterministic: equal reports produce byte-identical
// output.
type ReportEncoder = experiments.Encoder

// The report output formats of NewReportEncoder and the binaries'
// -format flag: paper-layout fixed-width tables and bar charts, one
// indented JSON document, or multi-section CSV (sections separated by
// `# name` comment lines).
const (
	FormatASCII = experiments.FormatASCII
	FormatJSON  = experiments.FormatJSON
	FormatCSV   = experiments.FormatCSV
)

// ReportFormats lists the supported report output formats.
func ReportFormats() []string { return experiments.Formats() }

// NewReportEncoder returns the encoder for a format name ("ascii",
// "json" or "csv").
func NewReportEncoder(format string) (ReportEncoder, error) { return experiments.NewEncoder(format) }

// BuildReport assembles the evaluation report: the semantics sections
// (Tables 1 and 4) are model checked locally — they are exact and
// identical on every machine — while the simulation sections (Table 3,
// Fig. 11, summary) derive from the runs, which come from Plan.Runs.
// Plan.Report builds the report of a shard result this way.
func BuildReport(o Options, runs []*BenchmarkRun) (*Report, error) {
	return experiments.BuildReport(o, runs)
}

// EncodeReport renders the report to w in the named format.
func EncodeReport(w io.Writer, r *Report, format string) error {
	enc, err := NewReportEncoder(format)
	if err != nil {
		return err
	}
	return enc.Encode(w, r)
}
