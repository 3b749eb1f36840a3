// Command litmus model-checks litmus tests against the TSO-with-RMW memory
// models of the paper.
//
// Usage:
//
//	litmus -suite            run the full registered suite (paper figures + classics)
//	litmus -filter 'SB*'     run the registered tests matching a glob
//	litmus -test <name>      run one registered test by name
//	litmus -file <path>      run a test from a litmus file
//	litmus -type type-2      restrict to one atomicity type (default: all three)
//	litmus -j 8              worker-pool parallelism (default: GOMAXPROCS)
//	litmus -v                also stream the outcome sets as verdicts finish
//	litmus -format json      emit verdicts as JSON (ascii, csv too)
//
// -j parallelizes across tests: each test is one walk that decides all
// of its selected atomicity types at once, and still reports one verdict
// per test and type. Inside one walk the candidates that satisfy uniproc
// and in which every RMW reads the ws-predecessor of its write half — the
// only ones a verdict checks — are partitioned across goroutines by their
// count: GOMAXPROCS for large spaces, where a single program dominates
// the wall clock, and 1 for small ones.
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/pkg/rmwtso"
)

func main() {
	var (
		suite    = flag.Bool("suite", false, "run the full registered suite")
		filter   = flag.String("filter", "", "run the registered tests matching a glob pattern (e.g. 'SB*')")
		testName = flag.String("test", "", "run one registered test by name")
		file     = flag.String("file", "", "run a test parsed from a litmus file")
		typeName = flag.String("type", "", "atomicity type to check (type-1, type-2, type-3); default all")
		par      = flag.Int("j", 0, "worker-pool parallelism (default: GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "stream outcome sets as verdicts finish")
	)
	formatFlag := cliflags.RegisterFormat(flag.CommandLine, "format", rmwtso.FormatASCII,
		"verdict output format: ascii, json or csv",
		rmwtso.FormatASCII, rmwtso.FormatJSON, rmwtso.FormatCSV)
	flag.Parse()
	format := formatFlag.Value

	if err := cliflags.NonNegativeInt("j", *par); err != nil {
		fatalUsage(err)
	}
	if err := formatFlag.Validate(); err != nil {
		fatalUsage(err)
	}
	var opts []rmwtso.Option
	if *typeName != "" {
		t, err := rmwtso.ParseAtomicityType(*typeName)
		if err != nil {
			fatalUsage(err)
		}
		opts = append(opts, rmwtso.WithRMWTypes(t))
	}
	if *par > 0 {
		opts = append(opts, rmwtso.WithParallelism(*par))
	}

	var view *rmwtso.SuiteView
	switch {
	case *suite:
		view = rmwtso.Suite()
	case *filter != "":
		view = rmwtso.Suite().Filter(*filter)
		if view.Err() == nil && view.Len() == 0 {
			fatal(fmt.Errorf("no registered test matches %q; available tests:\n  %s",
				*filter, strings.Join(rmwtso.Suite().Names(), "\n  ")))
		}
	case *testName != "":
		t := rmwtso.FindTest(*testName)
		if t == nil {
			fatal(fmt.Errorf("unknown test %q; available tests:\n  %s",
				*testName, strings.Join(rmwtso.Suite().Names(), "\n  ")))
		}
		view = rmwtso.TestsOf(t)
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		t, err := rmwtso.ParseTest(string(data))
		if err != nil {
			fatal(err)
		}
		view = rmwtso.TestsOf(t)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if err := view.Err(); err != nil {
		fatal(err)
	}
	job := rmwtso.Job{Litmus: &rmwtso.LitmusGrid{Tests: view.Tests()}}
	if *verbose {
		job.Observer = printVerdict
	}
	h, err := rmwtso.NewRunner(opts...).Submit(nil, job)
	if err != nil {
		fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		fatal(err)
	}
	results := res.Verdicts
	mismatches := 0
	for _, r := range results {
		if !r.Matches {
			mismatches++
		}
	}
	if err := emitResults(os.Stdout, results, *format); err != nil {
		fatal(err)
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "%d result(s) do not match their recorded expectation\n", mismatches)
		os.Exit(1)
	}
}

// printVerdict is the -v stream: each verdict and its outcome set, as
// soon as its test's walk finishes.
func printVerdict(e rmwtso.Event) {
	r := e.Litmus
	fmt.Printf("%s under %s: condition %s -> %v\n", r.Test.Name, r.Atomicity, r.Test.Cond, r.Holds)
	for _, key := range r.Outcomes.Keys() {
		fmt.Printf("    %s\n", key)
	}
}

// verdictRecord is the machine-readable view of one litmus verdict.
type verdictRecord struct {
	Test       string   `json:"test"`
	Type       string   `json:"type"`
	Holds      bool     `json:"holds"`
	Expected   *bool    `json:"expected,omitempty"`
	Matches    bool     `json:"matches"`
	Valid      int      `json:"valid_executions"`
	Candidates int      `json:"candidates"`
	Outcomes   []string `json:"outcomes"`
}

// record flattens a result for the JSON and CSV encodings.
func record(r rmwtso.TestResult) verdictRecord {
	return verdictRecord{
		Test:       r.Test.Name,
		Type:       r.Atomicity.String(),
		Holds:      r.Holds,
		Expected:   r.Expected,
		Matches:    r.Matches,
		Valid:      r.ValidExecutions,
		Candidates: r.Candidates,
		Outcomes:   r.Outcomes.Keys(),
	}
}

// emitResults renders the verdicts in the chosen format: the fixed-width
// report (ascii), one JSON array (json), or one row per verdict with the
// outcome set joined by "; " (csv).
func emitResults(w *os.File, results []rmwtso.TestResult, format string) error {
	switch format {
	case rmwtso.FormatJSON:
		return writeJSON(w, results)
	case rmwtso.FormatCSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"test", "type", "holds", "expected", "matches", "valid_executions", "candidates", "outcomes"}); err != nil {
			return err
		}
		for _, r := range results {
			rec := record(r)
			expected := ""
			if rec.Expected != nil {
				expected = fmt.Sprintf("%v", *rec.Expected)
			}
			if err := cw.Write([]string{rec.Test, rec.Type,
				fmt.Sprintf("%v", rec.Holds), expected, fmt.Sprintf("%v", rec.Matches),
				fmt.Sprintf("%d", rec.Valid), fmt.Sprintf("%d", rec.Candidates),
				strings.Join(rec.Outcomes, "; ")}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	_, err := fmt.Fprint(w, rmwtso.RenderLitmusResults(results))
	return err
}

// writeJSON writes the verdicts as one indented JSON array, the bytes a
// json.Encoder with a two-space indent writes for their records, but one
// record at a time: a record's outcome keys and encoding are garbage once
// it is written, so a large verdict set never holds them all at once.
func writeJSON(w io.Writer, results []rmwtso.TestResult) error {
	// A bufio.Writer keeps its first write error, and Flush returns it.
	bw := bufio.NewWriter(w)
	if len(results) == 0 {
		bw.WriteString("[]\n")
		return bw.Flush()
	}
	bw.WriteString("[\n  ")
	for i, r := range results {
		if i > 0 {
			bw.WriteString(",\n  ")
		}
		b, err := json.MarshalIndent(record(r), "  ", "  ")
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "litmus:", err)
	os.Exit(1)
}

// fatalUsage reports a bad flag value and exits with the usage status.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "litmus:", err)
	os.Exit(2)
}
