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
//	litmus -shard 0/3        run only verdict shard 0 of 3
//	litmus -list-units       print the verdict grid (unit IDs) and exit
//	litmus -format json      emit verdicts as JSON (ascii, csv too)
//
// -j parallelizes across tests: each test is one walk that decides all
// of its selected atomicity types at once, and still reports one verdict
// per test and type. Inside one walk the candidates that satisfy uniproc
// — the only ones a verdict checks — are partitioned across goroutines
// by their count: GOMAXPROCS for IRIW-sized spaces, where a single
// program dominates the wall clock, and 1 for small ones.
//
// The (test, type) verdict grid is a deterministic unit plan just like
// the simulation sweep: every unit's ID derives from the verdict's
// content digest (the test's canonical rendering and the atomicity type),
// so -shard i/n splits one suite across processes (disjoint, collectively
// exhaustive, same IDs everywhere), -list-units audits the boundaries
// first, and -format json/csv emits unit-tagged verdicts that downstream
// tooling can merge by ID.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

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
		shardArg = flag.String("shard", "", "run only verdict shard i/n")
		listU    = flag.Bool("list-units", false, "print the verdict grid (unit ID, test, type) and exit")
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
	shard := rmwtso.FullShard()
	if *shardArg != "" {
		var err error
		if shard, err = rmwtso.ParseShard(*shardArg); err != nil {
			fatalUsage(err)
		}
	}

	types := rmwtso.AllTypes()
	var opts []rmwtso.Option
	if *typeName != "" {
		t, err := rmwtso.ParseAtomicityType(*typeName)
		if err != nil {
			fatal(err)
		}
		types = []rmwtso.AtomicityType{t}
		opts = append(opts, rmwtso.WithRMWTypes(t))
	}
	if *par > 0 {
		opts = append(opts, rmwtso.WithParallelism(*par))
	}
	if *verbose {
		opts = append(opts, rmwtso.WithObserver(func(e rmwtso.Event) {
			r := e.Litmus
			if r == nil {
				return
			}
			fmt.Printf("%s: %s under %s: condition %s -> %v\n", r.Unit, r.Test.Name, r.Atomicity, r.Test.Cond, r.Holds)
			for _, key := range r.Outcomes.Keys() {
				fmt.Printf("    %s\n", key)
			}
		}))
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

	if *listU {
		if err := view.Err(); err != nil {
			fatal(err)
		}
		listUnits(view, types, shard)
		return
	}

	results, err := view.RunShard(shard, opts...)
	if err != nil {
		fatal(err)
	}
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

// listUnits prints the verdict grid the shard covers, so operators can
// audit shard boundaries before splitting a suite across processes.
func listUnits(view *rmwtso.SuiteView, types []rmwtso.AtomicityType, shard rmwtso.Shard) {
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "UNIT\tTEST\tTYPE\n")
	total, selected := 0, 0
	pos := 0
	for _, t := range view.Tests() {
		for _, typ := range types {
			total++
			if shard.Covers(pos) {
				selected++
				fmt.Fprintf(w, "%s\t%s\t%s\n", rmwtso.LitmusUnitID(t, typ), t.Name, typ)
			}
			pos++
		}
	}
	w.Flush()
	fmt.Printf("%d of %d verdict units\n", selected, total)
}

// verdictRecord is the machine-readable view of one litmus verdict.
type verdictRecord struct {
	Unit       string   `json:"unit"`
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
		Unit:       r.Unit,
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
		recs := make([]verdictRecord, len(results))
		for i, r := range results {
			recs[i] = record(r)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(recs)
	case rmwtso.FormatCSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"unit", "test", "type", "holds", "expected", "matches", "valid_executions", "candidates", "outcomes"}); err != nil {
			return err
		}
		for _, r := range results {
			rec := record(r)
			expected := ""
			if rec.Expected != nil {
				expected = fmt.Sprintf("%v", *rec.Expected)
			}
			if err := cw.Write([]string{rec.Unit, rec.Test, rec.Type,
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "litmus:", err)
	os.Exit(1)
}

// fatalUsage reports a bad flag value and exits with the usage status.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "litmus:", err)
	os.Exit(2)
}
