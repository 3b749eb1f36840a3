// Command rmwbench is the repository's system benchmark. It measures four
// workloads end to end — a cold and a warm paper sweep, a request mix
// against an in-process rmwtso-serve, and litmus model checking — checks
// every output, and with -trace 1 runs a ladder of direct calls into each
// layer instead, reporting per-layer metrics. See README.md for the
// workloads, metrics and bounds.
//
// Build and run it from the repository root with tools/rmwbench/run.sh:
//
//	bash tools/rmwbench/run.sh                           # all four workloads, each in a child process
//	bash tools/rmwbench/run.sh -runs 10 -out a.json      # ten runs per workload, all at the same seed
//	bash tools/rmwbench/run.sh -workload serve-mix -seed 7 -seconds 10 -trace 0
//	bash tools/rmwbench/run.sh -trace 1                  # traced pass and layer ladder
//	bash tools/rmwbench/run.sh -compare a.json b.json
//
// A single-workload run prints one JSON object as its last line:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
)

// buildDir holds everything a run leaves behind: the binary, the Go
// build cache, scratch directories and span files.
const buildDir = ".bench_build"

// specPath is the benchmark's declaration, relative to the repository
// root that run.sh runs from.
const specPath = "BENCHMARK.json"

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		workloadName = flag.String("workload", "", "run one workload in this process ("+strings.Join(names, ", ")+"); empty runs each workload in a child process")
		seed         = flag.Int64("seed", defaultSeed, "workload seed; all inputs derive from it")
		seconds      = flag.Int("seconds", 0, "measurement budget per run in seconds, which fixes each run's amount of work (default: run_seconds of "+specPath+")")
		trace        = flag.Int("trace", 0, "0: measure the end-to-end metrics; 1: run the traced pass and layer ladder, writing spans to "+buildDir+"/spans-WORKLOAD.json")
		out          = flag.String("out", "", "add the runs to this result file (each metric's per-run values, median, quartiles and sample count)")
		runs         = flag.Int("runs", 1, "with all workloads: runs per workload, all at -seed")
		compare      = flag.Bool("compare", false, "compare two result files (rmwbench -compare a.json b.json) under the bounds of "+specPath)
		recordPath   = flag.String("record", "", "also write the run's full record to this file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "rmwbench: -trace must be 0 or 1")
		return 2
	}

	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmwbench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "rmwbench: -compare needs two result files")
			return 2
		}
		var files [2]*resultFile
		for i := range files {
			if files[i], err = readResultFile(flag.Arg(i)); err != nil {
				fmt.Fprintln(os.Stderr, "rmwbench:", err)
				return 2
			}
			if files[i].Traced {
				fmt.Fprintf(os.Stderr, "rmwbench: %s holds traced runs, whose per-layer metrics have no bounds\n", flag.Arg(i))
				return 2
			}
		}
		if !compareFiles(os.Stdout, spec, files[0], files[1]) {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workloadName == "" {
		return orchestrate(ctx, spec, *seed, *seconds, *runs, *trace == 1, *out)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "rmwbench: unknown workload %q (want one of %s)\n", *workloadName, strings.Join(names, ", "))
		return 2
	}
	rec, tr, err := runChild(ctx, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmwbench: %s: %v\n", w.name, err)
		return 2
	}
	if *recordPath != "" {
		if err := writeJSON(*recordPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "rmwbench:", err)
			return 2
		}
	}
	printRecord(os.Stdout, rec)
	if tr != nil {
		printSpanTotals(os.Stdout, tr.snapshot())
	}
	line, err := json.Marshal(rec.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmwbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in this process, on one CPU (see sizeFor),
// in a scratch directory it removes afterwards. A traced run writes its
// spans to buildDir and returns its tracer for reporting.
func runChild(ctx context.Context, w workload, seed int64, seconds int, traced bool) (*record, *tracer, error) {
	dir := filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, size: sizeFor(seconds), dir: dir}
	runtime.GOMAXPROCS(e.size.Parallelism)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rec, err := run(ctx, w, e, tr)
	if err != nil {
		return nil, nil, err
	}
	rec.Seconds = seconds
	if tr != nil {
		if err := tr.write(filepath.Join(buildDir, "spans-"+w.name+".json"), w.name, seed); err != nil {
			return nil, nil, err
		}
	}
	return rec, tr, nil
}

// orchestrate runs every workload runs times at one seed, each run in a
// fresh child process of this binary so set-up, heap state and peak RSS
// never carry over, then prints the summary and adds the runs to out.
func orchestrate(ctx context.Context, spec *benchSpec, seed int64, seconds, runs int, traced bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmwbench:", err)
		return 2
	}
	tmp := filepath.Join(buildDir, fmt.Sprintf("orchestrate-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rmwbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	trace := "0"
	if traced {
		trace = "1"
	}
	res := &resultFile{Seed: seed, Seconds: seconds, Traced: traced}
	code := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "rmwbench:", err)
		code = 1
	}
	for _, w := range workloads {
		var recs []*record
		for i := 0; i < runs; i++ {
			recPath := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, i))
			fmt.Fprintf(os.Stderr, "rmwbench: %s seed %d (run %d of %d)\n", w.name, seed, i+1, runs)
			cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-record", recPath)
			cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
			// Exit code 1 is a run whose outputs failed a check; its record
			// still counts.
			var exit *exec.ExitError
			if err := cmd.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
				fail(fmt.Errorf("%s seed %d: %w", w.name, seed, err))
				continue
			}
			var rec record
			if err := readJSON(recPath, &rec); err != nil {
				fail(err)
				continue
			}
			recs = append(recs, &rec)
		}
		wr := summarizeRuns(w.name, recs)
		if !wr.Correct {
			code = 1
		}
		res.Workloads = append(res.Workloads, wr)
		printResult(os.Stdout, w, spec, wr)
	}
	if out != "" {
		if err := addRuns(out, res); err != nil {
			fail(err)
		}
	}
	return code
}

// printRecord prints one run's metrics with the distribution of the
// samples behind each.
func printRecord(w io.Writer, r *record) {
	mode := "untraced"
	if r.Traced {
		mode = "traced pass and layer ladder"
	}
	fmt.Fprintf(w, "rmwbench: %s, seed %d, %d s budget, %s\n", r.Workload, r.Seed, r.Seconds, mode)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tvalue\tmedian\tq1\tq3\tsamples")
	for _, ms := range []map[string]sampled{r.Metrics, r.Named} {
		for _, name := range sortedNames(ms) {
			m := ms[name]
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n", name, m.Unit, m.Value, m.Median, m.Q1, m.Q3, m.N)
		}
	}
	tw.Flush()
	if !r.Traced {
		fmt.Fprintf(w, "  times and rates above are at the reference speed: the reference loop took %.4g ms [%.4g, %.4g] over %d samples against %g ms pinned, so times were scaled by about %.4g\n",
			r.RefMS.Median, r.RefMS.Q1, r.RefMS.Q3, r.RefMS.N, refPinnedMS, r.Scale)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %t\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
}

// printSpanTotals prints where a traced run's time went: each span name's
// count, total time and self time.
func printSpanTotals(w io.Writer, spans []span) {
	fmt.Fprintln(w, "  time by span (self time excludes child spans):")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  span\tcount\ttotal ms\tself ms")
	for _, n := range totalsByName(spans) {
		fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.3f\n", n.Name, n.Count, ms(n.Total), ms(n.Self))
	}
	tw.Flush()
}

// printResult prints a workload's metrics summarized across its runs.
func printResult(w io.Writer, wl workload, spec *benchSpec, r workloadResult) {
	why := ""
	for _, e := range spec.Workloads {
		if e.Name == wl.name {
			why = e.Why
		}
	}
	fmt.Fprintf(w, "%s: %s (work_per_s counts %s)\n", r.Name, why, wl.work)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tmedian\tq1\tq3\truns\tsamples")
	for _, ms := range []map[string]metricResult{r.Metrics, r.Named} {
		for _, name := range sortedNames(ms) {
			m := ms[name]
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%d\n", name, m.Unit, m.Median, m.Q1, m.Q3, m.N, m.Samples)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "  attempted %d, failed %d, error_frac %.4g, correct %t\n\n",
		r.Attempted, r.Failed, float64(r.Failed)/math.Max(float64(r.Attempted), 1), r.Correct)
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
