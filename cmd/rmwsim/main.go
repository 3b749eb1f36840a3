// Command rmwsim runs one benchmark workload on the chip-multiprocessor
// simulator and prints the run's statistics, including the per-RMW cost
// split. Workload traces are streamed from the generator one episode at a
// time, so even very large -scale values run at bounded memory.
//
// A benchmark run is a one-spec sweep plan (one unit per RMW type), run
// through the same engine as cmd/experiments: its unit IDs and cache
// entries are exactly those of the same units in a cmd/experiments sweep,
// and a run that deadlocks (possible only with -naive) fails with the
// engine's error. The hand-built fig10 pattern is not a workload; it is
// simulated directly and never cached.
//
// Usage:
//
//	rmwsim -bench bayes -type type-2
//	rmwsim -bench wsq-mst -replace read -type type-3 -cores 16
//	rmwsim -bench fig10 -type type-2 -naive       demonstrate the write-deadlock
//	rmwsim -bench fig10 -check                    model-check the pattern first
//	rmwsim -bench bayes -sweep                    compare all three RMW types
//	rmwsim -list                                   list the available benchmarks
//
// -check (fig10 only) model-checks the write-deadlock litmus test before
// simulating: the cyclic outcome is forbidden under every atomicity type,
// which is exactly why the naive implementation that waits for it wedges.
//
// -cache (or -cache-dir DIR) serves repeated benchmark runs from the
// content-addressed result cache: a run is keyed by (config, trace, seed,
// scale, RMW type), so an identical invocation replays the stored
// statistics instead of simulating. -cache-clear empties the cache
// directory first.
//
// -format json emits each run as one JSON object; a benchmark run is
// tagged with its stable unit ID (the same identity cmd/experiments plans
// and shards by), so it slots into the same dashboards and merge tooling
// as a full sweep. The default, ascii, prints the human-readable
// statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/pkg/rmwtso"
)

// runRecord is the machine-readable view of one simulator run.
type runRecord struct {
	Unit     string            `json:"unit,omitempty"`
	Trace    string            `json:"trace"`
	Type     string            `json:"type"`
	CacheHit bool              `json:"cache_hit,omitempty"`
	Result   *rmwtso.SimResult `json:"result"`
}

// emitRun prints one finished run in the chosen format.
func emitRun(format string, rec runRecord) {
	if format == rmwtso.FormatJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(rec.Result.String())
}

func main() {
	var (
		benchName = flag.String("bench", "radiosity", "benchmark to run (see -list), or 'fig10' for the write-deadlock pattern")
		typeName  = flag.String("type", "type-1", "RMW implementation: type-1, type-2 or type-3")
		replace   = flag.String("replace", "none", "wsq-mst C/C++11 variant: none, read or write")
		cores     = flag.Int("cores", 32, "number of simulated cores")
		scale     = flag.Float64("scale", 1.0, "iteration-count scale factor")
		seed      = flag.Int64("seed", 20130601, "workload generation seed")
		naive     = flag.Bool("naive", false, "disable the bloom-filter deadlock avoidance (type-2/3 only)")
		sweep     = flag.Bool("sweep", false, "run the trace under all three RMW types in parallel")
		check     = flag.Bool("check", false, "model-check the fig10 litmus test before simulating it")
		list      = flag.Bool("list", false, "list available benchmarks and exit")
	)
	formatFlag := cliflags.RegisterFormat(flag.CommandLine, "format", rmwtso.FormatASCII,
		"run output format: ascii or json",
		rmwtso.FormatASCII, rmwtso.FormatJSON)
	cacheFlags := cliflags.RegisterCache(flag.CommandLine)
	flag.Parse()
	format := formatFlag.Value

	if *list {
		fmt.Println("Benchmarks:", strings.Join(rmwtso.ProfileNames(), ", "), "and fig10")
		return
	}

	// Reject values the workload generator would otherwise accept
	// silently as garbage.
	if err := cliflags.PositiveInt("cores", *cores); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveFloat("scale", *scale); err != nil {
		fatalUsage(err)
	}
	if err := formatFlag.Validate(); err != nil {
		fatalUsage(err)
	}
	typ, err := rmwtso.ParseAtomicityType(*typeName)
	if err != nil {
		fatalUsage(err)
	}
	types := []rmwtso.AtomicityType{typ}
	if *sweep {
		// -sweep compares the RMW types, so an explicit -type contradicts
		// it; reject the combination instead of silently ignoring one.
		if cliflags.WasSet(flag.CommandLine, "type") {
			fatalUsage(fmt.Errorf("-sweep runs all three RMW types and cannot be combined with -type"))
		}
		types = rmwtso.AllTypes()
	}
	variant, err := parseReplace(*replace)
	if err != nil {
		fatalUsage(err)
	}
	fig10 := *benchName == "fig10"
	var profile rmwtso.Profile
	switch {
	case fig10 && *cores < 2:
		fatalUsage(fmt.Errorf("the fig10 pattern needs at least 2 cores, got %d", *cores))
	case !fig10 && *check:
		fatalUsage(fmt.Errorf("-check model-checks the fig10 write-deadlock pattern; it cannot be combined with -bench %s", *benchName))
	case !fig10:
		if profile, err = rmwtso.FindProfile(*benchName); err != nil {
			fatalUsage(err)
		}
	}

	cache, err := rmwtso.OpenCacheFromFlags(*cacheFlags.Enabled, *cacheFlags.Dir, *cacheFlags.Clear)
	if err != nil {
		fatal(err)
	}
	if *check {
		t := rmwtso.FindTest("write-deadlock (Fig. 10)")
		if t == nil {
			fatal(fmt.Errorf("the write-deadlock litmus test is not registered"))
		}
		results, err := rmwtso.TestsOf(t).Run()
		if err != nil {
			fatal(err)
		}
		fmt.Println("semantic verdict for the Fig. 10 pattern (the cyclic outcome must be forbidden):")
		fmt.Print(rmwtso.RenderLitmusResults(results))
		fmt.Println()
	}
	cfg := rmwtso.DefaultSimConfig().WithCores(*cores)
	cfg.DisableDeadlockAvoidance = *naive
	// Validated before any trace is built: the fig10 trace is sized by
	// the core count.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	if fig10 {
		// The Fig. 10 pattern is a handful of hand-built ops, not a
		// workload: it has no seed or scale, so it is simulated directly
		// and never cached.
		for _, t := range types {
			res, err := rmwtso.SimulateSource(cfg.WithRMWType(t), rmwtso.Fig10Trace(*cores).Source())
			if err != nil {
				fatal(err)
			}
			emitRun(*format, runRecord{Trace: res.Workload, Type: t.String(), Result: res})
			if !*sweep && res.Deadlocked {
				reportCache(cache)
				fmt.Println("the run deadlocked: this is the Fig. 10 write-deadlock that the bloom-filter protocol prevents")
				os.Exit(1)
			}
		}
		reportCache(cache)
		return
	}

	spec := rmwtso.BenchmarkSpec{Profile: profile, Variant: variant, Types: types}
	plan, err := rmwtso.BuildPlan(rmwtso.Options{Cores: *cores, Scale: *scale, Seed: *seed, Config: &cfg}, []rmwtso.BenchmarkSpec{spec})
	if err != nil {
		fatal(err)
	}
	res, err := rmwtso.NewRunner(rmwtso.WithCache(cache)).RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		fatal(err)
	}
	for _, u := range res.Units {
		switch {
		case u.CacheHit && *sweep:
			fmt.Fprintf(os.Stderr, "rmwsim: %s under %s served from cache\n", u.Trace, u.Type)
		case u.CacheHit:
			fmt.Fprintln(os.Stderr, "rmwsim: result served from cache")
		}
		emitRun(*format, runRecord{Unit: string(u.Unit), Trace: u.Trace, Type: u.Type.String(), CacheHit: u.CacheHit, Result: u.Result})
	}
	reportCache(cache)
}

// reportCache prints the cache counters on stderr when caching is on.
func reportCache(cache *rmwtso.Cache) {
	if cache == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "rmwsim: cache: %s (dir %s)\n", cache.Stats(), cache.Dir())
}

// parseReplace parses the -replace flag: the wsq-mst C/C++11 variant.
func parseReplace(replace string) (rmwtso.Replacement, error) {
	switch replace {
	case "none", "":
		return rmwtso.NoReplacement, nil
	case "read":
		return rmwtso.ReadReplacement, nil
	case "write":
		return rmwtso.WriteReplacement, nil
	default:
		return rmwtso.NoReplacement, fmt.Errorf("unknown replacement %q (want none, read or write)", replace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmwsim:", err)
	os.Exit(1)
}

// fatalUsage reports a bad flag value and exits with the usage status.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "rmwsim:", err)
	os.Exit(2)
}
