// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -all                  regenerate everything (Table 1-4, Fig. 11a/b, summary)
//	experiments -table 1              one table (1, 2, 3 or 4)
//	experiments -fig 11a              one figure (11a or 11b)
//	experiments -summary              only the headline summary
//	experiments -quick                use the reduced configuration (8 cores, short workloads)
//	experiments -cores 16 -scale 0.5  custom run size
//	experiments -j 8                  simulation worker-pool parallelism
//	experiments -cache                cache simulation results in ~/.cache/rmwtso
//	experiments -cache-dir DIR        cache simulation results under DIR
//	experiments -cache-clear          clear the cache directory first
//
// Sharded sweeps and machine-readable reports:
//
//	experiments -quick -list-units              print the sweep plan (unit IDs, traces, types, seeds)
//	experiments -quick -format json             full report as one JSON document (csv, ascii too)
//	experiments -quick -shard 0/3 -out s0.json  run shard 0 of 3, write its artifact
//	experiments -quick -merge -format ascii s0.json s1.json s2.json
//	                                            merge shard artifacts into the full report
//
// Every run that executes units — a sweep or -shard — takes -fail-unit,
// which makes the listed units fail every execution. A failing unit is
// dead-lettered after its one attempt (units are deterministic, so a
// retry would fail again) and the other units still run: the report
// gains a dead-letter section and the exit status is 1.
//
// The sweep is a deterministic plan of content-addressed units (one
// benchmark × RMW type × seed simulation each), so any process that
// builds the plan from the same flags agrees on unit identities: run
// shard i/n on any machine, ship the JSON artifact back, and -merge
// reconstructs a report byte-identical to an unsharded run — it fails
// loudly if a unit is missing, duplicated, from a different plan, or if
// an artifact is corrupt. A lost shard is recovered by rerunning its own
// -shard i/n -out and merging again. -format selects the report
// encoding (ascii tables, one JSON document, or multi-section CSV for
// dashboards).
//
// The semantics experiments (Tables 1 and 4) are exact model-checking
// results and always match the paper. The simulation experiments (Table 3,
// Fig. 11) reproduce the paper's shapes on the synthetic workloads; the
// benchmark×type grid is swept in parallel across a worker pool, with each
// run streaming its trace from the workload generator at bounded memory.
// -all, -table, -fig and -summary print sections of the same report that
// -format encodes whole; the sweep runs only when a simulation section is
// requested.
//
// Every simulator run is a pure function of (config, trace, seed, scale,
// RMW type), so with -cache (or -cache-dir) results are stored in a
// content-addressed cache and warm reruns regenerate byte-identical
// tables without executing a single cached simulation; the hit/miss
// counters are reported on stderr and per-run cache hits are flagged by
// -progress. Shards share the same keys: a unit cached by one sweep is a
// cache hit for every shard that covers it.
package main

import (
	"errors"
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
		all      = flag.Bool("all", false, "regenerate every table and figure")
		table    = flag.String("table", "", "regenerate one table: 1, 2, 3 or 4")
		fig      = flag.String("fig", "", "regenerate one figure: 11a or 11b")
		summary  = flag.Bool("summary", false, "print the headline summary")
		quick    = flag.Bool("quick", false, "use the reduced configuration")
		cores    = flag.Int("cores", 0, "override the number of simulated cores")
		scale    = flag.Float64("scale", 0, "override the workload scale factor")
		seed     = flag.Int64("seed", 0, "override the workload seed")
		seeds    = flag.Int("seeds", 0, "rerun the sweep under this many consecutive seeds (base -seed) and report cross-seed mean/CI statistics")
		par      = flag.Int("j", 0, "simulation worker-pool parallelism (default: GOMAXPROCS)")
		progress = flag.Bool("progress", false, "stream per-run progress while simulating")
		shardArg = flag.String("shard", "", "run only sweep shard i/n (requires -out)")
		outPath  = flag.String("out", "", "write the shard artifact to this file (with -shard)")
		merge    = flag.Bool("merge", false, "merge the shard artifact files given as arguments into the full report")
		format   = flag.String("format", "", "emit the full report in this format: ascii, json or csv")
		listU    = flag.Bool("list-units", false, "print the sweep plan (unit IDs, traces, types, seeds) and exit")
		failUnit = flag.String("fail-unit", "", "fault injection: comma-separated unit IDs that fail every execution")
	)
	cacheFlags := cliflags.RegisterCache(flag.CommandLine)
	flag.Parse()

	// Arm fault injection before any I/O when the chaos environment
	// variable is set (simulation scenarios only), with a stderr banner
	// so a faulted run can never be mistaken for a clean one.
	if banner, err := rmwtso.InstallChaosFromEnv(); err != nil {
		fatalUsage(err)
	} else if banner != "" {
		fmt.Fprintln(os.Stderr, banner)
	}

	// Reject flag values that would otherwise flow as garbage into the
	// workload generator (explicit "-cores 0"/"-scale 0" included; the
	// unset default 0 means "keep the preset").
	fs := flag.CommandLine
	if err := cliflags.PositiveIntIfSet(fs, "cores", *cores); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveFloatIfSet(fs, "scale", *scale); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.NonNegativeInt("j", *par); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveIntIfSet(fs, "seeds", *seeds); err != nil {
		fatalUsage(err)
	}

	if *failUnit != "" && (*listU || *merge) {
		fatalUsage(fmt.Errorf("faults are injected where units execute; -fail-unit applies to a sweep or -shard, not to -list-units/-merge"))
	}

	// Every mode (plan pipeline and table modes) derives its plan from
	// this one spec, so the plan fingerprints of a multi-seed sharded
	// sweep agree, and so does the HTTP service's plan for the same spec.
	spec := rmwtso.SweepSpec{Preset: "default", Cores: *cores, Scale: *scale, Seed: *seed, Seeds: *seeds}
	if *quick {
		spec.Preset = "quick"
	}
	opts, seedList, err := spec.Options()
	check(err)

	cache, err := rmwtso.OpenCacheFromFlags(*cacheFlags.Enabled, *cacheFlags.Dir, *cacheFlags.Clear)
	check(err)

	// Every Runner of the process injects the same faults.
	var faultOpts []rmwtso.Option
	if faults := buildFaultInjector(*failUnit); faults != nil {
		faultOpts = append(faultOpts, rmwtso.WithFaultInjector(faults))
	}

	// The plan pipeline: every mode below agrees on unit identities
	// because each rebuilds the same deterministic plan from the flags.
	planMode := *listU || *shardArg != "" || *merge || *format != ""
	if *outPath != "" && *shardArg == "" {
		fatalUsage(fmt.Errorf("-out only applies with -shard"))
	}
	if planMode {
		if *all || *table != "" || *fig != "" || *summary {
			fatalUsage(fmt.Errorf("-list-units/-shard/-merge/-format emit whole-plan output and cannot be combined with -all/-table/-fig/-summary"))
		}
		if *listU && *format != "" {
			fatalUsage(fmt.Errorf("-list-units prints the plan listing; -format only applies to full reports"))
		}
		plan, err := rmwtso.DefaultPlanSeeds(opts, seedList...)
		check(err)

		switch {
		case *listU:
			listUnits(plan)
			return

		case *shardArg != "":
			if *merge {
				fatalUsage(fmt.Errorf("-shard runs a sweep subset and cannot be combined with -merge"))
			}
			if *format != "" {
				fatalUsage(fmt.Errorf("-shard always writes the artifact envelope; -format only applies to full reports (-merge or neither)"))
			}
			if *outPath == "" {
				fatalUsage(fmt.Errorf("-shard needs -out FILE to write the shard artifact"))
			}
			shard, err := rmwtso.ParseShard(*shardArg)
			check(err)
			res, err := newRunner(*par, cache, *progress, faultOpts...).RunPlan(nil, plan, shard)
			var dle *rmwtso.DeadLetterError
			if errors.As(err, &dle) {
				// A shard artifact with holes would only fail the merge
				// later; fail here, where the dead letters are known.
				fmt.Fprintln(os.Stderr, "experiments:", err)
				fmt.Fprintln(os.Stderr, "experiments: no artifact written: a shard with dead-lettered units cannot merge")
				os.Exit(1)
			}
			check(err)
			check(res.WriteFile(*outPath))
			hits := 0
			for _, u := range res.Units {
				if u.CacheHit {
					hits++
				}
			}
			fmt.Fprintf(os.Stderr, "experiments: shard %s: %d of %d units (%d cache hits) -> %s\n",
				shard, len(res.Units), plan.Len(), hits, *outPath)
			reportCache(cache)
			return

		case *merge:
			if flag.NArg() == 0 {
				fatalUsage(fmt.Errorf("-merge needs shard artifact files as arguments"))
			}
			runs, err := rmwtso.MergeShardFiles(plan, flag.Args()...)
			check(err)
			report, err := rmwtso.BuildReport(opts, runs)
			check(err)
			emitReport(report, *format)
			return

		default: // -format without -shard/-merge: unsharded full report.
			res, err := newRunner(*par, cache, *progress, faultOpts...).RunPlan(nil, plan, rmwtso.FullShard())
			var dle *rmwtso.DeadLetterError
			if !errors.As(err, &dle) {
				check(err)
			}
			// A sweep with dead letters emits the partial report — complete
			// trace groups plus the dead-letter section — and exits 1 so CI
			// cannot mistake it for a healthy one.
			report, rerr := plan.Report(res)
			check(rerr)
			emitReport(report, *format)
			if dle != nil {
				fmt.Fprintln(os.Stderr, "experiments:", dle)
				fmt.Fprintf(os.Stderr, "experiments: %d units are missing from the tables above; see the dead-letter section\n", len(res.Coordination.DeadLetters))
				os.Exit(1)
			}
			reportCache(cache)
			return
		}
	}

	if !*all && *table == "" && *fig == "" && !*summary {
		flag.Usage()
		os.Exit(2)
	}

	// The table modes print sections of the same Report the -format mode
	// encodes.
	needSim := *all || *table == "3" || *fig == "11a" || *fig == "11b" || *summary
	if !needSim && *failUnit != "" {
		fatalUsage(fmt.Errorf("-fail-unit needs a run that simulates; -table 1, 2 and 4 execute no units"))
	}
	var report *rmwtso.Report
	if needSim {
		plan, err := rmwtso.DefaultPlanSeeds(opts, seedList...)
		check(err)
		res, err := newRunner(*par, cache, *progress, faultOpts...).RunPlan(nil, plan, rmwtso.FullShard())
		check(err)
		report, err = plan.Report(res)
		check(err)
	} else {
		report, err = rmwtso.BuildReport(opts, nil)
		check(err)
	}

	if *all || *table == "1" {
		fmt.Println(rmwtso.RenderTable1(report.Table1))
		if err := rmwtso.CheckTable1Matches(report.Table1); err != nil {
			fmt.Println("WARNING:", err)
		} else {
			fmt.Println("Table 1 matches the paper exactly.")
		}
		fmt.Println()
	}
	if *all || *table == "2" {
		fmt.Println(rmwtso.RenderTable2(report.Table2))
		fmt.Println()
	}
	if *all || *table == "4" {
		fmt.Println(rmwtso.RenderTable4(report.Table4))
		fmt.Println()
	}
	if !needSim {
		reportCache(cache)
		return
	}

	fmt.Printf("Simulating the Table 3 benchmark set (%d cores, scale %.2f)...\n\n", opts.Cores, opts.Scale)
	if *all || *table == "3" {
		fmt.Println(rmwtso.RenderTable3(report.Table3))
		fmt.Println()
	}
	if *all || *fig == "11a" {
		fmt.Println(rmwtso.RenderFig11a(report.Fig11a))
		fmt.Println()
	}
	if *all || *fig == "11b" {
		fmt.Println(rmwtso.RenderFig11b(report.Fig11b))
		fmt.Println()
	}
	if *all || *summary {
		fmt.Println(report.Summary.Render())
	}
	if len(report.SeedStats) > 0 {
		fmt.Println()
		fmt.Println(rmwtso.RenderSeedAggregates(report.SeedStats))
	}
	reportCache(cache)
}

// newRunner builds the sweep Runner shared by the table and plan modes.
func newRunner(par int, cache *rmwtso.Cache, progress bool, extra ...rmwtso.Option) *rmwtso.Runner {
	runnerOpts := []rmwtso.Option{}
	if par > 0 {
		runnerOpts = append(runnerOpts, rmwtso.WithParallelism(par))
	}
	if cache != nil {
		runnerOpts = append(runnerOpts, rmwtso.WithCache(cache))
	}
	if progress {
		runnerOpts = append(runnerOpts, rmwtso.WithObserver(func(e rmwtso.Event) {
			switch {
			case e.Sim != nil:
				verb := "done"
				if e.Sim.CacheHit {
					verb = "cached"
				}
				fmt.Fprintf(os.Stderr, "  %s: %s: %s under %s (%d cycles)\n",
					verb, e.Sim.Unit, e.Sim.Trace, e.Sim.Type, e.Sim.Result.Cycles)
			case e.DeadLetter != nil:
				d := e.DeadLetter
				fmt.Fprintf(os.Stderr, "  coord: dead-letter %s attempt=%d (%s)\n", d.Unit, d.Attempts, d.Reasons[len(d.Reasons)-1])
			}
		}))
	}
	return rmwtso.NewRunner(append(runnerOpts, extra...)...)
}

// buildFaultInjector compiles the -fail-unit flag into a FaultInjector
// (nil when it names no unit). A poisoned unit fails its one attempt.
func buildFaultInjector(failUnits string) rmwtso.FaultInjector {
	poisoned := map[rmwtso.UnitID]bool{}
	for _, id := range strings.Split(failUnits, ",") {
		if id = strings.TrimSpace(id); id != "" {
			poisoned[rmwtso.UnitID(id)] = true
		}
	}
	if len(poisoned) == 0 {
		return nil
	}
	return func(u rmwtso.Unit) error {
		if poisoned[u.ID] {
			return errors.New("injected permanent failure (-fail-unit, attempt 1)")
		}
		return nil
	}
}

// listUnits prints the plan as a fixed-width listing so operators can
// audit shard boundaries before launching the shards.
func listUnits(plan *rmwtso.Plan) {
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "UNIT\tTRACE\tBENCHMARK\tTYPE\tSEED\tSCALE\n")
	for _, u := range plan.Units() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%g\n", u.ID, u.Trace, u.Benchmark, u.Type, u.Seed, u.Scale)
	}
	w.Flush()
	fmt.Printf("%d units, plan %s\n", plan.Len(), plan.Fingerprint())
}

// emitReport encodes the report on stdout in the format ("" defaults to
// ascii).
func emitReport(report *rmwtso.Report, format string) {
	if format == "" {
		format = rmwtso.FormatASCII
	}
	check(rmwtso.EncodeReport(os.Stdout, report, format))
}

// reportCache prints the cache traffic counters on stderr (never stdout,
// so cached and uncached table output stays byte-identical).
func reportCache(cache *rmwtso.Cache) {
	if cache == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "cache: %s (dir %s)\n", cache.Stats(), cache.Dir())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// fatalUsage reports a bad flag combination and exits with the
// conventional usage status.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}
