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
//	experiments -enum-workers 8       goroutines per model-checking verdict
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
// Dynamically coordinated sweeps (pull queue instead of a static split):
//
//	experiments -quick -coordinate 4 -format json    in-process: 4 pull workers share the queue
//	experiments -quick -serve-coordinator :7077      serve the plan's units to HTTP workers,
//	                                                 emit the report when the fleet drains it
//	experiments -quick -worker http://host:7077      pull and simulate units until drained
//
// The coordinator hands out one unit at a time under heartbeat-kept
// leases: a crashed worker's lease expires and its unit is requeued, a
// repeatedly failing unit is retried with backoff and then dead-lettered
// (the report gains a dead-letter section and the exit status is 1), and
// a completed coordinated sweep's result tables are byte-identical to an
// unsharded run's. Workers rebuild the identical plan from the same
// flags; the plan-fingerprint handshake refuses a mismatched worker.
// -lease-ttl and -max-attempts tune the lease state machine; -fail-unit
// and -crash-after inject faults for drills and CI.
//
// The sweep is a deterministic plan of content-addressed units (one
// benchmark × RMW type × seed simulation each), so any process that
// builds the plan from the same flags agrees on unit identities: run
// shard i/n on any machine, ship the JSON artifact back, and -merge
// reconstructs a report byte-identical to an unsharded run — it fails
// loudly if a unit is missing, duplicated, from a different plan, or if
// an artifact is corrupt. -format selects the report encoding (ascii
// tables, one JSON document, or multi-section CSV for dashboards).
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
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

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
		enumW    = flag.Int("enum-workers", 0, "goroutines per model-checking verdict (default: auto by candidate count)")
		progress = flag.Bool("progress", false, "stream per-run progress while simulating")
		shardArg = flag.String("shard", "", "run only sweep shard i/n (requires -out)")
		outPath  = flag.String("out", "", "write the shard artifact to this file (with -shard)")
		merge    = flag.Bool("merge", false, "merge the shard artifact files given as arguments into the full report")
		format   = flag.String("format", "", "emit the full report in this format: ascii, json or csv")
		listU    = flag.Bool("list-units", false, "print the sweep plan (unit IDs, traces, types, seeds) and exit")

		coordN     = flag.Int("coordinate", 0, "run the sweep through an in-process pull queue with this many workers")
		serveArg   = flag.String("serve-coordinator", "", "serve the sweep's units to HTTP workers on this address (host:port), emit the report once drained")
		workerArg  = flag.String("worker", "", "pull and simulate units from the coordinator at this URL (http://host:port) until drained")
		workerName = flag.String("worker-name", "", "name this worker reports to the coordinator (default worker-<host>-<pid>)")
		leaseTTL   = flag.Duration("lease-ttl", 0, "coordination: lease time-to-live before a silent worker's unit is requeued (default 15s)")
		maxAtt     = flag.Int("max-attempts", 0, "coordination: attempts per unit before it is dead-lettered (default 3)")
		failUnit   = flag.String("fail-unit", "", "fault injection: comma-separated unit IDs that permanently fail every attempt")
		crashAfter = flag.Int("crash-after", -1, "fault injection: crash the worker (in-process: worker-0) after executing this many units")
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
	// workload generator or the enumeration heuristic (explicit
	// "-cores 0"/"-scale 0" included; the unset default 0 means "keep
	// the preset").
	fs := flag.CommandLine
	if err := cliflags.PositiveIntIfSet(fs, "cores", *cores); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveFloatIfSet(fs, "scale", *scale); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.NonNegativeInt("enum-workers", *enumW); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.NonNegativeInt("j", *par); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveIntIfSet(fs, "seeds", *seeds); err != nil {
		fatalUsage(err)
	}

	// Coordination modes are mutually exclusive roles of the same sweep.
	coordModes := 0
	for _, on := range []bool{*coordN > 0, *serveArg != "", *workerArg != ""} {
		if on {
			coordModes++
		}
	}
	if coordModes > 1 {
		fatalUsage(fmt.Errorf("-coordinate, -serve-coordinator and -worker are mutually exclusive roles"))
	}
	if *coordN < 0 || (*coordN == 0 && cliflags.WasSet(fs, "coordinate")) {
		fatalUsage(fmt.Errorf("-coordinate needs a positive worker count, got %d", *coordN))
	}
	if err := cliflags.PositiveDurationIfSet(fs, "lease-ttl", *leaseTTL); err != nil {
		fatalUsage(err)
	}
	if err := cliflags.PositiveIntIfSet(fs, "max-attempts", *maxAtt); err != nil {
		fatalUsage(err)
	}
	if coordModes == 0 && (*failUnit != "" || *crashAfter >= 0 || cliflags.WasSet(fs, "lease-ttl") || cliflags.WasSet(fs, "max-attempts") || *workerName != "") {
		fatalUsage(fmt.Errorf("-lease-ttl/-max-attempts/-fail-unit/-crash-after/-worker-name only apply to coordinated sweeps (-coordinate, -serve-coordinator or -worker)"))
	}
	if *serveArg != "" && (*failUnit != "" || *crashAfter >= 0) {
		fatalUsage(fmt.Errorf("faults are injected where units execute; pass -fail-unit/-crash-after to -coordinate or to -worker processes"))
	}
	if *workerName != "" && *workerArg == "" {
		fatalUsage(fmt.Errorf("-worker-name only applies with -worker"))
	}
	if *workerArg != "" && (*listU || *merge || *shardArg != "" || *format != "" || *outPath != "") {
		fatalUsage(fmt.Errorf("-worker pulls units from its coordinator and emits nothing; it cannot combine with -list-units/-shard/-merge/-format/-out"))
	}
	if *serveArg != "" && (*listU || *merge || *shardArg != "") {
		fatalUsage(fmt.Errorf("-serve-coordinator coordinates the whole plan and emits the full report; it cannot combine with -list-units/-shard/-merge"))
	}
	if *coordN > 0 && (*listU || *merge) {
		fatalUsage(fmt.Errorf("-coordinate runs the sweep and cannot combine with -list-units/-merge"))
	}

	opts := rmwtso.DefaultOptions()
	if *quick {
		opts = rmwtso.QuickOptions()
	}
	if *cores > 0 {
		opts.Cores = *cores
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *enumW > 0 {
		opts.EnumWorkers = *enumW
	}

	cache, err := rmwtso.OpenCacheFromFlags(*cacheFlags.Enabled, *cacheFlags.Dir, *cacheFlags.Clear)
	check(err)
	opts.Cache = cache

	// The seed list of the sweep: the base seed alone, or -seeds
	// consecutive seeds starting at it. Every mode (plan pipeline and
	// table modes) derives its plan from this one list, so the plan
	// fingerprints of a multi-seed fleet agree.
	seedList := []int64{opts.Seed}
	for s := int64(1); s < int64(*seeds); s++ {
		seedList = append(seedList, opts.Seed+s)
	}

	// Coordinated roles share the sweep Runner; the configuration is the
	// same on every side so the plan fingerprints agree.
	var coordOpts []rmwtso.Option
	if coordModes > 0 {
		crashWorker := "" // -worker: the process has exactly one worker
		if *coordN > 0 {
			crashWorker = "worker-0" // keep the in-process sweep able to finish
		}
		coordOpts = append(coordOpts, rmwtso.WithCoordinator(rmwtso.CoordinationConfig{
			Workers:       *coordN,
			LeaseTTL:      *leaseTTL,
			MaxAttempts:   *maxAtt,
			FaultInjector: buildFaultInjector(*failUnit, *crashAfter, crashWorker),
		}))
	}

	// The plan pipeline: every mode below agrees on unit identities
	// because each rebuilds the same deterministic plan from the flags.
	planMode := *listU || *shardArg != "" || *merge || *format != "" || coordModes > 0
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

		case *workerArg != "":
			name := *workerName
			if name == "" {
				host, _ := os.Hostname()
				if host == "" {
					host = "local"
				}
				name = fmt.Sprintf("worker-%s-%d", host, os.Getpid())
			}
			err := newRunner(*par, cache, *progress, coordOpts...).RunPlanWorker(nil, plan, *workerArg, name)
			if errors.Is(err, rmwtso.ErrInjectedCrash) {
				fmt.Fprintf(os.Stderr, "experiments: worker %s: injected crash (-crash-after %d); lease left to expire\n", name, *crashAfter)
				os.Exit(3)
			}
			check(err)
			fmt.Fprintf(os.Stderr, "experiments: worker %s: queue drained\n", name)
			reportCache(cache)
			return

		case *serveArg != "":
			srv, err := newRunner(*par, cache, *progress, coordOpts...).NewCoordServer(plan, rmwtso.FullShard())
			check(err)
			ln, err := net.Listen("tcp", *serveArg)
			check(err)
			hs := &http.Server{Handler: srv.Handler()}
			go func() { _ = hs.Serve(ln) }()
			fmt.Fprintf(os.Stderr, "experiments: coordinating %d units on %s (plan %s)\n",
				plan.Len(), ln.Addr(), plan.Fingerprint())
			res, err := srv.Wait(context.Background())
			// Linger past the workers' poll interval so every worker sees
			// the drained queue and exits cleanly before the server does.
			time.Sleep(1500 * time.Millisecond)
			_ = hs.Close()
			emitCoordinated(opts, plan, res, err, *format)
			reportCache(cache)
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
			res, err := newRunner(*par, cache, *progress, coordOpts...).RunPlan(nil, plan, shard)
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
			emitReport(opts, runs, *format, nil)
			return

		default: // -format/-coordinate without -shard/-merge: unsharded full report.
			res, err := newRunner(*par, cache, *progress, coordOpts...).RunPlan(nil, plan, rmwtso.FullShard())
			emitCoordinated(opts, plan, res, err, *format)
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
	var runs []*rmwtso.BenchmarkRun
	if needSim {
		plan, err := rmwtso.DefaultPlanSeeds(opts, seedList...)
		check(err)
		res, err := newRunner(*par, cache, *progress).RunPlan(nil, plan, rmwtso.FullShard())
		check(err)
		runs, err = plan.Runs(res.Units)
		check(err)
	}
	report, err := rmwtso.BuildReport(opts, runs)
	check(err)

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
		// Table 2 lists the options' architectural configuration, the
		// same rows as report.Table2.
		fmt.Println(rmwtso.RenderTable2(opts.BaseConfig()))
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

// newRunner builds the sweep Runner shared by the table, plan and
// coordinated modes.
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
			case e.Coord != nil:
				line := "  coord: " + e.Coord.Kind
				if e.Coord.Unit != "" {
					line += " " + string(e.Coord.Unit)
				}
				if e.Coord.Worker != "" {
					line += " worker=" + e.Coord.Worker
				}
				if e.Coord.Attempt > 0 {
					line += fmt.Sprintf(" attempt=%d", e.Coord.Attempt)
				}
				if e.Coord.Reason != "" {
					line += " (" + e.Coord.Reason + ")"
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}))
	}
	return rmwtso.NewRunner(append(runnerOpts, extra...)...)
}

// buildFaultInjector compiles the -fail-unit/-crash-after flags into a
// FaultInjector (nil when neither is set). crashWorker restricts
// -crash-after to one worker name; empty applies it to any worker of the
// process — which is exactly one in -worker mode.
func buildFaultInjector(failUnits string, crashAfter int, crashWorker string) rmwtso.FaultInjector {
	poisoned := map[rmwtso.UnitID]bool{}
	for _, id := range strings.Split(failUnits, ",") {
		if id = strings.TrimSpace(id); id != "" {
			poisoned[rmwtso.UnitID(id)] = true
		}
	}
	if len(poisoned) == 0 && crashAfter < 0 {
		return nil
	}
	var executions atomic.Int64
	return func(worker string, u rmwtso.Unit, attempt int) error {
		if poisoned[u.ID] {
			return fmt.Errorf("injected permanent failure (-fail-unit, attempt %d)", attempt)
		}
		if crashAfter >= 0 && (crashWorker == "" || worker == crashWorker) {
			if executions.Add(1) > int64(crashAfter) {
				return rmwtso.ErrInjectedCrash
			}
		}
		return nil
	}
}

// emitCoordinated finishes a sweep that may have run coordinated: a clean
// result emits the full report (coordination section attached when the
// sweep was dynamic), while dead-lettered units emit the partial report —
// complete trace groups plus the dead-letter section — and exit 1 so CI
// cannot mistake the sweep for a healthy one.
func emitCoordinated(opts rmwtso.Options, plan *rmwtso.Plan, res *rmwtso.ShardResult, err error, format string) {
	var dle *rmwtso.DeadLetterError
	if errors.As(err, &dle) {
		partial := dle.Partial
		runs, missing, perr := plan.RunsPartial(partial.Units)
		check(perr)
		emitReport(opts, runs, format, partial.Coordination)
		fmt.Fprintln(os.Stderr, "experiments:", dle)
		fmt.Fprintf(os.Stderr, "experiments: %d units are missing from the tables above; see the dead-letter section\n", len(missing))
		os.Exit(1)
	}
	check(err)
	runs, err := plan.Runs(res.Units)
	check(err)
	emitReport(opts, runs, format, res.Coordination)
}

// listUnits prints the plan as a fixed-width listing so operators can
// audit shard boundaries before launching a fleet.
func listUnits(plan *rmwtso.Plan) {
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "UNIT\tTRACE\tBENCHMARK\tTYPE\tSEED\tSCALE\n")
	for _, u := range plan.Units() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%g\n", u.ID, u.Trace, u.Benchmark, u.Type, u.Seed, u.Scale)
	}
	w.Flush()
	fmt.Printf("%d units, plan %s\n", plan.Len(), plan.Fingerprint())
}

// emitReport builds the full evaluation report from the runs and encodes
// it on stdout ("" defaults to ascii). A non-nil coord attaches the
// coordination section; the result tables are unaffected either way.
func emitReport(opts rmwtso.Options, runs []*rmwtso.BenchmarkRun, format string, coord *rmwtso.Coordination) {
	if format == "" {
		format = rmwtso.FormatASCII
	}
	report, err := rmwtso.BuildReport(opts, runs)
	check(err)
	report.Coordination = coord
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
