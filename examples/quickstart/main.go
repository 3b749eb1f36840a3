// Quickstart: the two halves of the library in one small program, driven
// entirely through the public pkg/rmwtso API.
//
// First the semantics side: model-check Dekker's algorithm with its writes
// replaced by RMWs (the paper's Fig. 3) under the three RMW atomicity
// definitions and print which of them preserve mutual exclusion. Then the
// implementation side: sweep a small lock-based workload across the RMW
// types on the simulated chip multiprocessor and print how much cheaper
// the weaker RMWs are.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/pkg/rmwtso"
)

func main() {
	semantics()
	implementation()
}

// semantics model-checks the Fig. 3 litmus test under type-1/2/3 RMWs.
func semantics() {
	fmt.Println("== Semantics: Dekker's with writes replaced by RMWs (Fig. 3) ==")
	test := rmwtso.FindTest("dekker-write-replacement (Fig. 3)")
	if test == nil {
		log.Fatal("Fig. 3 test not registered")
	}
	fmt.Printf("program:\n%s", test.Program)
	fmt.Printf("mutual exclusion fails iff: %s\n\n", test.Cond)

	results, err := rmwtso.TestsOf(test).Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, result := range results {
		verdict := "mutual exclusion preserved"
		if result.Holds {
			verdict = "MUTUAL EXCLUSION CAN FAIL"
		}
		fmt.Printf("  %-7s %-28s (%d valid executions of %d candidates)\n",
			result.Atomicity, verdict, result.ValidExecutions, result.Candidates)
	}
	fmt.Println()
}

// implementation compares the RMW types' cost on a small simulated
// machine, sweeping the three types in parallel as a one-spec plan.
func implementation() {
	fmt.Println("== Implementation: per-RMW cost on the simulated CMP ==")
	profile, err := rmwtso.FindProfile("radiosity")
	if err != nil {
		log.Fatal(err)
	}
	profile.Iterations = 64 // keep the quickstart fast

	// The plan holds one unit per RMW type. Each unit streams the
	// workload lazily, one episode per core at a time, so the same code
	// runs paper-scale workloads at bounded memory.
	spec := rmwtso.BenchmarkSpec{Profile: profile, Types: rmwtso.AllTypes()}
	plan, err := rmwtso.BuildPlan(rmwtso.Options{Cores: 8, Seed: 1}, []rmwtso.BenchmarkSpec{spec})
	if err != nil {
		log.Fatal(err)
	}
	sr, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		log.Fatal(err)
	}
	runs, err := plan.Runs(sr.Units)
	if err != nil {
		log.Fatal(err)
	}
	bench := runs[0]
	base := bench.Result(rmwtso.Type1)
	_, _, baseCost := base.AvgRMWCost()
	for _, typ := range spec.Types {
		res := bench.Result(typ)
		wb, rawa, total := res.AvgRMWCost()
		fmt.Printf("  %-7s avg RMW cost %6.1f cycles (write-buffer %5.1f + Ra/Wa %5.1f), execution %d cycles",
			typ, total, wb, rawa, res.Cycles)
		if typ != rmwtso.Type1 {
			fmt.Printf("  -> %.1f%% cheaper per RMW, %.1f%% faster overall",
				rmwtso.PercentReduction(baseCost, total),
				rmwtso.PercentReduction(float64(base.Cycles), float64(res.Cycles)))
		}
		fmt.Println()
	}
}
