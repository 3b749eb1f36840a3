// Lockfree reproduces the paper's C/C++11 experiment on the lock-free
// work-stealing program (wsq-mst): the Chase-Lev deque's pop uses a
// Dekker-like "write bottom; read top" synchronization whose SC accesses
// can be compiled to RMWs either on the read side (wsq-mst_rr) or the write
// side (wsq-mst_wr). The example sweeps both variants under the RMW
// types that are sound for them and reports the per-RMW cost and execution
// time, showing that read replacement puts more pending writes in front of
// each RMW (costlier drains for type-1) and that type-3 RMWs give the read
// replacement an extra edge.
//
// Run with:
//
//	go run ./examples/lockfree
package main

import (
	"fmt"
	"log"

	"repro/pkg/rmwtso"
)

func main() {
	profile := rmwtso.WSQProfile()
	profile.Iterations = 120 // keep the example quick

	// Type-3 RMWs cannot replace SC-atomic writes (§2.5), so the write
	// replacement only runs under type-1 and type-2.
	specs := []rmwtso.BenchmarkSpec{
		{Profile: profile, Variant: rmwtso.WriteReplacement, Types: []rmwtso.AtomicityType{rmwtso.Type1, rmwtso.Type2}},
		{Profile: profile, Variant: rmwtso.ReadReplacement, Types: rmwtso.AllTypes()},
	}
	titles := []string{"wsq-mst_wr (SC writes -> RMW)", "wsq-mst_rr (SC reads -> RMW)"}

	// One plan holds both variants' units. Each unit streams its own copy
	// of the workload; nothing is materialized even though the units run
	// concurrently.
	plan, err := rmwtso.BuildPlan(rmwtso.Options{Cores: 8, Seed: 7}, specs)
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
	for i, run := range runs {
		fmt.Println(titles[i])
		var baseCost float64
		var baseCycles uint64
		for _, typ := range specs[i].Types {
			res := run.Result(typ)
			wb, rawa, total := res.AvgRMWCost()
			fmt.Printf("  %-7s RMW cost %6.1f (WB %5.1f + Ra/Wa %5.1f)  exec %8d cycles  overhead %5.2f%%",
				typ, total, wb, rawa, res.Cycles, res.RMWOverheadPercent())
			if typ == rmwtso.Type1 {
				baseCost, baseCycles = total, res.Cycles
			} else {
				fmt.Printf("  (RMW -%.1f%%, exec -%.1f%%)",
					rmwtso.PercentReduction(baseCost, total),
					rmwtso.PercentReduction(float64(baseCycles), float64(res.Cycles)))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
