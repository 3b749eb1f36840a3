// Dekker explores every synchronization idiom of the paper's Table 1: the
// four ways of porting Dekker's algorithm to TSO with RMWs (read
// replacement, write replacement, RMWs as barriers to different and to the
// same address) plus the Fig. 10 write-deadlock program, each model-checked
// under the three RMW atomicity definitions. For one interesting case it
// also prints the derived atomicity-induced orderings (the ato relation)
// and a witness global memory order.
//
// Run with:
//
//	go run ./examples/dekker
package main

import (
	"fmt"
	"log"

	"repro/pkg/rmwtso"
)

func main() {
	fmt.Println("Table 1 idioms, model-checked under type-1/2/3 RMWs")
	fmt.Println("(\"works\" means the mutual-exclusion-failure outcome is forbidden)")
	fmt.Println()

	for _, test := range rmwtso.PaperSuite().Tests() {
		fmt.Printf("%s\n  %s\n", test.Name, test.Doc)
		results, err := rmwtso.TestsOf(test).Run()
		if err != nil {
			log.Fatal(err)
		}
		for _, res := range results {
			works := "works"
			if res.Holds {
				works = "BROKEN (bad outcome allowed)"
			}
			fmt.Printf("    %-7s %s\n", res.Atomicity, works)
		}
		fmt.Println()
	}

	explainWriteReplacement()
}

// explainWriteReplacement digs into one execution of the Fig. 3 program to
// show the machinery: the ato edges type-2 atomicity induces and a witness
// global memory order, versus the type-3 execution that breaks mutual
// exclusion. The candidate enumeration streams and stops at the first
// matching execution instead of materializing the whole candidate set.
func explainWriteReplacement() {
	fmt.Println("== Why type-2 works for write replacement but type-3 does not ==")
	test := rmwtso.FindTest("dekker-write-replacement (Fig. 3)")
	if test == nil {
		log.Fatal("Fig. 3 test not registered")
	}
	var found *rmwtso.Execution
	err := rmwtso.EnumerateExecutionsFunc(test.Program, func(x *rmwtso.Execution) bool {
		regs := x.RegisterValues()
		// The problematic candidate: both observation reads return 0.
		if regs["P0:r0"] != 0 || regs["P1:r1"] != 0 {
			return true
		}
		if !x.Uniproc() {
			return true
		}
		found = x.Clone() // x is the enumerator's only during this visit
		return false      // stop the enumeration early
	})
	if err != nil {
		log.Fatal(err)
	}
	if found == nil {
		log.Fatal("no candidate execution with the bad outcome found")
	}
	fmt.Println("candidate execution with r0=0 and r1=0:")
	fmt.Print(found)

	fmt.Println("\nunder type-2 atomicity:")
	fmt.Print(rmwtso.Explain(found, rmwtso.Type2))

	fmt.Println("\nunder type-3 atomicity:")
	fmt.Print(rmwtso.Explain(found, rmwtso.Type3))
}
