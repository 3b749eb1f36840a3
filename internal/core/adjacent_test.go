package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/memmodel/memmodeltest"
)

// TestNonAdjacentRMWCandidatesAreInvalid is the soundness check of the
// RMW condition that memmodel.EnumUniprocAdjacentRMW adds to uniproc: a
// candidate in which some RMW reads from a write other than the
// ws-predecessor of its write half must be invalid under every atomicity
// type. It takes every full-walk candidate that satisfies
// Execution.Uniproc but not memmodeltest.AdjacentRMW, of core's oracle
// programs, the registry litmus tests, the registry C/C++11 programs
// compiled under each mapping and 100 generated programs at each of seeds
// 23 and 29, and under each type Checker.Valid, DeriveAto and, on
// candidates of at most OracleMaxEvents events, the linearization oracle
// must reject it. The verdict walks skip these candidates, so this test
// is where the checker still meets them.
func TestNonAdjacentRMWCandidatesAreInvalid(t *testing.T) {
	programs := append(core.OraclePrograms(), registryAndGeneratedPrograms(t)...)
	c := core.NewChecker()
	checked, oracleChecks, accepted := 0, 0, 0
	for _, p := range programs {
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			if !x.Uniproc() || memmodeltest.AdjacentRMW(x) {
				return true
			}
			checked++
			for _, typ := range core.AllTypes() {
				valid := c.Valid(x, typ)
				derived := core.DeriveAto(x, typ).Valid
				oracle := false
				if len(x.Events) <= core.OracleMaxEvents {
					oracle = core.ExistsWitnessOrder(x, typ)
					oracleChecks++
				}
				if valid || derived || oracle {
					if accepted++; accepted <= 3 {
						t.Errorf("%s/%s: checker=%v deriveAto=%v oracle=%v accept a candidate whose RMW does not read the ws-predecessor of its write half:\n%s",
							p.Name, typ, valid, derived, oracle, x)
					}
				}
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if accepted > 3 {
		t.Errorf("%d further acceptances suppressed", accepted-3)
	}
	if checked == 0 || oracleChecks == 0 {
		t.Fatalf("%d candidates checked, %d oracle checks; want both nonzero", checked, oracleChecks)
	}
	t.Logf("%d uniproc candidates with a non-adjacent RMW rejected under every type, %d of the checks by the oracle too", checked, oracleChecks)
}
