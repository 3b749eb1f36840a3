package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpp11"
	"repro/internal/litmus"
	"repro/internal/memmodel"
	"repro/internal/memmodel/memmodeltest"
)

// TestChainMatchesIndependentFixpoints holds the chain that decides
// several types in one classification — type-3's fixpoint, whose closure
// then seeds type-2's and type-1's (Checker.decide) — to fixpoints run
// independently. On every walked candidate of the registry litmus tests,
// the registry C/C++11 programs compiled under each mapping and 100
// generated programs at each of seeds 23 and 29, the all-types class the
// walk's classifier gives must hold, type by type, exactly the verdict of
// a single-type check, which runs that type's fixpoint from the base
// closure alone (Checker.Valid), and of DeriveAto. On each program it also
// checks the chain's premise on the checker's own rows: every RMW pair's
// type-3 disallowed row is a subset of its type-2 row and of its type-1
// row. The walk skips the candidates whose RMWs break
// memmodel.EnumUniprocAdjacentRMW's condition, which every type rejects
// (TestNonAdjacentRMWCandidatesAreInvalid).
func TestChainMatchesIndependentFixpoints(t *testing.T) {
	programs := registryAndGeneratedPrograms(t)
	single := core.NewChecker()
	types := core.AllTypes()
	checked, mismatches := 0, 0
	// split[t1][t2] counts candidates valid under types[t1] but not under
	// types[t2]: the chain must tell the types apart where they differ.
	var split [3][3]int
	for _, p := range programs {
		premise := false
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			if !premise {
				premise = true
				checkPremise(t, p, x)
			}
			class := x.Class()
			for i, typ := range types {
				chain := class&typ.Bit() != 0
				alone := single.Valid(x, typ)
				derived := core.DeriveAto(x, typ).Valid
				if chain != alone || chain != derived {
					if mismatches++; mismatches <= 3 {
						t.Errorf("%s/%s: chain=%v alone=%v deriveAto=%v for execution:\n%s", p.Name, typ, chain, alone, derived, x)
					}
				}
				for j, other := range types {
					if chain && class&other.Bit() == 0 {
						split[i][j]++
					}
				}
			}
			checked++
			return true
		}, memmodel.EnumUniprocAdjacentRMW(), memmodel.EnumClassify(func() func(*memmodel.Execution) uint64 {
			classify := core.Classifier(types...)()
			// Keep every walked candidate: bit 63 marks the visit.
			return func(x *memmodel.Execution) uint64 { return classify(x) | 1<<63 }
		}))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if mismatches > 3 {
		t.Errorf("%d further mismatches suppressed", mismatches-3)
	}
	// Type-3 valid where type-2 is not, and type-2 valid where type-1 is
	// not, are what a chain that over-seeds or over-rejects would lose.
	if split[2][1] == 0 || split[1][0] == 0 || split[2][0] == 0 {
		t.Fatalf("the types never split: %v", split)
	}
	t.Logf("%d candidates agree; valid under one type and not another (row, column in type order): %v", checked, split)
}

// registryAndGeneratedPrograms returns the programs of the registry
// litmus tests, the registry C/C++11 programs compiled under each mapping
// and 100 generated programs at each of seeds 23 and 29.
func registryAndGeneratedPrograms(t *testing.T) []*memmodel.Program {
	t.Helper()
	var programs []*memmodel.Program
	for _, test := range litmus.AllTests() {
		programs = append(programs, test.Program)
	}
	for _, p := range cpp11.AllPrograms() {
		for _, m := range cpp11.AllMappings() {
			c, err := cpp11.Compile(p, m)
			if err != nil {
				t.Fatal(err)
			}
			programs = append(programs, c)
		}
	}
	for _, seed := range []int64{23, 29} {
		programs = append(programs, memmodeltest.Programs(seed, 100, 20_000)...)
	}
	return programs
}

// checkPremise checks, on the checker's rows for x's program, that every
// RMW pair's type-3 disallowed events are a subset of its type-2 and its
// type-1 disallowed events.
func checkPremise(t *testing.T, p *memmodel.Program, x *memmodel.Execution) {
	t.Helper()
	pairs, row := core.NewChecker().DisallowedRows(x)
	for i := 0; i < pairs; i++ {
		for _, wider := range []core.AtomicityType{core.Type2, core.Type1} {
			for k, w := range row(core.Type3, i) {
				if w&^row(wider, i)[k] != 0 {
					t.Errorf("%s: pair %d's type-3 disallowed row word %d %#x is not a subset of its %s row %#x",
						p.Name, i, k, w, wider, row(wider, i)[k])
				}
			}
		}
	}
}
