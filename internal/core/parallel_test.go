package core

import (
	"context"
	"maps"
	"slices"
	"testing"

	"repro/internal/memmodel"
)

// corePrograms returns representative programs: plain TSO, RMWs as
// barriers, and an RMW race whose cyclic rf candidates are dropped.
func corePrograms() []*memmodel.Program {
	sb := memmodel.NewProgram("SB")
	sb.AddThread(memmodel.Write(0, 1), memmodel.Read(1, "r0"))
	sb.AddThread(memmodel.Write(1, 1), memmodel.Read(0, "r1"))

	dekker := memmodel.NewProgram("dekker-rmw")
	dekker.AddThread(memmodel.Exchange(0, "a0", 1), memmodel.Read(1, "r0"))
	dekker.AddThread(memmodel.Exchange(1, "a1", 1), memmodel.Read(0, "r1"))

	tas := memmodel.NewProgram("tas-race")
	tas.AddThread(memmodel.TestAndSet(0, "r0"))
	tas.AddThread(memmodel.TestAndSet(0, "r1"))

	return []*memmodel.Program{sb, dekker, tas}
}

// TestOutcomesParallelMatchesSequential checks the walked verdicts
// against a sequential reference: one Verdicts walk of all three types,
// at 1, 2 and 8 workers, must find for every type the valid count and
// outcome set that filtering the full candidate walk with DeriveAto does.
func TestOutcomesParallelMatchesSequential(t *testing.T) {
	for _, p := range corePrograms() {
		types := AllTypes()
		valid := make([]int, len(types))
		want := make([][]string, len(types))
		for i, typ := range types {
			keys := map[string]bool{}
			err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
				if DeriveAto(x, typ).Valid {
					valid[i]++
					keys[OutcomeOf(x).Key()] = true
				}
				return true
			})
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, typ, err)
			}
			want[i] = slices.Sorted(maps.Keys(keys))
		}
		for _, workers := range []int{1, 2, 8} {
			vs, err := Verdicts(context.Background(), p, types, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name, workers, err)
			}
			for i, v := range vs {
				if v.Type != types[i] || v.Valid != valid[i] || !slices.Equal(v.Outcomes.Keys(), want[i]) {
					t.Fatalf("%s %s workers=%d: walk finds %d valid, outcomes %v; sequential reference %d, %v",
						p.Name, types[i], workers, v.Valid, v.Outcomes.Keys(), valid[i], want[i])
				}
			}
		}
	}
}

// TestValidExecutionsParallelAgreesWithOracle checks that an all-types
// walk over parallel workers agrees with the brute-force linearization
// oracle, type by type.
func TestValidExecutionsParallelAgreesWithOracle(t *testing.T) {
	for _, p := range corePrograms() {
		vs, err := Verdicts(context.Background(), p, AllTypes(), 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			oracle := oracleOutcomes(t, p, v.Type, 4)
			if !slices.Equal(v.Outcomes.Keys(), oracle) {
				t.Fatalf("%s %s: fixpoint and oracle disagree under parallel enumeration:\nfix: %v\noracle: %v",
					p.Name, v.Type, v.Outcomes.Keys(), oracle)
			}
		}
	}
}

// TestVerdictsRejectUnknownType pins that a walk refuses a type outside
// the paper's three instead of deciding it.
func TestVerdictsRejectUnknownType(t *testing.T) {
	for _, typ := range []AtomicityType{0, Type3 + 1} {
		if _, err := Verdicts(context.Background(), corePrograms()[0], []AtomicityType{Type1, typ}, 1); err == nil {
			t.Errorf("Verdicts accepted %s", typ)
		}
	}
}
