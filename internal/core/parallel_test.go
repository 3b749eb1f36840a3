package core

import (
	"context"
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

func TestOutcomesParallelMatchesSequential(t *testing.T) {
	for _, p := range corePrograms() {
		for _, typ := range AllTypes() {
			m := NewModel(typ)
			seq, err := m.Outcomes(p)
			if err != nil {
				t.Fatalf("%s %s: Outcomes: %v", p.Name, typ, err)
			}
			for _, workers := range []int{1, 2, 8} {
				par, err := m.OutcomesParallel(context.Background(), p, workers)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", p.Name, typ, workers, err)
				}
				if !seq.Equal(par) {
					t.Fatalf("%s %s workers=%d: outcome sets differ:\nseq: %v\npar: %v",
						p.Name, typ, workers, seq.Keys(), par.Keys())
				}
			}
		}
	}
}

func TestValidExecutionsParallelAgreesWithOracle(t *testing.T) {
	// The parallel filter path must agree with the brute-force
	// linearization oracle, execution for execution.
	for _, p := range corePrograms() {
		for _, typ := range AllTypes() {
			fixSet, err := NewModel(typ).OutcomesParallel(context.Background(), p, 4)
			if err != nil {
				t.Fatal(err)
			}
			oracleSet := oracleOutcomes(t, p, typ, 4)
			if !fixSet.Equal(oracleSet) {
				t.Fatalf("%s %s: fixpoint and oracle disagree under parallel enumeration:\nfix: %v\noracle: %v",
					p.Name, typ, fixSet.Keys(), oracleSet.Keys())
			}
		}
	}
}
