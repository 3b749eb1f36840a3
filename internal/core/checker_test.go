package core

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memmodel/memmodeltest"
)

// oracleMaxEvents bounds the events of the walked candidates the oracle
// leg of TestCheckerMatchesDeriveAtoAndOracle checks: the linearization
// oracle's search grows factorially with the events, and this bound keeps
// the leg to a few seconds over the generated programs.
const oracleMaxEvents = 16

// TestCheckerMatchesDeriveAtoAndOracle is the differential between the
// incremental fixpoint and its references. On every candidate execution
// of every oracle program and every atomicity type, the reusable Checker,
// the round-based DeriveAto fixpoint and the brute-force linearization
// oracle must agree. One Checker instance is reused across all
// candidates, types and programs, so the per-program cache invalidation
// is exercised too.
//
// On every walked candidate of 100 generated programs it then checks the
// multi-type Classifier, as the walks use it, against Checker.Valid and
// DeriveAto type by type, and against the oracle too on candidates of at
// most oracleMaxEvents events. The walk skips the candidates whose RMWs
// break memmodel.EnumUniprocAdjacentRMW's condition;
// TestNonAdjacentRMWCandidatesAreInvalid checks those.
func TestCheckerMatchesDeriveAtoAndOracle(t *testing.T) {
	c := NewChecker()
	for _, p := range oraclePrograms() {
		execs, err := memmodel.Enumerate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, typ := range AllTypes() {
			mismatches := 0
			for _, x := range execs {
				fast := c.Valid(x, typ)
				slow := DeriveAto(x, typ).Valid
				oracle := ExistsWitnessOrder(x, typ)
				if fast != slow || fast != oracle {
					mismatches++
					if mismatches <= 3 {
						t.Errorf("%s/%s: checker=%v deriveAto=%v oracle=%v for execution:\n%s",
							p.Name, typ, fast, slow, oracle, x)
					}
				}
			}
			if mismatches > 3 {
				t.Errorf("%s/%s: %d further mismatches suppressed", p.Name, typ, mismatches-3)
			}
		}
	}

	checks, oracleChecks, mismatches := 0, 0, 0
	for _, p := range memmodeltest.Programs(23, 100, 20_000) {
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			for _, typ := range AllTypes() {
				walked := x.Class()&typ.Bit() != 0
				valid := c.Valid(x, typ)
				slow := DeriveAto(x, typ).Valid
				oracle := slow
				if len(x.Events) <= oracleMaxEvents {
					oracle = ExistsWitnessOrder(x, typ)
					oracleChecks++
				}
				checks++
				if walked != valid || walked != slow || walked != oracle {
					if mismatches++; mismatches <= 3 {
						t.Errorf("%s/%s: classifier=%v checker=%v deriveAto=%v oracle=%v for execution:\n%s",
							p.Name, typ, walked, valid, slow, oracle, x)
					}
				}
			}
			return true
		}, memmodel.EnumUniprocAdjacentRMW(), memmodel.EnumClassify(func() func(*memmodel.Execution) uint64 {
			classify := Classifier(AllTypes()...)()
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
	if checks == 0 || oracleChecks == 0 {
		t.Fatalf("%d checks, %d of them against the oracle; want both nonzero", checks, oracleChecks)
	}
	t.Logf("generated programs: %d checks agree, %d of them with the oracle", checks, oracleChecks)
}

// TestCheckerSteadyStateAllocationFree pins the hot-path property the
// enumeration arenas rely on: after the first candidate of a program has
// warmed the checker's caches, validity checks allocate nothing, under one
// type (Valid) and under all three in one classification (the walks'
// classifier). The executions are pre-materialized so only the check
// itself is measured.
func TestCheckerSteadyStateAllocationFree(t *testing.T) {
	p := memmodel.NewProgram("alloc-probe")
	p.AddThread(memmodel.Exchange(0, "a0", 1), memmodel.Read(1, "r0"))
	p.AddThread(memmodel.Write(1, 1), memmodel.Read(0, "r1"))
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) == 0 {
		t.Fatal("no candidates")
	}
	c := NewChecker()
	all := maskOf(AllTypes())
	for _, x := range execs {
		c.Valid(x, Type1) // warm the caches and the executions' relations
		c.classify(x, all)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		c.Valid(execs[i%len(execs)], Type1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Checker.Valid allocated %.1f times per steady-state call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		c.classify(execs[i%len(execs)], all)
		i++
	})
	if allocs != 0 {
		t.Fatalf("classifying under all three types allocated %.1f times per steady-state call, want 0", allocs)
	}
}

// BenchmarkClassify is the checker's rung, between the walk's base
// closure (memmodel's BenchmarkBaseClosureWalk) and whole verdicts (the
// root BenchmarkVerdictGenerated): one Checker decides all three types
// for every candidate that the uniproc walks of the first 24 programs of
// the walk-level differential test visit (seed 23, at most 20,000
// candidates each). It holds each candidate's clone and, computed before
// the timer starts, its closed base order (Execution.BaseClosure), so it
// times the checker's own work as classify does it once the base is
// closed: copying the closed base into the work relation and running the
// chain of fixpoints (Checker.decide); a candidate whose base order is
// cyclic costs nothing, as in classify. It reports ns/candidate.
func BenchmarkClassify(b *testing.B) {
	type closed struct {
		x       *memmodel.Execution
		acyclic bool
		base    memmodel.Relation
	}
	var cs []*closed
	for _, p := range memmodeltest.Programs(23, 24, 20_000) {
		err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
			c := &closed{x: x.Clone()}
			c.acyclic = x.BaseClosure(&c.base)
			cs = append(cs, c)
			return true
		}, memmodel.EnumUniprocAdjacentRMW())
		if err != nil {
			b.Fatal(err)
		}
	}
	c := NewChecker()
	all := maskOf(AllTypes())
	run := func() {
		for _, cand := range cs {
			if !cand.acyclic {
				continue
			}
			c.plan.prepare(cand.x)
			c.work.CopyFrom(&cand.base)
			c.decide(all)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cs)), "ns/candidate")
}
