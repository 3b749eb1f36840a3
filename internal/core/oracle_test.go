package core

import (
	"testing"

	"repro/internal/memmodel"
)

// oraclePrograms gathers small programs whose candidate executions are
// exhaustively cross-checked between the ato-fixpoint validity check and the
// brute-force linearization oracle.
func oraclePrograms() []*memmodel.Program {
	var out []*memmodel.Program
	out = append(out,
		dekkerWriteReplacement(),
		dekkerReadReplacement(),
		dekkerRMWBarrierSameAddr(),
	)

	sbRMW := memmodel.NewProgram("sb-one-rmw")
	sbRMW.AddThread(memmodel.Exchange(0, "a0", 1), memmodel.Read(1, "r0"))
	sbRMW.AddThread(memmodel.Write(1, 1), memmodel.Read(0, "r1"))
	out = append(out, sbRMW)

	mpRMW := memmodel.NewProgram("mp-rmw-flag")
	mpRMW.AddThread(memmodel.Write(0, 1), memmodel.Exchange(1, "a0", 1))
	mpRMW.AddThread(memmodel.FetchAdd(1, "r0", 0), memmodel.Read(0, "r1"))
	out = append(out, mpRMW)

	faaRace := memmodel.NewProgram("faa-race")
	faaRace.AddThread(memmodel.FetchAdd(0, "r0", 1), memmodel.Read(1, "r1"))
	faaRace.AddThread(memmodel.FetchAdd(0, "r2", 1), memmodel.Write(1, 1))
	out = append(out, faaRace)

	rmwFence := memmodel.NewProgram("rmw-and-fence")
	rmwFence.AddThread(memmodel.Write(0, 1), memmodel.Fence(), memmodel.FetchAdd(1, "r0", 0))
	rmwFence.AddThread(memmodel.Write(1, 1), memmodel.Read(0, "r1"))
	out = append(out, rmwFence)

	return out
}

// TestFixpointMatchesOracle cross-validates DeriveAto against the
// brute-force existential-ghb oracle on every candidate execution of every
// oracle program, for all three atomicity types. This is the central
// soundness/completeness check of the semantics implementation.
func TestFixpointMatchesOracle(t *testing.T) {
	for _, p := range oraclePrograms() {
		execs, err := memmodel.Enumerate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, typ := range AllTypes() {
			mismatches := 0
			for _, x := range execs {
				fix := Valid(x, typ)
				oracle := ExistsWitnessOrder(x, typ)
				if fix != oracle {
					mismatches++
					if mismatches <= 3 {
						t.Errorf("%s/%s: fixpoint=%v oracle=%v for execution:\n%s",
							p.Name, typ, fix, oracle, x)
					}
				}
			}
			if mismatches > 3 {
				t.Errorf("%s/%s: %d further mismatches suppressed", p.Name, typ, mismatches-3)
			}
		}
	}
}

// TestGlobalOrderSatisfiesAtomicity checks that the witness order returned
// by GlobalOrder really has no disallowed event between the halves of any
// RMW, and is a linear extension of the derived order.
func TestGlobalOrderSatisfiesAtomicity(t *testing.T) {
	for _, p := range oraclePrograms() {
		execs, err := memmodel.Enumerate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, typ := range AllTypes() {
			for _, x := range execs {
				ghb, ok := GlobalOrder(x, typ)
				if !ok {
					continue
				}
				if len(ghb) != len(x.Events) {
					t.Fatalf("%s/%s: witness order has %d events, want %d", p.Name, typ, len(ghb), len(x.Events))
				}
				if !CheckGHBAtomicity(x, ghb, typ) {
					t.Errorf("%s/%s: GlobalOrder violates atomicity:\n%s", p.Name, typ, x)
				}
				// Linear extension of com ∪ ppo ∪ bar.
				pos := map[int]int{}
				for i, e := range ghb {
					pos[e.Index] = i
				}
				for _, pr := range x.BaseOrder().Pairs() {
					if pos[pr[0]] >= pos[pr[1]] {
						t.Errorf("%s/%s: witness order violates base edge %v -> %v",
							p.Name, typ, x.Events[pr[0]], x.Events[pr[1]])
					}
				}
			}
		}
	}
}

// TestFindWitnessOrderAgreesWithCheck checks that FindWitnessOrder's output
// always passes CheckGHBAtomicity.
func TestFindWitnessOrderAgreesWithCheck(t *testing.T) {
	p := dekkerReadReplacement()
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range AllTypes() {
		for _, x := range execs {
			order, ok := FindWitnessOrder(x, typ)
			if !ok {
				continue
			}
			if !CheckGHBAtomicity(x, order, typ) {
				t.Errorf("%s: FindWitnessOrder returned an order violating atomicity", typ)
			}
		}
	}
}

// oracleOutcomes is Model.OutcomesParallel with validity decided by the
// brute-force linearization oracle instead of the ato fixpoint, over
// workers goroutines.
func oracleOutcomes(t *testing.T, p *memmodel.Program, typ AtomicityType, workers int) *OutcomeSet {
	t.Helper()
	set := NewOutcomeSet()
	err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
		set.Add(OutcomeOf(x))
		return true
	}, memmodel.EnumWorkers(workers),
		memmodel.EnumFilter(func(x *memmodel.Execution) bool { return ExistsWitnessOrder(x, typ) }))
	if err != nil {
		t.Fatalf("%s/%s: oracle enumeration: %v", p.Name, typ, err)
	}
	return set
}

// TestModelOracleAgreesWithFixpointOutcomes checks the two validity backends
// produce identical outcome sets at the model level.
func TestModelOracleAgreesWithFixpointOutcomes(t *testing.T) {
	for _, p := range oraclePrograms() {
		for _, typ := range AllTypes() {
			fix, err := NewModel(typ).Outcomes(p)
			if err != nil {
				t.Fatal(err)
			}
			oracle := oracleOutcomes(t, p, typ, 1)
			if !fix.Equal(oracle) {
				t.Errorf("%s/%s: fixpoint outcomes %v != oracle outcomes %v",
					p.Name, typ, fix.Keys(), oracle.Keys())
			}
		}
	}
}

// TestCheckGHBAtomicityRejectsBadOrder builds an order with a write wedged
// between the halves of an RMW and checks the literal atomicity check
// rejects it under type-1.
func TestCheckGHBAtomicityRejectsBadOrder(t *testing.T) {
	p := memmodel.NewProgram("wedge")
	p.AddThread(memmodel.Exchange(0, "a0", 1))
	p.AddThread(memmodel.Write(1, 1))
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	x := execs[0]
	pair := RMWPairs(x)[0]
	var wy *memmodel.Event
	var inits []*memmodel.Event
	for _, e := range x.Events {
		if e.Kind == memmodel.KindWrite && e.Addr == 1 {
			wy = e
		}
		if e.IsInit() {
			inits = append(inits, e)
		}
	}
	bad := append([]*memmodel.Event{}, inits...)
	bad = append(bad, x.Events[pair.Read], wy, x.Events[pair.Write])
	if CheckGHBAtomicity(x, bad, Type1) {
		t.Error("type-1 check must reject a write between Ra and Wa")
	}
	if !CheckGHBAtomicity(x, bad, Type2) {
		t.Error("type-2 check must accept a different-address write between Ra and Wa")
	}
	if !CheckGHBAtomicity(x, bad, Type3) {
		t.Error("type-3 check must accept a different-address write between Ra and Wa")
	}
	good := append([]*memmodel.Event{}, inits...)
	good = append(good, x.Events[pair.Read], x.Events[pair.Write], wy)
	if !CheckGHBAtomicity(x, good, Type1) {
		t.Error("type-1 check must accept an order with nothing between Ra and Wa")
	}
}

// TestCheckGHBAtomicityRejectsReversedHalves checks that an order placing Wa
// before Ra is rejected.
func TestCheckGHBAtomicityRejectsReversedHalves(t *testing.T) {
	p := memmodel.NewProgram("reversed")
	p.AddThread(memmodel.Exchange(0, "a0", 1))
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	x := execs[0]
	pair := RMWPairs(x)[0]
	var init *memmodel.Event
	for _, e := range x.Events {
		if e.IsInit() {
			init = e
		}
	}
	order := []*memmodel.Event{init, x.Events[pair.Write], x.Events[pair.Read]}
	for _, typ := range AllTypes() {
		if CheckGHBAtomicity(x, order, typ) {
			t.Errorf("%s: Wa before Ra must be rejected", typ)
		}
	}
}
