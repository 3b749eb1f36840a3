package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/memmodel"
)

// The programs below are the paper's figures, built directly on the
// memmodel DSL. internal/litmus re-exposes them with richer metadata; these
// local copies keep the core package's tests self-contained.

// dekkerWriteReplacement is Fig. 3: writes replaced by RMWs.
//
//	P0: RMW(x); R(y)     P1: RMW(y); R(x)
//
// Mutual exclusion fails iff both plain reads return 0.
func dekkerWriteReplacement() *memmodel.Program {
	p := memmodel.NewProgram("dekker-write-replacement")
	p.AddThread(memmodel.Exchange(0, "a0", 1), memmodel.Read(1, "r0"))
	p.AddThread(memmodel.Exchange(1, "a1", 1), memmodel.Read(0, "r1"))
	return p
}

// dekkerReadReplacement is Fig. 4: reads replaced by RMWs.
//
//	P0: W(x)=1; RMW(y)   P1: W(y)=1; RMW(x)
//
// Mutual exclusion fails iff both RMW reads return 0.
func dekkerReadReplacement() *memmodel.Program {
	p := memmodel.NewProgram("dekker-read-replacement")
	p.AddThread(memmodel.Write(0, 1), memmodel.FetchAdd(1, "r0", 0))
	p.AddThread(memmodel.Write(1, 1), memmodel.FetchAdd(0, "r1", 0))
	return p
}

// dekkerRMWBarrierDiffAddr is Fig. 5: RMWs to two different addresses z1, z2
// used in place of memory barriers.
//
//	P0: W(x)=1; RMW(z1); R(y)   P1: W(y)=1; RMW(z2); R(x)
func dekkerRMWBarrierDiffAddr() *memmodel.Program {
	p := memmodel.NewProgram("dekker-rmw-barrier-diff-addr")
	p.AddThread(memmodel.Write(0, 1), memmodel.Exchange(2, "a0", 1), memmodel.Read(1, "r0"))
	p.AddThread(memmodel.Write(1, 1), memmodel.Exchange(3, "a1", 1), memmodel.Read(0, "r1"))
	return p
}

// dekkerRMWBarrierSameAddr is Fig. 8: both barrier RMWs access the same
// address z.
func dekkerRMWBarrierSameAddr() *memmodel.Program {
	p := memmodel.NewProgram("dekker-rmw-barrier-same-addr")
	p.AddThread(memmodel.Write(0, 1), memmodel.FetchAdd(2, "a0", 1), memmodel.Read(1, "r0"))
	p.AddThread(memmodel.Write(1, 1), memmodel.FetchAdd(2, "a1", 1), memmodel.Read(0, "r1"))
	return p
}

// mutualExclusionFails is the "both critical sections entered" predicate for
// the Dekker variants: both observation registers read 0.
func mutualExclusionFails(reg0, reg1 string) func(Outcome) bool {
	return func(o Outcome) bool {
		return o.Registers[reg0] == 0 && o.Registers[reg1] == 0
	}
}

// verdict model-checks the program under one atomicity type.
func verdict(t *testing.T, p *memmodel.Program, typ AtomicityType) Verdict {
	t.Helper()
	vs, err := Verdicts(context.Background(), p, []AtomicityType{typ}, 1)
	if err != nil {
		t.Fatalf("%s/%s: %v", p.Name, typ, err)
	}
	return vs[0]
}

// outcomeAt builds outcome i of the set as an Outcome, its registers and
// locations keyed by their columns.
func outcomeAt(s *OutcomeSet, i int) Outcome {
	row := s.Row(i)
	o := Outcome{
		Registers: make(map[string]memmodel.Value, len(s.Registers())),
		Memory:    make(map[memmodel.Addr]memmodel.Value, len(s.Locations())),
	}
	for j, name := range s.Registers() {
		o.Registers[name] = row[j]
	}
	for j, a := range s.Locations() {
		o.Memory[a] = row[len(s.Registers())+j]
	}
	return o
}

// allows model-checks the program under the given atomicity type and
// reports whether some valid execution's outcome satisfies pred.
func allows(t *testing.T, p *memmodel.Program, typ AtomicityType, pred func(Outcome) bool) bool {
	t.Helper()
	s := verdict(t, p, typ).Outcomes
	for i := 0; i < s.Len(); i++ {
		if pred(outcomeAt(s, i)) {
			return true
		}
	}
	return false
}

// allowsBadOutcome model-checks the program under the given atomicity type
// and reports whether the mutual-exclusion-failure outcome is allowed.
func allowsBadOutcome(t *testing.T, p *memmodel.Program, typ AtomicityType) bool {
	t.Helper()
	return allows(t, p, typ, mutualExclusionFails("P0:r0", "P1:r1"))
}

// TestTable1DekkerWriteReplacement checks the first column of Table 1:
// Dekker's with writes replaced by RMWs works under type-1 and type-2 but
// not under type-3.
func TestTable1DekkerWriteReplacement(t *testing.T) {
	p := dekkerWriteReplacement()
	if allowsBadOutcome(t, p, Type1) {
		t.Error("type-1: write-replacement Dekker must forbid the bad outcome")
	}
	if allowsBadOutcome(t, p, Type2) {
		t.Error("type-2: write-replacement Dekker must forbid the bad outcome")
	}
	if !allowsBadOutcome(t, p, Type3) {
		t.Error("type-3: write-replacement Dekker must allow the bad outcome (paper §2.5)")
	}
}

// TestTable1DekkerReadReplacement checks the second column of Table 1:
// read replacement works under all three atomicity types.
func TestTable1DekkerReadReplacement(t *testing.T) {
	p := dekkerReadReplacement()
	for _, typ := range AllTypes() {
		if allowsBadOutcome(t, p, typ) {
			t.Errorf("%s: read-replacement Dekker must forbid the bad outcome", typ)
		}
	}
}

// TestTable1RMWAsBarrier checks the third column of Table 1: only a type-1
// RMW can stand in for a memory barrier when the RMWs access different
// addresses.
func TestTable1RMWAsBarrier(t *testing.T) {
	p := dekkerRMWBarrierDiffAddr()
	if allowsBadOutcome(t, p, Type1) {
		t.Error("type-1: RMW-as-barrier must forbid the bad outcome")
	}
	if !allowsBadOutcome(t, p, Type2) {
		t.Error("type-2: RMW-as-barrier (different addresses) must allow the bad outcome (paper §2.4)")
	}
	if !allowsBadOutcome(t, p, Type3) {
		t.Error("type-3: RMW-as-barrier (different addresses) must allow the bad outcome")
	}
}

// TestRMWAsBarrierSameAddress checks Fig. 8: when the barrier RMWs
// synchronize on the same address, type-2 (and type-3) RMWs do enforce the
// required ordering.
func TestRMWAsBarrierSameAddress(t *testing.T) {
	p := dekkerRMWBarrierSameAddr()
	for _, typ := range AllTypes() {
		if allowsBadOutcome(t, p, typ) {
			t.Errorf("%s: same-address barrier RMWs must forbid the bad outcome (Fig. 8)", typ)
		}
	}
}

// TestLemma1InducedOrdering checks the first half of Lemma 1 directly: a
// type-1 RMW after a write W1 forces W1 before Ra in the derived order of
// every valid execution.
func TestLemma1InducedOrdering(t *testing.T) {
	p := memmodel.NewProgram("lemma1")
	p.AddThread(memmodel.Write(0, 1), memmodel.Exchange(1, "a0", 1), memmodel.Read(2, "r0"))
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, x := range execs {
		res := DeriveAto(x, Type1)
		if !res.Valid {
			continue
		}
		checked++
		var w1, ra *memmodel.Event
		for _, e := range x.Events {
			if e.Thread == 0 && e.Kind == memmodel.KindWrite && e.Addr == 0 {
				w1 = e
			}
			if e.Thread == 0 && e.Kind == memmodel.KindRMWRead {
				ra = e
			}
		}
		closure := res.Order.Clone().TransitiveClosure()
		if !closure.Has(w1.Index, ra.Index) {
			t.Errorf("valid type-1 execution without W1 -> Ra ordering:\n%s", x)
		}
	}
	if checked == 0 {
		t.Fatal("no valid executions checked")
	}
}

// TestLemma2InducedOrdering checks the ato edge the paper derives for
// Fig. 3 under type-2 atomicity: when the plain read R(y) reads from before
// the other thread's RMW write W'a(y) (R(y) -fr-> W'a(y)), atomicity induces
// R(y) -ato-> R'a(y).
func TestLemma2InducedOrdering(t *testing.T) {
	p := dekkerWriteReplacement()
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, x := range execs {
		regs := x.RegisterValues()
		// Pick candidates where P0's plain read of y returns 0 (reads from
		// before P1's RMW write).
		if regs["P0:r0"] != 0 {
			continue
		}
		res := DeriveAto(x, Type2)
		if !res.Valid {
			continue
		}
		checked++
		var ry, raP1 *memmodel.Event
		for _, e := range x.Events {
			if e.Thread == 0 && e.Kind == memmodel.KindRead && e.Addr == 1 {
				ry = e
			}
			if e.Thread == 1 && e.Kind == memmodel.KindRMWRead {
				raP1 = e
			}
		}
		closure := res.Order.Clone().TransitiveClosure()
		if !closure.Has(ry.Index, raP1.Index) {
			t.Errorf("type-2 valid execution missing induced R(y) -> R'a(y) ordering:\n%s", x)
		}
	}
	if checked == 0 {
		t.Fatal("no valid executions checked")
	}
}

// TestLemma3AllowsReadBetween checks that type-3 atomicity does not induce
// the read-side ordering that type-2 does, which is exactly why
// write-replacement breaks: there is a valid type-3 execution of Fig. 3 with
// the bad outcome.
func TestLemma3AllowsReadBetween(t *testing.T) {
	p := dekkerWriteReplacement()
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	foundType3 := false
	c := NewChecker()
	for _, x := range execs {
		regs := x.RegisterValues()
		bad := regs["P0:r0"] == 0 && regs["P1:r1"] == 0
		if !bad {
			continue
		}
		if c.Valid(x, Type3) {
			foundType3 = true
		}
		if c.Valid(x, Type2) {
			t.Errorf("type-2 must reject the bad execution:\n%s", x)
		}
	}
	if !foundType3 {
		t.Error("type-3 must accept some execution with the bad outcome")
	}
}

// TestOutcomeMonotonicity checks that weakening atomicity only adds
// behaviours: outcomes(type-1) ⊆ outcomes(type-2) ⊆ outcomes(type-3).
func TestOutcomeMonotonicity(t *testing.T) {
	programs := []*memmodel.Program{
		dekkerWriteReplacement(),
		dekkerReadReplacement(),
		dekkerRMWBarrierDiffAddr(),
		dekkerRMWBarrierSameAddr(),
	}
	for _, p := range programs {
		var sets []*OutcomeSet
		for _, typ := range AllTypes() {
			sets = append(sets, verdict(t, p, typ).Outcomes)
		}
		if !subsetOf(sets[0], sets[1]) {
			t.Errorf("%s: type-1 outcomes not a subset of type-2 outcomes", p.Name)
		}
		if !subsetOf(sets[1], sets[2]) {
			t.Errorf("%s: type-2 outcomes not a subset of type-3 outcomes", p.Name)
		}
	}
}

// subsetOf reports whether every outcome of s is also one of other's.
func subsetOf(s, other *OutcomeSet) bool {
	theirs := other.Keys()
	for _, k := range s.Keys() {
		if _, ok := slices.BinarySearch(theirs, k); !ok {
			return false
		}
	}
	return true
}

// TestConsensusAllTypes checks that even type-3 atomicity suffices for the
// consensus-style use of RMWs: two threads racing a test-and-set on the same
// location can never both win (both read 0 is forbidden only if... in fact
// both reading 0 IS forbidden by every atomicity type because the two RMWs
// synchronize on the same address).
func TestConsensusAllTypes(t *testing.T) {
	p := memmodel.NewProgram("consensus-tas")
	p.AddThread(memmodel.TestAndSet(0, "r0"))
	p.AddThread(memmodel.TestAndSet(0, "r1"))
	for _, typ := range AllTypes() {
		bothWin := allows(t, p, typ, func(o Outcome) bool {
			return o.Registers["P0:r0"] == 0 && o.Registers["P1:r1"] == 0
		})
		if bothWin {
			t.Errorf("%s: two test-and-sets on one location must not both observe 0", typ)
		}
		someoneWins := allows(t, p, typ, func(o Outcome) bool {
			return o.Registers["P0:r0"] == 0 || o.Registers["P1:r1"] == 0
		})
		if !someoneWins {
			t.Errorf("%s: at least one test-and-set must win", typ)
		}
	}
}

// TestFetchAddNeverLosesUpdates checks atomicity at the value level: two
// concurrent fetch-and-adds of 1 must leave the counter at 2 under every
// atomicity type.
func TestFetchAddNeverLosesUpdates(t *testing.T) {
	p := memmodel.NewProgram("faa-counter")
	p.AddThread(memmodel.FetchAdd(0, "r0", 1))
	p.AddThread(memmodel.FetchAdd(0, "r1", 1))
	for _, typ := range AllTypes() {
		lost := allows(t, p, typ, func(o Outcome) bool {
			return o.Memory[0] != 2
		})
		if lost {
			t.Errorf("%s: concurrent fetch-and-adds lost an update", typ)
		}
	}
}

// TestWriteDeadlockProgramSemantics checks the semantics of the Fig. 10
// program: the implementation-level deadlock corresponds to NO valid
// execution requiring it -- semantically, every atomicity type still gives
// the program well-defined outcomes and at least one valid execution exists.
func TestWriteDeadlockProgramSemantics(t *testing.T) {
	p := memmodel.NewProgram("fig10-write-deadlock")
	p.AddThread(memmodel.Write(0, 1), memmodel.FetchAdd(1, "r0", 0))
	p.AddThread(memmodel.Write(1, 1), memmodel.FetchAdd(0, "r1", 0))
	for _, typ := range AllTypes() {
		if verdict(t, p, typ).Valid == 0 {
			t.Errorf("%s: the Fig. 10 program must have valid executions", typ)
		}
		// The cyclic scenario of Fig. 10(b) (both RMW reads return 0 while
		// both plain writes are coherence-later than the other RMW's write)
		// must be forbidden under type-1 and type-2 since the RMWs
		// synchronize with the plain writes.
		if typ == Type3 {
			continue
		}
		bad := allows(t, p, typ, func(o Outcome) bool {
			return o.Registers["P0:r0"] == 0 && o.Registers["P1:r1"] == 0 &&
				o.Memory[0] == 1 && o.Memory[1] == 1
		})
		if bad {
			t.Errorf("%s: the cyclic outcome of Fig. 10(b) must be forbidden", typ)
		}
	}
}

// TestSingleThreadSequentialSemantics checks that a single-threaded chain of
// fetch-and-adds has exactly one outcome under every atomicity type
// (sequential semantics are unaffected by atomicity weakening).
func TestSingleThreadSequentialSemantics(t *testing.T) {
	p := memmodel.NewProgram("seq-chain")
	p.AddThread(
		memmodel.FetchAdd(0, "r0", 1),
		memmodel.FetchAdd(0, "r1", 1),
		memmodel.Read(0, "r2"),
	)
	for _, typ := range AllTypes() {
		set := verdict(t, p, typ).Outcomes
		if set.Len() != 1 {
			t.Fatalf("%s: %d outcomes, want exactly 1: %v", typ, set.Len(), set.Keys())
		}
		o := outcomeAt(set, 0)
		if o.Registers["P0:r0"] != 0 || o.Registers["P0:r1"] != 1 || o.Registers["P0:r2"] != 2 {
			t.Errorf("%s: sequential chain outcome wrong: %s", typ, o.Key())
		}
	}
}
