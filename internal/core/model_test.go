package core

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

func TestOutcomeKeyDeterministic(t *testing.T) {
	o := Outcome{
		Registers: map[string]memmodel.Value{"P1:r1": 2, "P0:r0": 1},
		Memory:    map[memmodel.Addr]memmodel.Value{1: 5, 0: 4},
	}
	want := "P0:r0=1 P1:r1=2 | x=4 y=5"
	if o.Key() != want {
		t.Fatalf("Key = %q, want %q", o.Key(), want)
	}
	// Key must be stable across calls (map iteration order must not leak).
	for i := 0; i < 10; i++ {
		if o.Key() != want {
			t.Fatal("Key is not deterministic")
		}
	}
}

func TestOutcomeKeyWithoutMemory(t *testing.T) {
	o := Outcome{Registers: map[string]memmodel.Value{"P0:r0": 0}}
	if strings.Contains(o.Key(), "|") {
		t.Errorf("Key should omit the memory section when empty: %q", o.Key())
	}
}

func TestOutcomeSetOperations(t *testing.T) {
	a := NewOutcomeSet()
	b := NewOutcomeSet()
	o1 := Outcome{Registers: map[string]memmodel.Value{"P0:r0": 0}}
	o2 := Outcome{Registers: map[string]memmodel.Value{"P0:r0": 1}}
	a.Add(o1)
	b.Add(o1)
	b.Add(o2)
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("Len: a=%d b=%d", a.Len(), b.Len())
	}
	if !a.Contains(o1) || a.Contains(o2) {
		t.Error("Contains wrong")
	}
	if !a.SubsetOf(b) {
		t.Error("a should be a subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be a subset of a")
	}
	if a.Equal(b) {
		t.Error("a and b are not equal")
	}
	a.Add(o2)
	if !a.Equal(b) {
		t.Error("a and b should now be equal")
	}
	keys := b.Keys()
	if len(keys) != 2 || keys[0] >= keys[1] {
		t.Errorf("Keys not sorted: %v", keys)
	}
	if len(b.Outcomes()) != 2 {
		t.Error("Outcomes length wrong")
	}
	if !b.ContainsKey(o1.Key()) {
		t.Error("ContainsKey wrong")
	}
	// Adding a duplicate does not grow the set.
	b.Add(o2)
	if b.Len() != 2 {
		t.Error("duplicate outcome grew the set")
	}
}

func TestModelValidExecutionsFiltersInvalid(t *testing.T) {
	p := dekkerReadReplacement()
	all, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := NewModel(Type1).ValidExecutions(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(valid) == 0 {
		t.Fatal("no valid executions")
	}
	if len(valid) >= len(all) {
		t.Fatalf("validity filter removed nothing: %d of %d", len(valid), len(all))
	}
	for _, x := range valid {
		if !Valid(x, Type1) {
			t.Fatal("ValidExecutions returned an invalid execution")
		}
	}
}

func TestModelAllowsAndForbids(t *testing.T) {
	p := dekkerReadReplacement()
	m := NewModel(Type2)
	pred := mutualExclusionFails("P0:r0", "P1:r1")
	allowed, err := m.Allows(p, pred)
	if err != nil {
		t.Fatal(err)
	}
	if allowed {
		t.Error("read-replacement Dekker must forbid the bad outcome under type-2")
	}
}

func TestModelErrorsPropagate(t *testing.T) {
	bad := memmodel.NewProgram("empty")
	m := NewModel(Type1)
	if _, err := m.Outcomes(bad); err == nil {
		t.Error("Outcomes of an invalid program must fail")
	}
	if _, err := m.Allows(bad, func(Outcome) bool { return true }); err == nil {
		t.Error("Allows of an invalid program must fail")
	}
	if _, err := m.ValidExecutions(bad); err == nil {
		t.Error("ValidExecutions of an invalid program must fail")
	}
}

func TestExplainValidAndInvalid(t *testing.T) {
	p := dekkerWriteReplacement()
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(Type1)
	var sawValid, sawInvalid bool
	for _, x := range execs {
		s := m.Explain(x)
		if !strings.Contains(s, "atomicity: type-1") {
			t.Fatalf("Explain missing header:\n%s", s)
		}
		if strings.Contains(s, "VALID:") && strings.Contains(s, "global memory order") {
			sawValid = true
		}
		if strings.Contains(s, "INVALID:") {
			sawInvalid = true
		}
	}
	if !sawValid || !sawInvalid {
		t.Errorf("Explain should describe both valid and invalid executions (valid=%v invalid=%v)", sawValid, sawInvalid)
	}
}

func TestExplainUniprocViolation(t *testing.T) {
	p := memmodel.NewProgram("cowr")
	p.AddThread(memmodel.Write(0, 1), memmodel.Read(0, "r0"))
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(Type1)
	found := false
	for _, x := range execs {
		if x.RegisterValues()["P0:r0"] == 0 {
			s := m.Explain(x)
			if !strings.Contains(s, "uniproc") {
				t.Errorf("Explain should mention the uniproc violation:\n%s", s)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no uniproc-violating candidate found")
	}
}

func TestDeriveAtoReportsCycle(t *testing.T) {
	p := dekkerReadReplacement()
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, x := range execs {
		res := DeriveAto(x, Type1)
		if res.Valid || res.UniprocViolation {
			continue
		}
		found = true
		if len(res.Cycle) < 2 {
			t.Errorf("invalid execution should report a cycle, got %v", res.Cycle)
		}
		// Every edge of the reported cycle must be in the order relation.
		for i := range res.Cycle {
			from := res.Cycle[i]
			to := res.Cycle[(i+1)%len(res.Cycle)]
			if !res.Order.Has(from, to) {
				t.Errorf("cycle uses non-edge %d -> %d", from, to)
			}
		}
	}
	if !found {
		t.Fatal("expected at least one cycle-invalid execution")
	}
}

func TestAtoEdgesOnlyInvolveRMWHalves(t *testing.T) {
	// Every derived ato edge must have an RMW half as source or target.
	p := dekkerWriteReplacement()
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range execs {
		isHalf := map[int]bool{}
		for _, pr := range RMWPairs(x) {
			isHalf[pr.Read] = true
			isHalf[pr.Write] = true
		}
		for _, typ := range AllTypes() {
			res := DeriveAto(x, typ)
			for _, e := range res.Ato.Pairs() {
				if !isHalf[e[0]] && !isHalf[e[1]] {
					t.Errorf("%s: ato edge %v -> %v involves no RMW half", typ, x.Events[e[0]], x.Events[e[1]])
				}
			}
		}
	}
}
