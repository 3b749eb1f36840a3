package core

import (
	"context"
	"slices"
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

// TestOutcomeSetOperations checks the set's views of its rows: the
// columns, each row's values, Keys rendering the rows' columns and
// sorting by key while the rows sort by value (10 before 2 as keys, after
// it as values), and the zero value as the empty set.
func TestOutcomeSetOperations(t *testing.T) {
	regs, addrs := []string{"P0:r0"}, []memmodel.Addr{0}
	b := &OutcomeSet{regs: regs, addrs: addrs, rows: []memmodel.Value{2, 1, 10, 1}, n: 2}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if !slices.Equal(b.Registers(), regs) || !slices.Equal(b.Locations(), addrs) || !slices.Equal(b.Row(1), []memmodel.Value{10, 1}) {
		t.Errorf("columns %v %v, row 1 %v", b.Registers(), b.Locations(), b.Row(1))
	}
	want := []string{"P0:r0=10 | x=1", "P0:r0=2 | x=1"}
	if keys := b.Keys(); !slices.Equal(keys, want) {
		t.Errorf("Keys = %q, want %q", keys, want)
	}
	var empty OutcomeSet
	if empty.Len() != 0 || len(empty.Keys()) != 0 {
		t.Error("the zero value must be the empty set")
	}
}

// TestVerdictsRejectInvalidProgram checks that Verdicts returns the
// program's validation error instead of verdicts.
func TestVerdictsRejectInvalidProgram(t *testing.T) {
	bad := memmodel.NewProgram("empty")
	if _, err := Verdicts(context.Background(), bad, AllTypes(), 1); err == nil {
		t.Error("Verdicts of an invalid program must fail")
	}
}

func TestExplainValidAndInvalid(t *testing.T) {
	p := dekkerWriteReplacement()
	execs, err := memmodel.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	var sawValid, sawInvalid bool
	for _, x := range execs {
		s := Explain(x, Type1)
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
	found := false
	for _, x := range execs {
		if x.RegisterValues()["P0:r0"] == 0 {
			s := Explain(x, Type1)
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
