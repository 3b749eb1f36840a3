package litmus

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memmodel"
)

// TestPaperSuiteMatchesTable1 runs every paper test under all three
// atomicity types and checks the verdicts against the expectations encoded
// from Table 1. This is the end-to-end reproduction of the paper's
// semantics results.
func TestPaperSuiteMatchesTable1(t *testing.T) {
	for _, test := range ByGroup(GroupPaper) {
		results, err := test.Check(context.Background(), core.AllTypes(), 1)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, r := range results {
			if !r.Matches {
				t.Errorf("%s under %s: condition %v, expected %v",
					test.Name, r.Atomicity, r.Holds, *r.Expected)
			}
		}
	}
}

// TestClassicSuiteExpectations runs the RMW-free TSO tests and the common
// RMW idioms; their verdicts must not depend on the atomicity type in the
// recorded way.
func TestClassicSuiteExpectations(t *testing.T) {
	for _, test := range ByGroup(GroupClassic) {
		results, err := test.Check(context.Background(), core.AllTypes(), 1)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		for _, r := range results {
			if !r.Matches {
				t.Errorf("%s under %s: condition %v, expected %v",
					test.Name, r.Atomicity, r.Holds, *r.Expected)
			}
		}
	}
}

func TestAllTestsHaveValidExecutionsAndMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, test := range AllTests() {
		if test.Name == "" || test.Doc == "" {
			t.Errorf("test %q missing name or doc", test.Name)
		}
		if seen[test.Name] {
			t.Errorf("duplicate test name %q", test.Name)
		}
		seen[test.Name] = true
		if err := test.Program.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", test.Name, err)
		}
		if len(test.Expected) != 3 {
			t.Errorf("%s: expectations missing for some atomicity type", test.Name)
		}
		r, err := test.Run(core.Type1)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		if r.ValidExecutions == 0 {
			t.Errorf("%s: no valid executions under type-1", test.Name)
		}
		if r.ValidExecutions > r.Candidates {
			t.Errorf("%s: more valid executions than candidates", test.Name)
		}
	}
}

// TestFindTest holds every suite entry's name and program name unique
// across the table, so that FindTest finds the entry by either name, and
// checks that an unknown name finds nothing.
func TestFindTest(t *testing.T) {
	owner := map[string]int{}
	for i, e := range suite {
		test := e.build()
		for _, name := range []string{test.Name, test.Program.Name} {
			if prev, dup := owner[name]; dup && prev != i {
				t.Errorf("name %q belongs to suite entries %d and %d", name, prev, i)
			}
			owner[name] = i
			if got := FindTest(name); got == nil || got.Name != test.Name {
				t.Errorf("FindTest(%q) = %v, want %q", name, got, test.Name)
			}
		}
	}
	if FindTest("no-such-test") != nil {
		t.Error("FindTest of an unknown name should return nil")
	}
}

func TestResultStringAndReport(t *testing.T) {
	test := StoreBuffering()
	results, err := test.Check(context.Background(), core.AllTypes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		s := r.String()
		if !strings.Contains(s, "SB") || !strings.Contains(s, "type-") {
			t.Errorf("Result.String missing fields: %q", s)
		}
		if !strings.Contains(s, "[ok]") {
			t.Errorf("matching result should report ok: %q", s)
		}
	}
	report := Report(results)
	if strings.Count(report, "\n") != len(results) {
		t.Errorf("Report should have one line per result:\n%s", report)
	}
}

func TestResultMismatchIsReported(t *testing.T) {
	test := StoreBuffering()
	// Flip the expectation to force a mismatch.
	test.Expected[core.Type1] = false
	r, err := test.Run(core.Type1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Matches {
		t.Fatal("mismatch not detected")
	}
	if !strings.Contains(r.String(), "MISMATCH") {
		t.Errorf("mismatch not rendered: %q", r.String())
	}
}

func TestRunWithoutExpectationMatches(t *testing.T) {
	test := StoreBuffering()
	test.Expected = nil
	r, err := test.Run(core.Type2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Matches || r.Expected != nil {
		t.Error("runs without expectations must report Matches=true and no expectation")
	}
}

// outcomeSet returns the program's outcome set under type-1.
func outcomeSet(t *testing.T, p *memmodel.Program) *core.OutcomeSet {
	t.Helper()
	vs, err := core.Verdicts(context.Background(), p, []core.AtomicityType{core.Type1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return vs[0].Outcomes
}

func TestConditionEvaluate(t *testing.T) {
	// P0 reads x while P1 writes 1 to it, so r0 ends 0 or 1; a lone read
	// of x always reads 0.
	race := memmodel.NewProgram("read-race")
	race.AddThread(memmodel.Read(0, "r0"))
	race.AddThread(memmodel.Write(0, 1))
	outcomes := outcomeSet(t, race)
	lone := memmodel.NewProgram("lone-read")
	lone.AddThread(memmodel.Read(0, "r0"))
	uniform := outcomeSet(t, lone)
	var none core.OutcomeSet

	ex := ExistsCond(Term{Register: "P0:r0", Value: 1})
	if !ex.Evaluate(outcomes) {
		t.Error("exists should hold")
	}
	nex := NotExistsCond(Term{Register: "P0:r0", Value: 2})
	if !nex.Evaluate(outcomes) {
		t.Error("~exists of an absent outcome should hold")
	}
	fa := ForallCond(Term{Register: "P0:r0", Value: 0})
	if fa.Evaluate(outcomes) {
		t.Error("forall should fail when an outcome differs")
	}
	if !fa.Evaluate(uniform) {
		t.Error("forall should hold on a uniform set")
	}
	if ex.Evaluate(&none) {
		t.Error("exists over no outcomes must be false")
	}
	if !nex.Evaluate(&none) {
		t.Error("~exists over no outcomes must be true")
	}
	if !fa.Evaluate(&none) {
		t.Error("forall over no outcomes must be true (vacuous)")
	}
	both := ExistsCond(Term{Register: "P0:r0", Value: 1}, MemTerm(0, 1))
	if !both.Evaluate(outcomes) || ExistsCond(Term{Register: "P0:r0", Value: 1}, MemTerm(0, 0)).Evaluate(outcomes) {
		t.Error("a conjunction must hold exactly when every term does")
	}
}

func TestConditionString(t *testing.T) {
	c := ExistsCond(RegTerm(0, "r0", 0), MemTerm(0, 1))
	want := "exists (P0:r0=0 /\\ x=1)"
	if c.String() != want {
		t.Errorf("Condition.String = %q, want %q", c.String(), want)
	}
	if NotExistsCond(RegTerm(0, "r0", 0)).String() != "~exists (P0:r0=0)" {
		t.Error("~exists rendering wrong")
	}
	if ForallCond(MemTerm(1, 2)).String() != "forall (y=2)" {
		t.Error("forall rendering wrong")
	}
}
