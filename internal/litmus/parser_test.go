package litmus

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memmodel"
)

const sampleSource = `
name: dekker-write-replacement
doc: Fig 3 of the paper
# the two flag locations start at zero
init: x=0 y=0
thread P0:
  a0 = xchg x, 1
  r0 = load y
thread P1:
  a1 = xchg y, 1
  r1 = load x
exists (P0:r0=0 /\ P1:r1=0)
`

func TestParseSample(t *testing.T) {
	test, err := Parse(sampleSource)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if test.Name != "dekker-write-replacement" {
		t.Errorf("name = %q", test.Name)
	}
	if test.Doc != "Fig 3 of the paper" {
		t.Errorf("doc = %q", test.Doc)
	}
	if len(test.Program.Threads) != 2 {
		t.Fatalf("threads = %d, want 2", len(test.Program.Threads))
	}
	if len(test.Program.Threads[0]) != 2 || len(test.Program.Threads[1]) != 2 {
		t.Fatalf("instruction counts wrong")
	}
	if test.Cond.Quantifier != Exists || len(test.Cond.Terms) != 2 {
		t.Fatalf("condition = %v", test.Cond)
	}
}

func TestParsedTestBehavesLikeBuiltin(t *testing.T) {
	parsed, err := Parse(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	builtin := DekkerWriteReplacement()
	for _, typ := range core.AllTypes() {
		rp, err := parsed.Run(typ)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := builtin.Run(typ)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Holds != rb.Holds {
			t.Errorf("%s: parsed test verdict %v differs from builtin %v", typ, rp.Holds, rb.Holds)
		}
	}
}

func TestParseAllInstructionForms(t *testing.T) {
	src := `
name: all-forms
init: l=1
thread P0:
  store x, 1
  r0 = load y
  mfence
  r1 = xchg z, 2
  r2 = xadd z, 3
  r3 = tas l
forall (x=1)
`
	test, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	instrs := test.Program.Threads[0]
	wantKinds := []memmodel.InstrKind{
		memmodel.InstrWrite, memmodel.InstrRead, memmodel.InstrFence,
		memmodel.InstrRMW, memmodel.InstrRMW, memmodel.InstrRMW,
	}
	if len(instrs) != len(wantKinds) {
		t.Fatalf("parsed %d instructions, want %d", len(instrs), len(wantKinds))
	}
	for i, k := range wantKinds {
		if instrs[i].Kind != k {
			t.Errorf("instr %d kind = %v, want %v", i, instrs[i].Kind, k)
		}
	}
	// xadd modify semantics
	if instrs[4].Modify(5) != 8 {
		t.Error("xadd should add its operand")
	}
	// tas semantics
	if instrs[5].Modify(0) != 1 {
		t.Error("tas should write 1")
	}
	// init applies to the symbolic location "l"
	if test.Program.Init[instrs[5].Addr] != 1 {
		t.Error("init value for l missing")
	}
	if test.Cond.Quantifier != Forall {
		t.Error("forall condition not parsed")
	}
}

func TestParseConditionVariants(t *testing.T) {
	base := `
name: cond
thread P0:
  r0 = load x
`
	cases := map[string]Quantifier{
		"exists (P0:r0=0)":  Exists,
		"~exists (P0:r0=1)": NotExists,
		"forall (x=0)":      Forall,
	}
	for cond, q := range cases {
		test, err := Parse(base + cond + "\n")
		if err != nil {
			t.Fatalf("Parse with %q: %v", cond, err)
		}
		if test.Cond.Quantifier != q {
			t.Errorf("%q parsed as %v", cond, test.Cond.Quantifier)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing name": `
thread P0:
  r0 = load x
exists (P0:r0=0)`,
		"missing condition": `
name: t
thread P0:
  r0 = load x`,
		"no threads": `
name: t
exists (x=0)`,
		"instruction before thread": `
name: t
store x, 1
thread P0:
  r0 = load x
exists (P0:r0=0)`,
		"bad instruction": `
name: t
thread P0:
  frobnicate x
exists (x=0)`,
		"bad store": `
name: t
thread P0:
  store x
exists (x=0)`,
		"bad thread order": `
name: t
thread P1:
  r0 = load x
exists (P1:r0=0)`,
		"bad condition term": `
name: t
thread P0:
  r0 = load x
exists (P0:r0)`,
		"empty condition": `
name: t
thread P0:
  r0 = load x
exists ()`,
		"duplicate condition": `
name: t
thread P0:
  r0 = load x
exists (P0:r0=0)
exists (P0:r0=1)`,
		"bad init": `
name: t
init: x
thread P0:
  r0 = load x
exists (P0:r0=0)`,
		"duplicate register": `
name: t
thread P0:
  r0 = load x
  r0 = load y
exists (P0:r0=0)`,
	}
	for label, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse should have failed", label)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, test := range AllTests() {
		text := Format(test)
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", test.Name, err, text)
		}
		if parsed.Name != test.Name {
			t.Errorf("%s: name lost in round trip", test.Name)
		}
		if len(parsed.Program.Threads) != len(test.Program.Threads) {
			t.Errorf("%s: thread count changed in round trip", test.Name)
			continue
		}
		// The round-tripped test must have identical verdicts.
		for _, typ := range core.AllTypes() {
			ro, err := test.Run(typ)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := parsed.Run(typ)
			if err != nil {
				t.Fatalf("%s (%s): %v\n%s", test.Name, typ, err, text)
			}
			if ro.Holds != rp.Holds {
				t.Errorf("%s (%s): verdict changed after round trip (%v -> %v)",
					test.Name, typ, ro.Holds, rp.Holds)
			}
		}
	}
}

func TestFormatContainsConditionAndThreads(t *testing.T) {
	text := Format(StoreBuffering())
	for _, want := range []string{"name: SB", "thread P0:", "thread P1:", "exists ("} {
		if !strings.Contains(text, want) {
			t.Errorf("Format output missing %q:\n%s", want, text)
		}
	}
}

// TestTermHolds evaluates single terms against a program's one outcome,
// P0:r0=3 | x=3 z=7: a term holds when its column holds its value, and a
// register or location the outcomes have no column for reads as 0.
func TestTermHolds(t *testing.T) {
	p := memmodel.NewProgram("one-outcome")
	p.SetInit(0, 3)
	p.AddThread(memmodel.Read(0, "r0"), memmodel.Write(2, 7))
	set := outcomeSet(t, p)
	if set.Len() != 1 {
		t.Fatalf("%d outcomes, want 1: %v", set.Len(), set.Keys())
	}
	holds := func(term Term) bool { return ExistsCond(term).Evaluate(set) }
	if !holds(Term{Register: "P0:r0", Value: 3}) {
		t.Error("register term should hold")
	}
	if holds(Term{Register: "P0:r0", Value: 4}) {
		t.Error("register term should not hold")
	}
	if !holds(Term{IsMemory: true, Addr: 2, Value: 7}) {
		t.Error("memory term should hold")
	}
	if holds(Term{IsMemory: true, Addr: 2, Value: 8}) {
		t.Error("memory term should not hold")
	}
	// Missing columns compare against the zero value.
	if !holds(Term{Register: "P9:r9", Value: 0}) || holds(Term{Register: "P9:r9", Value: 1}) {
		t.Error("missing register should read as 0")
	}
	if !holds(Term{IsMemory: true, Addr: 1, Value: 0}) || holds(Term{IsMemory: true, Addr: 1, Value: 1}) {
		t.Error("missing location should read as 0")
	}
}

// TestParseRejectsUnwrittenRegister pins that a register term must name a
// register some load or RMW of its thread writes, since any other reads 0
// in every outcome: a thread out of range, a register its thread never
// writes and one only another thread writes are errors naming the term,
// while memory terms may name any location.
func TestParseRejectsUnwrittenRegister(t *testing.T) {
	const sb = `name: SB
thread P0:
  store x, 1
  r0 = load y
thread P1:
  a1 = xchg y, 1
  store z, 1
`
	for _, term := range []string{"P7:r9=0", "P0:r9=0", "P1:r0=0", "P0:=0", "Px:r0=0"} {
		_, err := Parse(sb + "exists (P0:r0=0 /\\ " + term + ")\n")
		if err == nil || !strings.Contains(err.Error(), term) || !strings.Contains(err.Error(), "line 8") {
			t.Errorf("condition term %s: Parse error %v, want one naming the term on line 8", term, err)
		}
	}
	for _, cond := range []string{"exists (P0:r0=0 /\\ P1:a1=1)", "forall (w=0)", "~exists (x=1 /\\ P0:r0=1)"} {
		if _, err := Parse(sb + cond + "\n"); err != nil {
			t.Errorf("%s: %v", cond, err)
		}
	}
}

func TestQuantifierString(t *testing.T) {
	if Exists.String() != "exists" || NotExists.String() != "~exists" || Forall.String() != "forall" {
		t.Error("quantifier names wrong")
	}
	if Quantifier(9).String() == "" {
		t.Error("unknown quantifier should still render")
	}
}
