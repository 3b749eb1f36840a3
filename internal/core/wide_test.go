package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/memmodel"
)

// widePad is the number of reads padWide puts in front of thread 0: with
// the programs' own events it takes every execution past 64 events, so
// relation rows are two words wide and the RMW halves sit on both sides
// of the word boundary.
const widePad = 60

// padWide returns p with widePad reads of a location no thread writes
// put in front of its thread 0. Each read has one rf choice, the initial
// write, and reads are ordered among themselves by ppo, so the padding
// multiplies neither the candidates nor the linearizations of a thread;
// it only widens every relation.
func padWide(p *memmodel.Program) *memmodel.Program {
	const pad = memmodel.Addr(9)
	w := memmodel.NewProgram(p.Name + "-wide")
	maps.Copy(w.Init, p.Init)
	for i, t := range p.Threads {
		var instrs []memmodel.Instr
		if i == 0 {
			for j := 0; j < widePad; j++ {
				instrs = append(instrs, memmodel.Read(pad, fmt.Sprintf("p%d", j)))
			}
		}
		w.AddThread(append(instrs, t...)...)
	}
	return w
}

// wideOracleThreadLen bounds the instructions of the threads other than
// thread 0 in the programs TestWideProgramsMatchDeriveAtoAndOracle pads:
// the oracle interleaves their events with the padded thread, and at
// three instructions each one program's oracle checks take seconds.
const wideOracleThreadLen = 2

// TestWideProgramsMatchDeriveAtoAndOracle checks the checker on programs
// of more than 64 events, whose relation rows are two words wide: the
// oracle programs whose threads after the first hold at most
// wideOracleThreadLen instructions, padded by padWide. On every
// candidate and type, the bit-row fixpoint (Checker.Valid) must agree
// with DeriveAto and the linearization oracle; and each type's verdict
// from one Verdicts walk, whose closure levels are built across
// candidates, must count the candidates DeriveAto finds valid and hold
// exactly their outcomes, at 1 and at 2 workers.
func TestWideProgramsMatchDeriveAtoAndOracle(t *testing.T) {
	c := NewChecker()
	for _, p := range oraclePrograms() {
		if slices.ContainsFunc(p.Threads[1:], func(t memmodel.Thread) bool { return len(t) > wideOracleThreadLen }) {
			continue
		}
		p = padWide(p)
		execs, err := memmodel.Enumerate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if n := len(execs[0].Events); n <= 64 {
			t.Fatalf("%s has %d events, want more than 64", p.Name, n)
		}
		valid := map[AtomicityType]int{}
		outcomes := map[AtomicityType]map[string]bool{}
		for _, typ := range AllTypes() {
			outcomes[typ] = map[string]bool{}
			for _, x := range execs {
				fast, slow, oracle := c.Valid(x, typ), DeriveAto(x, typ).Valid, ExistsWitnessOrder(x, typ)
				if fast != slow || fast != oracle {
					t.Fatalf("%s/%s: checker=%v deriveAto=%v oracle=%v for execution:\n%s", p.Name, typ, fast, slow, oracle, x)
				}
				if slow {
					valid[typ]++
					outcomes[typ][OutcomeOf(x).Key()] = true
				}
			}
		}
		for _, workers := range []int{1, 2} {
			vs, err := Verdicts(context.Background(), p, AllTypes(), workers)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			for _, v := range vs {
				want := slices.Sorted(maps.Keys(outcomes[v.Type]))
				if got := v.Outcomes.Keys(); v.Valid != valid[v.Type] || !slices.Equal(got, want) {
					t.Errorf("%s under %s at %d workers: the verdict counts %d valid executions with outcomes %q; DeriveAto gives %d and %q",
						p.Name, v.Type, workers, v.Valid, got, valid[v.Type], want)
				}
			}
		}
	}
}
