// Package litmus provides litmus tests for the TSO-with-RMW memory models
// of internal/core: a test representation with herd-style conditions, the
// paper's suite of synchronization idioms (the Dekker variants of Figs. 3,
// 4, 5 and 8, the write-deadlock program of Fig. 10, and classic TSO tests),
// a text parser for a small litmus format, and a runner that model-checks a
// test under one or several atomicity types.
package litmus

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memmodel"
)

// Quantifier says how a condition is interpreted over the set of valid
// executions.
type Quantifier int

const (
	// Exists holds when at least one valid execution satisfies the
	// proposition.
	Exists Quantifier = iota
	// Forall holds when every valid execution satisfies the proposition.
	Forall
	// NotExists holds when no valid execution satisfies the proposition.
	NotExists
)

// String renders the quantifier in litmus syntax.
func (q Quantifier) String() string {
	switch q {
	case Exists:
		return "exists"
	case Forall:
		return "forall"
	case NotExists:
		return "~exists"
	default:
		return fmt.Sprintf("Quantifier(%d)", int(q))
	}
}

// Term is one equality constraint of a condition: either a register
// constraint (P<tid>:<reg> = value) or a final-memory constraint
// (<location> = value).
type Term struct {
	// Register is the "P<tid>:<reg>" key when the term constrains a
	// register; empty for memory terms.
	Register string
	// Addr is the constrained location for memory terms.
	Addr memmodel.Addr
	// IsMemory distinguishes memory terms from register terms.
	IsMemory bool
	// Value is the required value.
	Value memmodel.Value
}

// String renders the term in litmus syntax.
func (t Term) String() string {
	if t.IsMemory {
		return fmt.Sprintf("%s=%d", memmodel.AddrName(t.Addr), int(t.Value))
	}
	return fmt.Sprintf("%s=%d", t.Register, int(t.Value))
}

// column returns the index of the term's column in the rows of s, or -1
// when s has none, as for a location no instruction accesses.
func (t Term) column(s *core.OutcomeSet) int {
	if !t.IsMemory {
		return slices.Index(s.Registers(), t.Register)
	}
	if i := slices.Index(s.Locations(), t.Addr); i >= 0 {
		return len(s.Registers()) + i
	}
	return -1
}

// Condition is a quantified conjunction of terms, in the style of herd/litmus
// final conditions, e.g. "exists (P0:r0=0 /\ P1:r1=0)".
type Condition struct {
	Quantifier Quantifier
	Terms      []Term
}

// RegTerm builds a register term.
func RegTerm(thread memmodel.ThreadID, reg string, v memmodel.Value) Term {
	return Term{Register: fmt.Sprintf("P%d:%s", int(thread), reg), Value: v}
}

// MemTerm builds a final-memory term.
func MemTerm(addr memmodel.Addr, v memmodel.Value) Term {
	return Term{IsMemory: true, Addr: addr, Value: v}
}

// ExistsCond builds an existential condition over the given terms.
func ExistsCond(terms ...Term) Condition { return Condition{Quantifier: Exists, Terms: terms} }

// NotExistsCond builds a negative existential condition over the terms.
func NotExistsCond(terms ...Term) Condition { return Condition{Quantifier: NotExists, Terms: terms} }

// ForallCond builds a universal condition over the terms.
func ForallCond(terms ...Term) Condition { return Condition{Quantifier: Forall, Terms: terms} }

// Evaluate applies the quantifier over an outcome set: the conjunction of
// terms holds for an outcome when each term's column of its row holds the
// term's value, a term without a column reading 0.
func (c Condition) Evaluate(s *core.OutcomeSet) bool {
	switch c.Quantifier {
	case Exists, NotExists, Forall:
	default:
		return false
	}
	var buf [8]int
	cols := buf[:0]
	for _, t := range c.Terms {
		cols = append(cols, t.column(s))
	}
	for i := 0; i < s.Len(); i++ {
		row, holds := s.Row(i), true
		for j, t := range c.Terms {
			v := memmodel.Value(0)
			if cols[j] >= 0 {
				v = row[cols[j]]
			}
			if v != t.Value {
				holds = false
				break
			}
		}
		if holds != (c.Quantifier == Forall) {
			// A witness for exists or ~exists, a counterexample for forall.
			return c.Quantifier == Exists
		}
	}
	return c.Quantifier != Exists
}

// String renders the condition in litmus syntax.
func (c Condition) String() string {
	parts := make([]string, len(c.Terms))
	for i, t := range c.Terms {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s (%s)", c.Quantifier, strings.Join(parts, " /\\ "))
}

// Test is a litmus test: a program, a condition over its final state, and
// the expected verdict per atomicity type. Expected maps an atomicity type
// to whether the condition should hold under that type; types missing from
// the map have no recorded expectation.
type Test struct {
	// Name identifies the test; the paper's figures use names like
	// "dekker-write-replacement (Fig. 3)".
	Name string
	// Doc is a one-line description of what the test demonstrates.
	Doc string
	// Program is the litmus program.
	Program *memmodel.Program
	// Cond is the final condition.
	Cond Condition
	// Expected maps each atomicity type to the expected truth value of the
	// condition under that type.
	Expected map[core.AtomicityType]bool
}

// Result is the verdict of running one test under one atomicity type.
type Result struct {
	Test      *Test
	Atomicity core.AtomicityType
	// Holds is the truth value of the condition over the valid executions.
	Holds bool
	// Expected is the recorded expectation, if any.
	Expected *bool
	// Matches reports whether Holds equals the expectation (true when no
	// expectation is recorded).
	Matches bool
	// ValidExecutions is the number of valid executions found.
	ValidExecutions int
	// Candidates is the number of candidate executions of the program,
	// memmodel.CountCandidates: every rf × ws choice whose RMW value
	// dependencies are acyclic. The verdict assembles and checks only the
	// ones that satisfy uniproc and in which every RMW reads the
	// ws-predecessor of its write half (memmodel.EnumUniprocAdjacentRMW),
	// so this is the size of the space the verdict decided, not of the
	// work it did.
	Candidates int
	// Outcomes is the set of observable outcomes.
	Outcomes *core.OutcomeSet
}

// String renders the result as a one-line report entry.
func (r Result) String() string {
	status := "ok"
	if !r.Matches {
		status = "MISMATCH"
	}
	exp := "-"
	if r.Expected != nil {
		exp = fmt.Sprintf("%v", *r.Expected)
	}
	return fmt.Sprintf("%-40s %-7s cond=%-5v expected=%-5s valid=%d/%d [%s]",
		r.Test.Name, r.Atomicity, r.Holds, exp, r.ValidExecutions, r.Candidates, status)
}

// Check model-checks the test under each of the given atomicity types
// and returns one Result per type, in the given order. The types share
// one walk (core.Verdicts): the candidates that any type can accept
// (memmodel.EnumUniprocAdjacentRMW) are enumerated once, spread over workers
// goroutines as memmodel.EnumWorkers defines them, and each is checked
// under every type inside the worker that assembled it, while outcome
// collection stays serialized. workers == 1 walks sequentially,
// workers > 1 parallelizes, and workers <= 0 applies the candidate-count
// rule (GOMAXPROCS for IRIW-class programs, 1 for small ones). The
// results are identical regardless of workers and of which other types
// share the walk; a cancelled ctx aborts the check with ctx's error.
func (t *Test) Check(ctx context.Context, types []core.AtomicityType, workers int) ([]Result, error) {
	vs, err := core.Verdicts(ctx, t.Program, types, workers)
	if err != nil {
		return nil, fmt.Errorf("litmus: %s: %w", t.Name, err)
	}
	out := make([]Result, len(vs))
	for i, v := range vs {
		holds := t.Cond.Evaluate(v.Outcomes)
		out[i] = Result{
			Test:            t,
			Atomicity:       v.Type,
			Holds:           holds,
			Matches:         true,
			ValidExecutions: v.Valid,
			Candidates:      v.Candidates,
			Outcomes:        v.Outcomes,
		}
		if exp, ok := t.Expected[v.Type]; ok {
			out[i].Expected = &exp
			out[i].Matches = holds == exp
		}
	}
	return out, nil
}

// Run model-checks the test under one atomicity type, sequentially.
func (t *Test) Run(typ core.AtomicityType) (Result, error) {
	res, err := t.Check(context.Background(), []core.AtomicityType{typ}, 1)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// Report renders a set of results as a fixed-width table, sorted by test
// name then atomicity type.
func Report(results []Result) string {
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Test.Name != sorted[j].Test.Name {
			return sorted[i].Test.Name < sorted[j].Test.Name
		}
		return sorted[i].Atomicity < sorted[j].Atomicity
	})
	var b strings.Builder
	for _, r := range sorted {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}
