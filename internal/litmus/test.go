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
	"sort"
	"strings"
	"sync/atomic"

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

// Holds reports whether the outcome satisfies the term.
func (t Term) Holds(o core.Outcome) bool {
	if t.IsMemory {
		return o.Memory[t.Addr] == t.Value
	}
	return o.Registers[t.Register] == t.Value
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

// Proposition reports whether the conjunction of terms holds for the
// outcome.
func (c Condition) Proposition(o core.Outcome) bool {
	for _, t := range c.Terms {
		if !t.Holds(o) {
			return false
		}
	}
	return true
}

// Evaluate applies the quantifier over a set of outcomes.
func (c Condition) Evaluate(outcomes []core.Outcome) bool {
	switch c.Quantifier {
	case Exists:
		for _, o := range outcomes {
			if c.Proposition(o) {
				return true
			}
		}
		return false
	case NotExists:
		for _, o := range outcomes {
			if c.Proposition(o) {
				return false
			}
		}
		return true
	case Forall:
		for _, o := range outcomes {
			if !c.Proposition(o) {
				return false
			}
		}
		return true
	default:
		return false
	}
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
	// Candidates is the total number of candidate executions enumerated.
	Candidates int
	// Outcomes is the set of observable outcomes.
	Outcomes *core.OutcomeSet
	// Unit is the stable work-unit identifier of this (test, type) verdict,
	// derived from the digest of the test's content. Harnesses that plan
	// and shard verdict sweeps set it so streamed progress events can be
	// correlated with plan entries; it is empty when the verdict was run
	// directly (Test.Run/RunParallel).
	Unit string
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

// Run model-checks the test under the given atomicity type. Candidate
// executions are streamed through the model's validity filter one at a
// time, so the full candidate set is never materialized.
func (t *Test) Run(typ core.AtomicityType) (Result, error) {
	return t.RunParallel(context.Background(), typ, 1)
}

// RunParallel model-checks the test under the given atomicity type with
// the candidate enumeration spread over workers goroutines, as
// memmodel.EnumWorkers defines them: each worker walks a contiguous range
// of the rf×ws choice space and runs the validity check — the expensive
// part of a verdict — on its own candidates, while outcome collection
// stays serialized. workers == 1 is the sequential Run, workers > 1
// parallelizes, and workers <= 0 applies the candidate-count rule
// (GOMAXPROCS for IRIW-class programs, 1 for small ones). The verdict is
// identical to Run's regardless of workers; a cancelled ctx aborts the
// verdict with ctx's error.
func (t *Test) RunParallel(ctx context.Context, typ core.AtomicityType, workers int) (Result, error) {
	model := core.NewModel(typ)
	set := core.NewOutcomeSet()
	valid := 0
	var candidates atomic.Int64
	err := memmodel.EnumerateFunc(t.Program, func(x *memmodel.Execution) bool {
		valid++
		set.Add(core.OutcomeOf(x))
		return true
	}, memmodel.EnumContext(ctx), memmodel.EnumWorkers(workers),
		memmodel.EnumFilter(func(x *memmodel.Execution) bool {
			candidates.Add(1)
			return model.Valid(x)
		}))
	if err != nil {
		return Result{}, fmt.Errorf("litmus: %s: %w", t.Name, err)
	}
	holds := t.Cond.Evaluate(set.Outcomes())
	res := Result{
		Test:            t,
		Atomicity:       typ,
		Holds:           holds,
		Matches:         true,
		ValidExecutions: valid,
		Candidates:      int(candidates.Load()),
		Outcomes:        set,
	}
	if exp, ok := t.Expected[typ]; ok {
		e := exp
		res.Expected = &e
		res.Matches = holds == exp
	}
	return res, nil
}

// RunAll runs the test under every atomicity type, in order.
func (t *Test) RunAll() ([]Result, error) {
	var out []Result
	for _, typ := range core.AllTypes() {
		r, err := t.Run(typ)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
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
