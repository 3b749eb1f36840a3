package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/memmodel"
)

// Model is a TSO memory model extended with RMWs of a particular atomicity
// type. It provides model checking of litmus-sized programs: enumeration of
// valid executions and their observable outcomes.
type Model struct {
	// Atomicity selects the RMW atomicity definition (type-1/2/3).
	Atomicity AtomicityType
}

// NewModel returns a model using the given atomicity type.
func NewModel(t AtomicityType) *Model { return &Model{Atomicity: t} }

// Valid reports whether a candidate execution is a valid witness under the
// model, by the ato fixpoint.
func (m *Model) Valid(x *memmodel.Execution) bool { return Valid(x, m.Atomicity) }

// ValidExecutions enumerates the candidate executions of the program that
// satisfy uniproc and returns the valid ones, cloned out of the enumerator's arena so they
// remain valid indefinitely.
func (m *Model) ValidExecutions(p *memmodel.Program) ([]*memmodel.Execution, error) {
	var out []*memmodel.Execution
	err := m.ValidExecutionsFunc(p, func(x *memmodel.Execution) bool {
		out = append(out, x.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ValidExecutionsFunc streams the valid executions of the program to visit
// without materializing the candidate set. Only the candidates that
// satisfy uniproc are assembled and checked (memmodel.EnumUniproc), since
// no other can be valid. Returning false from visit stops the enumeration
// early.
func (m *Model) ValidExecutionsFunc(p *memmodel.Program, visit func(*memmodel.Execution) bool) error {
	return memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
		if !m.Valid(x) {
			return true
		}
		return visit(x)
	}, memmodel.EnumUniproc())
}

// Outcome is one observable result of a program: the final values of all
// named registers and of memory. The Key method provides a canonical string
// for set membership and sorting.
type Outcome struct {
	// Registers maps "P<tid>:<reg>" to the value the register holds at the
	// end of the execution.
	Registers map[string]memmodel.Value
	// Memory maps each location to its final value.
	Memory map[memmodel.Addr]memmodel.Value
}

// Key returns a canonical, deterministic rendering of the outcome, e.g.
// "P0:r1=0 P1:r1=0 | x=1 y=1".
func (o Outcome) Key() string {
	regs := make([]string, 0, len(o.Registers))
	for k := range o.Registers {
		regs = append(regs, k)
	}
	sort.Strings(regs)
	var b strings.Builder
	for i, k := range regs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, int(o.Registers[k]))
	}
	addrs := make([]int, 0, len(o.Memory))
	for a := range o.Memory {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	if len(addrs) > 0 {
		b.WriteString(" |")
		for _, a := range addrs {
			fmt.Fprintf(&b, " %s=%d", memmodel.AddrName(memmodel.Addr(a)), int(o.Memory[memmodel.Addr(a)]))
		}
	}
	return b.String()
}

// OutcomeOf extracts the observable outcome of an execution.
func OutcomeOf(x *memmodel.Execution) Outcome {
	return Outcome{Registers: x.RegisterValues(), Memory: x.FinalMemory()}
}

// OutcomeSet is the set of observable outcomes of a program under a model,
// keyed by Outcome.Key.
type OutcomeSet struct {
	byKey map[string]Outcome
}

// NewOutcomeSet returns an empty outcome set.
func NewOutcomeSet() *OutcomeSet { return &OutcomeSet{byKey: map[string]Outcome{}} }

// Add inserts an outcome.
func (s *OutcomeSet) Add(o Outcome) { s.byKey[o.Key()] = o }

// Contains reports whether an outcome with the same key is in the set.
func (s *OutcomeSet) Contains(o Outcome) bool {
	_, ok := s.byKey[o.Key()]
	return ok
}

// ContainsKey reports whether an outcome with the given canonical key is in
// the set.
func (s *OutcomeSet) ContainsKey(key string) bool {
	_, ok := s.byKey[key]
	return ok
}

// Len returns the number of distinct outcomes.
func (s *OutcomeSet) Len() int { return len(s.byKey) }

// Keys returns the canonical keys of all outcomes, sorted.
func (s *OutcomeSet) Keys() []string {
	out := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Outcomes returns the outcomes sorted by key.
func (s *OutcomeSet) Outcomes() []Outcome {
	keys := s.Keys()
	out := make([]Outcome, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.byKey[k])
	}
	return out
}

// SubsetOf reports whether every outcome in s is also in other.
func (s *OutcomeSet) SubsetOf(other *OutcomeSet) bool {
	for k := range s.byKey {
		if !other.ContainsKey(k) {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same outcome keys.
func (s *OutcomeSet) Equal(other *OutcomeSet) bool {
	return s.SubsetOf(other) && other.SubsetOf(s)
}

// Outcomes model-checks the program: it enumerates candidate executions,
// filters the valid ones, and returns the set of observable outcomes. The
// candidates are streamed, never materialized.
func (m *Model) Outcomes(p *memmodel.Program) (*OutcomeSet, error) {
	set := NewOutcomeSet()
	err := m.ValidExecutionsFunc(p, func(x *memmodel.Execution) bool {
		set.Add(OutcomeOf(x))
		return true
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// OutcomesParallel model-checks the program like Outcomes with the
// candidate enumeration spread over workers goroutines, as
// memmodel.EnumWorkers defines them (workers <= 0 applies the
// candidate-count rule): validity checking runs inside the workers,
// outcome collection stays serialized, and the result is identical to
// Outcomes. Like Outcomes it walks only the candidates that satisfy
// uniproc. A cancelled ctx aborts with ctx's error. The model's validity
// check is stateless, so sharing m across the workers is safe.
func (m *Model) OutcomesParallel(ctx context.Context, p *memmodel.Program, workers int) (*OutcomeSet, error) {
	set := NewOutcomeSet()
	err := memmodel.EnumerateFunc(p, func(x *memmodel.Execution) bool {
		set.Add(OutcomeOf(x))
		return true
	}, memmodel.EnumContext(ctx), memmodel.EnumWorkers(workers), memmodel.EnumUniproc(),
		memmodel.EnumFilter(m.Valid))
	if err != nil {
		return nil, err
	}
	return set, nil
}

// Allows reports whether some valid execution of the program satisfies the
// predicate over its outcome. The enumeration stops at the first witness.
func (m *Model) Allows(p *memmodel.Program, pred func(Outcome) bool) (bool, error) {
	found := false
	err := m.ValidExecutionsFunc(p, func(x *memmodel.Execution) bool {
		if pred(OutcomeOf(x)) {
			found = true
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return found, nil
}

// Forbids reports whether no valid execution of the program satisfies the
// predicate over its outcome.
func (m *Model) Forbids(p *memmodel.Program, pred func(Outcome) bool) (bool, error) {
	allowed, err := m.Allows(p, pred)
	if err != nil {
		return false, err
	}
	return !allowed, nil
}

// Explain describes why an execution is (in)valid under the model, rendering
// the ato edges and, for invalid executions, one cycle or the uniproc
// violation. Intended for the litmus tool's verbose mode.
func (m *Model) Explain(x *memmodel.Execution) string {
	res := DeriveAto(x, m.Atomicity)
	var b strings.Builder
	fmt.Fprintf(&b, "atomicity: %s\n", m.Atomicity)
	fmt.Fprintf(&b, "ato edges (%d):\n", res.Ato.Count())
	for _, pr := range res.Ato.Pairs() {
		fmt.Fprintf(&b, "  %s -ato-> %s\n", x.Events[pr[0]], x.Events[pr[1]])
	}
	if res.UniprocViolation {
		b.WriteString("INVALID: uniproc (SC per location) violated\n")
		return b.String()
	}
	if res.Valid {
		b.WriteString("VALID: com ∪ ppo ∪ bar ∪ ato is acyclic\n")
		if ghb, ok := GlobalOrder(x, m.Atomicity); ok {
			b.WriteString("one global memory order:\n")
			for _, e := range ghb {
				fmt.Fprintf(&b, "  %s\n", e)
			}
		}
	} else {
		b.WriteString("INVALID: cycle in com ∪ ppo ∪ bar ∪ ato:\n")
		for _, id := range res.Cycle {
			fmt.Fprintf(&b, "  %s ->\n", x.Events[id])
		}
		if len(res.Cycle) > 0 {
			fmt.Fprintf(&b, "  %s (closes cycle)\n", x.Events[res.Cycle[0]])
		}
	}
	return b.String()
}
