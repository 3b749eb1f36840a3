package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
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
// satisfy uniproc are assembled (memmodel.EnumUniproc), since no other
// can be valid, and the model's Classifier checks them without repeating
// the uniproc check. Returning false from visit stops the enumeration
// early.
func (m *Model) ValidExecutionsFunc(p *memmodel.Program, visit func(*memmodel.Execution) bool) error {
	return memmodel.EnumerateFunc(p, visit, memmodel.EnumUniproc(), memmodel.EnumClassify(Classifier(m.Atomicity)))
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
	b := make([]byte, 0, 12*(len(o.Registers)+len(o.Memory)))
	for i, k := range regs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(o.Registers[k]), 10)
	}
	addrs := make([]int, 0, len(o.Memory))
	for a := range o.Memory {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	if len(addrs) > 0 {
		b = append(b, " |"...)
		for _, a := range addrs {
			b = append(b, ' ')
			b = append(b, memmodel.AddrName(memmodel.Addr(a))...)
			b = append(b, '=')
			b = strconv.AppendInt(b, int64(o.Memory[memmodel.Addr(a)]), 10)
		}
	}
	return string(b)
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

// Outcomes model-checks the program: it walks the candidate executions
// once, classifying them as ValidExecutionsFunc does, and returns the set
// of observable outcomes of the valid ones (Verdicts under the model's
// one type). The candidates are streamed, never materialized.
func (m *Model) Outcomes(p *memmodel.Program) (*OutcomeSet, error) {
	vs, err := Verdicts(context.Background(), p, []AtomicityType{m.Atomicity}, 1)
	if err != nil {
		return nil, err
	}
	return vs[0].Outcomes, nil
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
