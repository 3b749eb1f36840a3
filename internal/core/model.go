package core

import (
	"context"
	"fmt"
	"iter"
	"slices"
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
// "P0:r1=0 P1:r1=0 | x=1 y=1": the registers in name order, then the
// locations in ascending order.
func (o Outcome) Key() string {
	regs := make([]string, 0, len(o.Registers))
	for k := range o.Registers {
		regs = append(regs, k)
	}
	sort.Strings(regs)
	b := make([]byte, 0, keyBytes(len(o.Registers), len(o.Memory)))
	for i, k := range regs {
		b = appendRegister(b, i, k, o.Registers[k])
	}
	addrs := make([]int, 0, len(o.Memory))
	for a := range o.Memory {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	for i, a := range addrs {
		b = appendLocation(b, i, memmodel.Addr(a), o.Memory[memmodel.Addr(a)])
	}
	return string(b)
}

// keyBytes is the capacity Key gives a key of regs registers and locs
// locations.
func keyBytes(regs, locs int) int { return 12 * (regs + locs) }

// appendRegister appends the i-th register of a key, in name order.
func appendRegister(b []byte, i int, name string, v memmodel.Value) []byte {
	if i > 0 {
		b = append(b, ' ')
	}
	b = append(b, name...)
	b = append(b, '=')
	return strconv.AppendInt(b, int64(v), 10)
}

// appendLocation appends the i-th location of a key, in ascending order;
// the first opens the memory part.
func appendLocation(b []byte, i int, a memmodel.Addr, v memmodel.Value) []byte {
	if i == 0 {
		b = append(b, " |"...)
	}
	b = append(b, ' ')
	b = append(b, memmodel.AddrName(a)...)
	b = append(b, '=')
	return strconv.AppendInt(b, int64(v), 10)
}

// OutcomeOf extracts the observable outcome of an execution.
func OutcomeOf(x *memmodel.Execution) Outcome {
	return Outcome{Registers: x.RegisterValues(), Memory: x.FinalMemory()}
}

// OutcomeSet is the set of observable outcomes of a program under a
// model, one row of values per distinct outcome: the final value of each
// register, in name order (Registers), then of each location, in
// ascending order (Locations), the columns Outcome.Key renders. The rows
// are sorted by value, so a verdict's set does not depend on the order
// its walk visited the candidates in, nor on its worker count. Keys, All
// and Outcomes render the rows as keys or Outcome maps on demand. The
// zero value is the empty set.
type OutcomeSet struct {
	regs  []string
	addrs []memmodel.Addr
	// rows holds the outcomes back to back, len(regs)+len(addrs) values
	// each, in ascending lexicographic order; n counts them.
	rows []memmodel.Value
	n    int
}

// Len returns the number of distinct outcomes.
func (s *OutcomeSet) Len() int { return s.n }

// Registers returns the names of the register columns, "P<tid>:<reg>" in
// name order. The slice is shared and must not be modified.
func (s *OutcomeSet) Registers() []string { return s.regs }

// Locations returns the location columns, in ascending order, which
// follow the register columns in every row. The slice is shared and must
// not be modified.
func (s *OutcomeSet) Locations() []memmodel.Addr { return s.addrs }

// Row returns the values of outcome i, 0 <= i < Len: its registers' in
// Registers order, then its locations' in Locations order. Rows come in
// ascending lexicographic order of their values. The slice is shared and
// must not be modified.
func (s *OutcomeSet) Row(i int) []memmodel.Value {
	w := len(s.regs) + len(s.addrs)
	return s.rows[i*w : (i+1)*w]
}

// appendKey appends outcome i's Outcome.Key to b.
func (s *OutcomeSet) appendKey(b []byte, i int) []byte {
	row := s.Row(i)
	for j, name := range s.regs {
		b = appendRegister(b, j, name, row[j])
	}
	for j, a := range s.addrs {
		b = appendLocation(b, j, a, row[len(s.regs)+j])
	}
	return b
}

// outcome builds outcome i's Outcome.
func (s *OutcomeSet) outcome(i int) Outcome {
	row := s.Row(i)
	o := Outcome{
		Registers: make(map[string]memmodel.Value, len(s.regs)),
		Memory:    make(map[memmodel.Addr]memmodel.Value, len(s.addrs)),
	}
	for j, name := range s.regs {
		o.Registers[name] = row[j]
	}
	for j, a := range s.addrs {
		o.Memory[a] = row[len(s.regs)+j]
	}
	return o
}

// Keys returns the canonical keys (Outcome.Key) of all outcomes, sorted,
// rendered straight from the rows.
func (s *OutcomeSet) Keys() []string {
	keys := make([]string, s.n)
	var b []byte
	for i := range keys {
		b = s.appendKey(b[:0], i)
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

// All iterates over the outcomes in row order, building each one's maps
// as it goes; Outcomes sorts them by key.
func (s *OutcomeSet) All() iter.Seq[Outcome] {
	return func(yield func(Outcome) bool) {
		for i := 0; i < s.n; i++ {
			if !yield(s.outcome(i)) {
				return
			}
		}
	}
}

// Outcomes returns the outcomes sorted by key.
func (s *OutcomeSet) Outcomes() []Outcome {
	type keyed struct {
		key string
		row int
	}
	byKey := make([]keyed, s.n)
	for i := range byKey {
		byKey[i] = keyed{string(s.appendKey(nil, i)), i}
	}
	slices.SortFunc(byKey, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]Outcome, s.n)
	for i, k := range byKey {
		out[i] = s.outcome(k.row)
	}
	return out
}

// SubsetOf reports whether every outcome in s is also in other, by key.
func (s *OutcomeSet) SubsetOf(other *OutcomeSet) bool {
	theirs := other.Keys()
	for _, k := range s.Keys() {
		if _, ok := slices.BinarySearch(theirs, k); !ok {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same outcome keys.
func (s *OutcomeSet) Equal(other *OutcomeSet) bool {
	return slices.Equal(s.Keys(), other.Keys())
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
