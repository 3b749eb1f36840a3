package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/memmodel"
)

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
// its walk visited the candidates in, nor on its worker count. Keys
// renders the rows as keys on demand. The zero value is the empty set.
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

// Explain describes why an execution is (in)valid under atomicity type t,
// rendering the ato edges DeriveAto derives and, for a valid execution,
// one witness global memory order (GlobalOrder), or else one cycle or the
// uniproc violation.
func Explain(x *memmodel.Execution, t AtomicityType) string {
	res := DeriveAto(x, t)
	var b strings.Builder
	fmt.Fprintf(&b, "atomicity: %s\n", t)
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
		if ghb, ok := GlobalOrder(x, t); ok {
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
