package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/memmodel"
)

// Verdict is one atomicity type's share of a Verdicts walk.
type Verdict struct {
	// Type is the atomicity type decided.
	Type AtomicityType
	// Valid is the number of valid executions under Type.
	Valid int
	// Outcomes is the set of their observable outcomes.
	Outcomes *OutcomeSet
	// Candidates is the program's candidate count,
	// memmodel.CountCandidates; the walk assembles and checks only the
	// candidates that some type could accept.
	Candidates int
}

// Verdicts model-checks the program under each of the given atomicity
// types in one walk, returning one Verdict per type in the given order.
// The candidates, uniproc and com ∪ ppo ∪ bar do not depend on the type,
// only the ato edges do, so the walk visits once the candidates that
// satisfy uniproc and in which every RMW reads the ws-predecessor of its
// write half (memmodel.EnumUniprocAdjacentRMW), which every type requires,
// and its Classifier closes each candidate's base order once and decides
// every type from it, several types through one chain of fixpoints
// (Checker.decide).
//
// The classifiers run inside the enumeration workers, spread over
// workers goroutines as memmodel.EnumWorkers defines them (workers <= 0
// applies the candidate-count rule), one Checker per worker, and outcome
// collection stays serialized. A candidate valid under some type is
// folded into the per-type results through a fingerprint of its
// observable values, so a repeated outcome costs one map probe. The
// verdicts are identical for any workers, down to the order of their
// outcome sets' rows; a cancelled ctx aborts the walk with ctx's error. A
// type other than Type1, Type2 and Type3 is an error.
func Verdicts(ctx context.Context, p *memmodel.Program, types []AtomicityType, workers int) ([]Verdict, error) {
	for _, t := range types {
		if t < Type1 || t > Type3 {
			return nil, fmt.Errorf("core: unknown atomicity type %v", t)
		}
	}
	var col outcomeCollector
	candidates := 0
	err := memmodel.EnumerateFunc(p, col.add, memmodel.EnumContext(ctx), memmodel.EnumWorkers(workers),
		memmodel.EnumUniprocAdjacentRMW(), memmodel.EnumCandidates(&candidates), memmodel.EnumClassify(Classifier(types...)))
	if err != nil {
		return nil, err
	}
	col.finish()
	out := make([]Verdict, len(types))
	for i, t := range types {
		out[i] = Verdict{Type: t, Valid: col.valid[t-1], Outcomes: col.set(t), Candidates: candidates}
	}
	return out, nil
}

// outcomeCollector folds the classified candidates of one walk into
// per-type valid counts and outcome sets. Its add is the walk's visit,
// which the enumeration serializes, so it needs no lock.
//
// A candidate's outcome is one row of values, the columns of an
// OutcomeSet: the value of each register's last labeled read, in
// register-name order, then every location's final value, in ascending
// location order. Every candidate of a walk has the same events, so the
// columns are derived once, from the first candidate; a row's
// fingerprint, its values' varints, identifies it, so a new outcome
// appends its row and a repeated one costs one map probe. No key or
// Outcome map is built.
type outcomeCollector struct {
	valid [3]int
	// regs lists the registers in name order, names their names, and
	// addrs the locations in ascending order, all set from the first
	// candidate.
	regs  []register
	names []string
	addrs []memmodel.Addr
	fp    []byte
	// seen maps a fingerprint to its outcome's index; it is nil until the
	// first candidate. rows holds the distinct outcomes' rows back to
	// back, in the order the walk found them until finish orders them by
	// value, and classes[i] is the union of the classes of outcome i's
	// candidates.
	seen    map[string]int
	rows    []memmodel.Value
	classes []uint64
	// The slices' first backing arrays, which fit litmus-sized programs.
	fpBuf    [64]byte
	regBuf   [8]register
	nameBuf  [8]string
	rowBuf   [32]memmodel.Value
	classBuf [4]uint64
}

// register is one named register of a walk: its Event.Register name and
// the event of its last labeled read, whose value it ends with.
type register struct {
	name  string
	event int
}

// add folds one visited candidate, whose class is the mask of the types
// it is valid under.
func (c *outcomeCollector) add(x *memmodel.Execution) bool {
	class := x.Class()
	for b := class; b != 0; b &= b - 1 {
		c.valid[bits.TrailingZeros64(b)]++
	}
	if c.seen == nil {
		c.prepare(x)
	}
	start := len(c.rows)
	for _, r := range c.regs {
		c.rows = append(c.rows, x.Events[r.event].Value)
	}
	c.rows = x.AppendFinalValues(c.rows)
	c.fp = c.fp[:0]
	for _, v := range c.rows[start:] {
		c.fp = binary.AppendVarint(c.fp, int64(v))
	}
	if i, ok := c.seen[string(c.fp)]; ok {
		c.classes[i] |= class
		c.rows = c.rows[:start]
		return true
	}
	c.seen[string(c.fp)] = len(c.classes)
	c.classes = append(c.classes, class)
	return true
}

// prepare derives the walk's registers and locations from its first
// candidate.
func (c *outcomeCollector) prepare(x *memmodel.Execution) {
	c.regs = c.regBuf[:0]
	for _, e := range x.Events {
		name := e.Register()
		if name == "" {
			continue
		}
		if i := slices.IndexFunc(c.regs, func(r register) bool { return r.name == name }); i >= 0 {
			c.regs[i].event = e.Index
		} else {
			c.regs = append(c.regs, register{name: name, event: e.Index})
		}
	}
	slices.SortFunc(c.regs, func(a, b register) int { return strings.Compare(a.name, b.name) })
	c.names = c.nameBuf[:0]
	for _, r := range c.regs {
		c.names = append(c.names, r.name)
	}
	c.addrs = slices.Sorted(maps.Keys(x.FinalMemory()))
	c.seen, c.fp, c.rows, c.classes = map[string]int{}, c.fpBuf[:0], c.rowBuf[:0], c.classBuf[:0]
}

// finish ends the collection: it orders the distinct outcomes by value,
// so that the sets built from them do not depend on the order the walk
// found them in, and drops the fingerprints, which would otherwise live
// as long as the sets that share the collector's column names.
func (c *outcomeCollector) finish() {
	c.seen = nil
	w := len(c.regs) + len(c.addrs)
	order := make([]int, len(c.classes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(c.rows[a*w:(a+1)*w], c.rows[b*w:(b+1)*w])
	})
	rows := make([]memmodel.Value, 0, len(c.rows))
	classes := make([]uint64, len(order))
	for i, o := range order {
		rows = append(rows, c.rows[o*w:(o+1)*w]...)
		classes[i] = c.classes[o]
	}
	c.rows, c.classes = rows, classes
}

// set returns the outcome set of type t, the rows of the outcomes of the
// candidates valid under it, in sorted order; call it after finish. A type
// valid for every outcome shares the collector's rows, which no set
// modifies.
func (c *outcomeCollector) set(t AtomicityType) *OutcomeSet {
	s := &OutcomeSet{regs: c.names, addrs: c.addrs}
	for _, class := range c.classes {
		if class&t.Bit() != 0 {
			s.n++
		}
	}
	if s.n == len(c.classes) {
		s.rows = c.rows
		return s
	}
	w := len(c.regs) + len(c.addrs)
	s.rows = make([]memmodel.Value, 0, s.n*w)
	for i, class := range c.classes {
		if class&t.Bit() != 0 {
			s.rows = append(s.rows, c.rows[i*w:(i+1)*w]...)
		}
	}
	return s
}
