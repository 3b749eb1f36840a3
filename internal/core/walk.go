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
	// candidates that satisfy uniproc.
	Candidates int
}

// Verdicts model-checks the program under each of the given atomicity
// types in one walk, returning one Verdict per type in the given order.
// The candidates, uniproc and com ∪ ppo ∪ bar do not depend on the type,
// only the ato edges do, so the walk visits the candidates that satisfy
// uniproc (memmodel.EnumUniproc) once, and its Classifier closes each
// candidate's base order once and runs every type's fixpoint on a copy.
//
// The classifier runs inside the enumeration workers, spread over
// workers goroutines as memmodel.EnumWorkers defines them (workers <= 0
// applies the candidate-count rule), and outcome collection stays
// serialized. A candidate valid under some type is folded into the
// per-type results through a fingerprint of its observable values, so a
// repeated outcome costs one map probe. The verdicts are identical for
// any workers; a cancelled ctx aborts the walk with ctx's error. A type
// other than Type1, Type2 and Type3 is an error.
func Verdicts(ctx context.Context, p *memmodel.Program, types []AtomicityType, workers int) ([]Verdict, error) {
	for _, t := range types {
		if t < Type1 || t > Type3 {
			return nil, fmt.Errorf("core: unknown atomicity type %v", t)
		}
	}
	var col outcomeCollector
	candidates := 0
	err := memmodel.EnumerateFunc(p, col.add, memmodel.EnumContext(ctx), memmodel.EnumWorkers(workers),
		memmodel.EnumUniproc(), memmodel.EnumCandidates(&candidates), memmodel.EnumClassify(Classifier(types...)))
	if err != nil {
		return nil, err
	}
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
// A candidate's fingerprint is exactly what Outcome.Key renders: the value
// of each register's last labeled read, in register-name order, then every
// location's final value, in ascending location order. Every candidate of
// a walk has the same events, so the register and location names are
// derived once, from the first candidate, and one fingerprint is one
// outcome: a new fingerprint builds its Outcome and key in one pass, and
// a repeated one costs one map probe.
type outcomeCollector struct {
	valid [3]int
	// regs lists the registers in name order and addrs the locations in
	// ascending order, both set from the first candidate.
	regs  []register
	addrs []memmodel.Addr
	fp    []byte
	vals  []memmodel.Value
	// seen maps a fingerprint to its index in distinct; it is nil until
	// the first candidate.
	seen     map[string]int
	distinct []distinctOutcome
	// The slices' first backing arrays, which fit litmus-sized programs.
	fpBuf       [64]byte
	valBuf      [8]memmodel.Value
	regBuf      [8]register
	distinctBuf [4]distinctOutcome
}

// register is one named register of a walk: its Event.Register name and
// the event of its last labeled read, whose value it ends with.
type register struct {
	name  string
	event int
}

// distinctOutcome is one fingerprint's outcome, the union of the classes
// of its candidates, and its key.
type distinctOutcome struct {
	outcome Outcome
	class   uint64
	key     string
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
	c.fp = c.fp[:0]
	for _, r := range c.regs {
		c.fp = binary.AppendVarint(c.fp, int64(x.Events[r.event].Value))
	}
	c.vals = x.AppendFinalValues(c.vals[:0])
	for _, v := range c.vals {
		c.fp = binary.AppendVarint(c.fp, int64(v))
	}
	if i, ok := c.seen[string(c.fp)]; ok {
		c.distinct[i].class |= class
		return true
	}
	c.seen[string(c.fp)] = len(c.distinct)
	c.distinct = append(c.distinct, c.outcome(x, class))
	return true
}

// prepare derives the walk's registers and locations from its first
// candidate.
func (c *outcomeCollector) prepare(x *memmodel.Execution) {
	c.regs, c.distinct = c.regBuf[:0], c.distinctBuf[:0]
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
	c.addrs = slices.Sorted(maps.Keys(x.FinalMemory()))
	c.seen, c.fp, c.vals = map[string]int{}, c.fpBuf[:0], c.valBuf[:0]
}

// outcome builds the candidate's Outcome and its key from the values its
// fingerprint just read.
func (c *outcomeCollector) outcome(x *memmodel.Execution, class uint64) distinctOutcome {
	o := Outcome{
		Registers: make(map[string]memmodel.Value, len(c.regs)),
		Memory:    make(map[memmodel.Addr]memmodel.Value, len(c.addrs)),
	}
	key := make([]byte, 0, keyBytes(len(c.regs), len(c.addrs)))
	for i, r := range c.regs {
		v := x.Events[r.event].Value
		o.Registers[r.name] = v
		key = appendRegister(key, i, r.name, v)
	}
	for i, a := range c.addrs {
		o.Memory[a] = c.vals[i]
		key = appendLocation(key, i, a, c.vals[i])
	}
	return distinctOutcome{outcome: o, class: class, key: string(key)}
}

// set returns the outcome set of type t: the outcomes of the candidates
// valid under it.
func (c *outcomeCollector) set(t AtomicityType) *OutcomeSet {
	s := &OutcomeSet{byKey: make(map[string]Outcome, len(c.distinct))}
	for _, d := range c.distinct {
		if d.class&t.Bit() != 0 {
			s.byKey[d.key] = d.outcome
		}
	}
	return s
}
