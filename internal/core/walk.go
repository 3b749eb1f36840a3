package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"

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
// A candidate's fingerprint is the values of its labeled reads, in event
// order, followed by every location's final value. The fingerprint
// determines the outcome (Outcome.Key renders the last labeled read of
// each register and every final value), so OutcomeOf and Key run once
// per distinct fingerprint; it may be finer than the key — a register
// read twice contributes both values — but never coarser.
type outcomeCollector struct {
	valid [3]int
	// labeled lists the events whose values name registers, set from the
	// first candidate: every candidate of a walk has the same events.
	labeled []int
	ready   bool
	fp      []byte
	vals    []memmodel.Value
	// seen maps a fingerprint to its index in distinct.
	seen     map[string]int
	distinct []distinctOutcome
	// The slices' first backing arrays, which fit litmus-sized programs.
	fpBuf       [64]byte
	valBuf      [8]memmodel.Value
	labeledBuf  [8]int
	distinctBuf [4]distinctOutcome
}

// distinctOutcome is one fingerprint's outcome, the union of the classes
// of its candidates and, once rendered, its key.
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
	if !c.ready {
		c.labeled, c.distinct = c.labeledBuf[:0], c.distinctBuf[:0]
		for _, e := range x.Events {
			if e.IsRead() && e.Label != "" {
				c.labeled = append(c.labeled, e.Index)
			}
		}
		c.seen, c.fp, c.vals, c.ready = map[string]int{}, c.fpBuf[:0], c.valBuf[:0], true
	}
	c.fp = c.fp[:0]
	for _, i := range c.labeled {
		c.fp = binary.AppendVarint(c.fp, int64(x.Events[i].Value))
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
	c.distinct = append(c.distinct, distinctOutcome{outcome: OutcomeOf(x), class: class})
	return true
}

// set returns the outcome set of type t: the outcomes of the candidates
// valid under it. The first call renders every outcome's key.
func (c *outcomeCollector) set(t AtomicityType) *OutcomeSet {
	s := NewOutcomeSet()
	for i := range c.distinct {
		d := &c.distinct[i]
		if d.key == "" {
			d.key = d.outcome.Key()
		}
		if d.class&t.Bit() != 0 {
			s.byKey[d.key] = d.outcome
		}
	}
	return s
}
