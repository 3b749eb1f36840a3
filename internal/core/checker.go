package core

import (
	"math/bits"
	"slices"

	"repro/internal/memmodel"
)

// Checker decides execution validity with reusable scratch state: the
// relations the fixpoints grow live in the checker and are recycled
// across candidates, and the RMW pairing plus every atomicity type's
// disallowed event rows are derived once per program and cached — they
// depend only on the program's events, not on the rf/ws choice or the
// type. The closed base order is the execution's own
// (Execution.BaseClosure), which a walk's slot keeps across candidates.
// Checking a steady stream of candidates of one program therefore
// allocates nothing, under one type or several, which is what keeps the
// classifiers of EnumClassify-based verdicts inside enumeration workers
// allocation-free.
//
// Valid runs the atomicity fixpoint of §2.2 of the paper incrementally
// (atoPlan.close); DeriveAto runs the same fixpoint round by round and
// adds the diagnostics, so use it when the ato edges, the cycle, or an
// explanation is needed. A Checker is not safe for concurrent use; give
// each goroutine its own, as Classifier does for each walker.
type Checker struct {
	plan atoPlan
	// work holds the candidate's closed base order
	// (Execution.BaseClosure), grown by a type's ato edges; seed keeps
	// type-3's closure while another type grows work.
	work, seed memmodel.Relation
}

// NewChecker returns a checker with empty caches; the first Valid call
// sizes them for its program.
func NewChecker() *Checker { return &Checker{} }

// atoPlan is the part of the ato fixpoint that depends only on a
// program's events: its RMW pairs and, per atomicity type, the events the
// type forbids between each pair's halves, as bit rows in the layout of
// memmodel.Relation.Row. Its slices keep their backing arrays across
// programs, so re-deriving it allocates only when a program needs more
// room than any before.
type atoPlan struct {
	prog    *memmodel.Program
	nEvents int
	ready   bool

	pairs []RMWPair
	// words is the width of a row, ceil(nEvents/64);
	// dis[t-1][i*words:(i+1)*words] holds the events type t forbids
	// between the halves of pairs[i].
	words int
	dis   [3][]uint64
}

// prepare (re)derives the plan when it last saw a different program.
func (pl *atoPlan) prepare(x *memmodel.Execution) {
	if pl.ready && pl.prog == x.Program && pl.nEvents == len(x.Events) {
		return
	}
	pl.prog, pl.nEvents, pl.ready = x.Program, len(x.Events), true
	pl.pairs = appendRMWPairs(pl.pairs[:0], x)
	pl.words = (len(x.Events) + 63) / 64
	for t := Type1; t <= Type3; t++ {
		dis := slices.Grow(pl.dis[t-1][:0], len(pl.pairs)*pl.words)[:len(pl.pairs)*pl.words]
		clear(dis)
		for i, p := range pl.pairs {
			row := dis[i*pl.words : (i+1)*pl.words]
			for _, e := range x.Events {
				if Disallowed(t, e, p) {
					row[e.Index/64] |= 1 << (e.Index % 64)
				}
			}
		}
		pl.dis[t-1] = dis
	}
}

// close runs type t's ato fixpoint on r, the transitive closure of
// an acyclic order that holds com ∪ ppo ∪ bar and lies inside t's least
// fixpoint: the closed base order, or type-3's closure for the other
// types (Checker.decide). Each forced edge goes in by closed insertion
// (Relation.AddClosed), so r stays the transitive closure of the order
// built so far. It reports whether the fixpoint completes without
// closing a cycle, that is whether the execution is valid under t.
//
// Per pair, the rules find the edges they force with word operations on
// rows, for any row width:
//   - Ra before M forces Wa before M: the forced M are Ra's row AND the
//     disallowed row AND NOT Wa's row.
//   - M before Wa forces M before Ra: the forced M are the disallowed
//     events whose rows hold Wa but not Ra. Once the first rule has run,
//     every disallowed event after Ra is after Wa too, so it cannot
//     precede Wa in the acyclic r, and only the disallowed events outside
//     Ra's row are probed.
//
// The result is exact because the rules are monotone: Ra <* M forces
// Wa -> M, and M <* Wa forces M -> Ra, so an edge the rules force under
// the order built so far is forced under the final order too. The first
// edge that closes a cycle therefore closes one in the final order; and a
// sweep over every pair that inserts nothing leaves r closed under the
// rules, the least fixpoint.
func (pl *atoPlan) close(r *memmodel.Relation, t AtomicityType) bool {
	dis, words := pl.dis[t-1], pl.words
	for {
		changed := false
		for i, p := range pl.pairs {
			row := dis[i*words : (i+1)*words]
			ra, wa := r.Row(p.Read), r.Row(p.Write)
			for k, d := range row {
				for m := ra[k] & d &^ wa[k]; m != 0; m &= m - 1 {
					if !r.AddClosed(p.Write, k*64+bits.TrailingZeros64(m)) {
						return false
					}
					changed = true
				}
			}
			raWord, raBit := p.Read/64, uint64(1)<<(p.Read%64)
			waWord, waBit := p.Write/64, uint64(1)<<(p.Write%64)
			for k, d := range row {
				for m := d &^ ra[k]; m != 0; m &= m - 1 {
					e := k*64 + bits.TrailingZeros64(m)
					if me := r.Row(e); me[waWord]&waBit != 0 && me[raWord]&raBit == 0 {
						if !r.AddClosed(e, p.Read) {
							return false
						}
						changed = true
					}
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// classify returns the subset of want, a mask of type bits
// (AtomicityType.Bit), under whose types x is valid. It does not check
// uniproc: x must satisfy it, as every candidate of a pruned walk
// (memmodel.EnumUniprocAdjacentRMW) does.
//
// com ∪ ppo ∪ bar does not depend on the type, so the execution closes
// it once (Execution.BaseClosure, which a walk's slot rebuilds only from
// its first changed step on) into the work relation, and decide runs the
// fixpoints there. A cycle in the base order rejects every type at once.
func (c *Checker) classify(x *memmodel.Execution, want uint64) uint64 {
	c.plan.prepare(x)
	if !x.BaseClosure(&c.work) {
		return 0
	}
	return c.decide(want)
}

// decide returns the subset of want under whose types the execution of
// the prepared plan is valid, given its acyclic closed base order in the
// work relation. A program without RMW pairs has no ato edges, so the
// base order decides every type. One type runs its own fixpoint on the
// base order.
//
// Several types share one chain. Type-3 forbids only same-address
// writes, which both other types forbid too (Disallowed), so its rules
// are a subset of theirs; the rules are monotone, so type-3's least
// fixpoint lies inside type-2's and type-1's, and running either from
// type-3's closure reaches the same fixpoint as running it from the base
// order: lfp(R1, lfp(R3, B)) = lfp(R1, B), and likewise for type-2. decide
// therefore runs type-3's fixpoint first, rejects every type when it
// closes a cycle, and otherwise seeds type-2 and type-1 each with its
// closure. Nothing is inferred between type-1 and type-2, whose forbidden
// sets do not nest: each runs its own fixpoint, and a cycle in one
// decides only that type.
func (c *Checker) decide(want uint64) uint64 {
	if len(c.plan.pairs) == 0 || want == 0 {
		return want
	}
	if want&(want-1) == 0 {
		if c.plan.close(&c.work, AtomicityType(bits.TrailingZeros64(want)+1)) {
			return want
		}
		return 0
	}
	if !c.plan.close(&c.work, Type3) {
		return 0
	}
	valid := want & Type3.Bit()
	both := want&Type2.Bit() != 0 && want&Type1.Bit() != 0
	if both {
		c.seed.CopyFrom(&c.work)
	}
	if want&Type2.Bit() != 0 && c.plan.close(&c.work, Type2) {
		valid |= Type2.Bit()
	}
	if both {
		c.work.CopyFrom(&c.seed)
	}
	if want&Type1.Bit() != 0 && c.plan.close(&c.work, Type1) {
		valid |= Type1.Bit()
	}
	return valid
}

// Valid reports whether the execution is a valid witness of the TSO model
// extended with RMWs of the given atomicity type. It is equivalent to
// DeriveAto(x, t).Valid but allocation-free in steady state, and runs
// only t's fixpoint.
//
// Valid takes arbitrary executions (the oracle tests pass every
// candidate), so it checks uniproc itself; the walk of Verdicts hands its
// classifier only candidates that satisfy it and skips the check.
func (c *Checker) Valid(x *memmodel.Execution, t AtomicityType) bool {
	return x.Uniproc() && c.classify(x, t.Bit()) != 0
}

// Classifier returns the classifier constructor a pruned walk
// (memmodel.EnumUniprocAdjacentRMW) passes to memmodel.EnumClassify to decide the
// given atomicity types. Each call builds a classifier with a Checker of
// its own, for one walker: it maps a candidate to the mask of the types
// (AtomicityType.Bit) it is valid under, so the walk drops a candidate
// valid under none and visit reads the mask back with Execution.Class.
// It does not check uniproc, which every candidate of the walk
// satisfies, and is allocation-free in steady state.
func Classifier(types ...AtomicityType) func() func(*memmodel.Execution) uint64 {
	want := maskOf(types)
	return func() func(*memmodel.Execution) uint64 {
		c := NewChecker()
		return func(x *memmodel.Execution) uint64 { return c.classify(x, want) }
	}
}
