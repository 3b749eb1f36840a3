package core

import (
	"sync"

	"repro/internal/memmodel"
)

// Checker decides execution validity with reusable scratch state: the
// base order and its closure live in the checker and are recycled across
// candidates, and the RMW pairing plus every atomicity type's disallowed
// event sets are derived once per program and cached — they depend only
// on the program's events, not on the rf/ws choice or the type. Checking
// a steady stream of candidates of one program therefore allocates
// nothing, under one type or several, which is what keeps the
// classifiers of EnumClassify-based verdicts inside enumeration workers
// allocation-free.
//
// Valid runs the atomicity fixpoint of §2.2 of the paper incrementally
// (atoPlan.close); DeriveAto runs the same fixpoint round by round and
// adds the diagnostics, so use it when the ato edges, the cycle, or an
// explanation is needed. A Checker is not safe for concurrent use; give
// each goroutine its own, or use the pooled package-level Valid and
// Classifier.
type Checker struct {
	plan atoPlan
	// base is com ∪ ppo ∪ bar, transitively closed; work is one type's
	// copy of it, grown by the type's ato edges.
	base, work memmodel.Relation
}

// NewChecker returns a checker with empty caches; the first Valid call
// sizes them for its program.
func NewChecker() *Checker { return &Checker{} }

// atoPlan is the part of the ato fixpoint that depends only on a
// program's events: its RMW pairs and, per atomicity type, the events the
// type forbids between each pair's halves. Its slices keep their backing
// arrays across programs, so re-deriving it allocates only when a program
// needs more room than any before.
type atoPlan struct {
	prog    *memmodel.Program
	nEvents int
	ready   bool

	pairs []RMWPair
	// dis[t-1][start[t-1][i]:start[t-1][i+1]] lists the events type t
	// forbids between the halves of pairs[i].
	dis, start [3][]int
}

// prepare (re)derives the plan when it last saw a different program.
func (pl *atoPlan) prepare(x *memmodel.Execution) {
	if pl.ready && pl.prog == x.Program && pl.nEvents == len(x.Events) {
		return
	}
	pl.prog, pl.nEvents, pl.ready = x.Program, len(x.Events), true
	pl.pairs = appendRMWPairs(pl.pairs[:0], x)
	for t := Type1; t <= Type3; t++ {
		dis, start := pl.dis[t-1][:0], append(pl.start[t-1][:0], 0)
		for _, p := range pl.pairs {
			dis = appendDisallowed(dis, t, x, p)
			start = append(start, len(dis))
		}
		pl.dis[t-1], pl.start[t-1] = dis, start
	}
}

// close runs type t's ato fixpoint on r, the transitive closure of
// com ∪ ppo ∪ bar, which must be acyclic. Each forced edge goes in by
// closed insertion (Relation.AddClosed), so r stays the transitive
// closure of the order built so far. It reports whether the fixpoint
// completes without closing a cycle, that is whether the execution is
// valid under t.
//
// The result is exact because the rules are monotone: Ra <* M forces
// Wa -> M, and M <* Wa forces M -> Ra, so an edge the rules force under
// the order built so far is forced under the final order too. The first
// edge that closes a cycle therefore closes one in the final order; and a
// sweep over every pair that inserts nothing leaves r closed under the
// rules, the least fixpoint.
func (pl *atoPlan) close(r *memmodel.Relation, t AtomicityType) bool {
	dis, start := pl.dis[t-1], pl.start[t-1]
	for {
		changed := false
		for i, p := range pl.pairs {
			for _, m := range dis[start[i]:start[i+1]] {
				// Ra ordered before M forces Wa before M.
				if r.Has(p.Read, m) && !r.Has(p.Write, m) {
					if !r.AddClosed(p.Write, m) {
						return false
					}
					changed = true
				}
				// M ordered before Wa forces M before Ra.
				if r.Has(m, p.Write) && !r.Has(m, p.Read) {
					if !r.AddClosed(m, p.Read) {
						return false
					}
					changed = true
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
// uniproc: x must satisfy it, as every candidate of a uniproc walk
// (memmodel.EnumUniproc) does.
//
// com ∪ ppo ∪ bar does not depend on the type, so it is closed once
// (Execution.BaseClosure: the candidate's com edges inserted into the
// program's closure of ppo ∪ bar); each wanted type then runs its
// fixpoint on a copy of the closure. A cycle in the base order rejects
// every type at once, and a program without RMW pairs has no ato edges,
// so its base order's acyclicity decides every type.
func (c *Checker) classify(x *memmodel.Execution, want uint64) uint64 {
	c.plan.prepare(x)
	if !x.BaseClosure(&c.base) {
		return 0
	}
	if len(c.plan.pairs) == 0 {
		return want
	}
	var valid uint64
	for t := Type1; t <= Type3; t++ {
		if want&t.Bit() == 0 {
			continue
		}
		c.work.CopyFrom(&c.base)
		if c.plan.close(&c.work, t) {
			valid |= t.Bit()
		}
	}
	return valid
}

// Valid reports whether the execution is a valid witness of the TSO model
// extended with RMWs of the given atomicity type. It is equivalent to
// DeriveAto(x, t).Valid but allocation-free in steady state.
//
// Valid takes arbitrary executions (Model.Valid, Explain and the oracle
// tests pass them), so it checks uniproc itself; the walks of Verdicts
// and Model.ValidExecutionsFunc hand their classifier only candidates
// that satisfy it and skip the check.
func (c *Checker) Valid(x *memmodel.Execution, t AtomicityType) bool {
	return x.Uniproc() && c.classify(x, t.Bit()) != 0
}

// checkerPool recycles checkers for the package-level Valid and
// Classifier, so concurrent classifiers (one enumeration worker each)
// reuse at most one checker per goroutine instead of rebuilding scratch
// state per candidate.
var checkerPool = sync.Pool{New: func() any { return NewChecker() }}

// Valid reports whether the execution is a valid witness of the TSO model
// extended with RMWs of the given atomicity type. It draws a Checker from
// a pool, so concurrent calls are safe and steady-state calls on one
// program stay allocation-free; hot loops that want deterministic reuse
// can hold their own Checker instead.
func Valid(x *memmodel.Execution, t AtomicityType) bool {
	c := checkerPool.Get().(*Checker)
	ok := c.Valid(x, t)
	checkerPool.Put(c)
	return ok
}

// Classifier returns the classifier a uniproc walk (memmodel.EnumUniproc)
// passes to memmodel.EnumClassify to decide the given atomicity types:
// it maps a candidate to the mask of the types (AtomicityType.Bit) it is
// valid under, so the walk drops a candidate valid under none and visit
// reads the mask back with Execution.Class. It does not check uniproc,
// which every candidate of the walk satisfies. It draws its Checker from
// a pool, so it is safe for concurrent use and allocation-free in steady
// state.
func Classifier(types ...AtomicityType) func(*memmodel.Execution) uint64 {
	want := maskOf(types)
	return func(x *memmodel.Execution) uint64 {
		c := checkerPool.Get().(*Checker)
		class := c.classify(x, want)
		checkerPool.Put(c)
		return class
	}
}
