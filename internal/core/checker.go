package core

import (
	"sync"

	"repro/internal/memmodel"
)

// Checker decides execution validity with reusable scratch state: the
// order/closure/ato relations live in the checker and are recycled across
// candidates, and the RMW pairing plus per-pair disallowed event sets are
// derived once per (program, atomicity type) and cached — they depend only
// on the program's events, not on the rf/ws choice. Checking a steady
// stream of candidates of one program therefore allocates nothing, which
// is what keeps EnumFilter-based verdicts inside enumeration workers
// allocation-free.
//
// Valid runs the atomicity fixpoint of §2.2 of the paper that DeriveAto
// documents; DeriveAto runs a Checker and adds the diagnostics, so use it
// when the ato edges, the cycle, or an explanation is needed. A Checker is
// not safe for concurrent use; give each goroutine its own, or use the
// pooled package-level Valid.
type Checker struct {
	prog    *memmodel.Program
	nEvents int
	typ     AtomicityType
	cached  bool

	pairs      []RMWPair
	disallowed [][]int

	order, closure, ato memmodel.Relation
}

// NewChecker returns a checker with empty caches; the first Valid call
// sizes them for its program.
func NewChecker() *Checker { return &Checker{} }

// prepare (re)derives the RMW pairing and disallowed sets when the checker
// last saw a different program or atomicity type.
func (c *Checker) prepare(x *memmodel.Execution, t AtomicityType) {
	if c.cached && c.prog == x.Program && c.nEvents == len(x.Events) && c.typ == t {
		return
	}
	c.prog, c.nEvents, c.typ, c.cached = x.Program, len(x.Events), t, true
	c.pairs = RMWPairs(x)
	c.disallowed = c.disallowed[:0]
	for _, p := range c.pairs {
		c.disallowed = append(c.disallowed, DisallowedEvents(t, x, p))
	}
}

// Valid reports whether the execution is a valid witness of the TSO model
// extended with RMWs of the given atomicity type. It is equivalent to
// DeriveAto(x, t).Valid but allocation-free in steady state.
//
// Valid checks uniproc itself even though the model's own enumerations
// (memmodel.EnumUniproc) only hand it candidates that satisfy it:
// Model.Valid, DeriveAto, Explain and the oracle tests pass it arbitrary
// executions, which need not.
func (c *Checker) Valid(x *memmodel.Execution, t AtomicityType) bool {
	if !x.Uniproc() {
		return false
	}
	c.prepare(x, t)
	n := len(x.Events)
	com, ppo, bar := x.Com(), x.PPO(), x.Bar()
	c.order.Reset(n)
	c.order.Union(com)
	c.order.Union(ppo)
	c.order.Union(bar)
	c.ato.Reset(n)
	for {
		c.closure.CopyFrom(&c.order).TransitiveClosure()
		changed := false
		for i, p := range c.pairs {
			for _, m := range c.disallowed[i] {
				// Ra ordered before M forces Wa before M.
				if c.closure.Has(p.Read, m) && !c.ato.Has(p.Write, m) && !c.closure.Has(p.Write, m) {
					c.ato.Add(p.Write, m)
					c.order.Add(p.Write, m)
					changed = true
				}
				// M ordered before Wa forces M before Ra.
				if c.closure.Has(m, p.Write) && !c.ato.Has(m, p.Read) && !c.closure.Has(m, p.Read) {
					c.ato.Add(m, p.Read)
					c.order.Add(m, p.Read)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return c.order.Acyclic()
}

// checkerPool recycles checkers for the package-level Valid, so concurrent
// validity filters (one enumeration worker each) reuse at most one checker
// per goroutine instead of rebuilding scratch state per candidate.
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
