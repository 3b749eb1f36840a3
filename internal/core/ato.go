package core

import (
	"repro/internal/memmodel"
)

// AtoResult holds the outcome of the atomicity-induced-ordering fixpoint for
// one candidate execution under one atomicity type.
type AtoResult struct {
	// Exec is the analysed execution.
	Exec *memmodel.Execution
	// Type is the atomicity definition used.
	Type AtomicityType
	// Ato holds the atomicity-induced orderings derived by the fixpoint.
	Ato *memmodel.Relation
	// Order is com ∪ ppo ∪ bar ∪ ato.
	Order *memmodel.Relation
	// Valid reports whether the execution is a valid witness: Order is
	// acyclic and the uniproc condition holds.
	Valid bool
	// Cycle, when Valid is false because of a cycle, holds one cycle of
	// event indices for diagnostics.
	Cycle []int
	// UniprocViolation is true when the execution fails the uniproc (SC per
	// location) condition.
	UniprocViolation bool
}

// DeriveAto computes the atomicity-induced ordering relation (ato) for the
// execution under the given atomicity type, and decides validity.
//
// The construction follows §2.2 of the paper. Each atomicity definition
// disallows a set of events from appearing between the read half Ra and the
// write half Wa of an RMW in the global memory order. Whenever the existing
// order (com ∪ ppo ∪ bar ∪ ato so far) places Ra before a disallowed event
// M, atomicity additionally requires Wa before M; symmetrically, if M is
// ordered before Wa, atomicity requires M before Ra. The fixpoint repeats
// until no new edge is added. The execution is a valid witness iff the final
// union is acyclic and the uniproc condition holds.
//
// The fixpoint is sound and complete for deciding the existence of a global
// memory order (ghb) with no disallowed event between Ra and Wa: the derived
// edges are all forced (any ghb must contain them), and when the union is
// acyclic a witness order is obtained by linearizing with each RMW's two
// halves contracted — no event can lie on a path strictly between Ra and Wa
// without closing a cycle through the induced edges. The brute-force oracle
// in oracle.go checks this equivalence on every litmus test in the suite.
//
// DeriveAto runs a Checker's fixpoint and materializes its full
// diagnostic result (ato edges, order, cycle), allocating accordingly;
// validity-only callers should use Valid or a Checker, which keep their
// scratch state for reuse.
func DeriveAto(x *memmodel.Execution, t AtomicityType) *AtoResult {
	res := &AtoResult{Exec: x, Type: t}
	if !x.Uniproc() {
		res.UniprocViolation = true
		res.Ato = memmodel.NewRelation(len(x.Events))
		res.Order = x.BaseOrder()
		return res
	}
	var c Checker
	res.Valid = c.Valid(x, t)
	res.Ato, res.Order = c.ato.Clone(), c.order.Clone()
	if !res.Valid {
		res.Cycle = res.Order.FindCycle()
	}
	return res
}

// GlobalOrder returns one global-happens-before order (a linear extension of
// com ∪ ppo ∪ bar ∪ ato) for a valid execution, with the additional property
// that no disallowed event appears between the halves of any RMW. It returns
// false when the execution is not valid under the atomicity type.
//
// The linearization contracts each RMW into a single super-node (placing Wa
// immediately after Ra), which is always possible for a valid execution: any
// event forced onto a path strictly between Ra and Wa would have produced a
// cycle during the ato fixpoint.
func GlobalOrder(x *memmodel.Execution, t AtomicityType) ([]*memmodel.Event, bool) {
	res := DeriveAto(x, t)
	if !res.Valid {
		return nil, false
	}
	n := len(x.Events)
	pairs := RMWPairs(x)

	// Map every event to its group representative: Wa maps to its Ra, all
	// other events map to themselves.
	rep := make([]int, n)
	for i := range rep {
		rep[i] = i
	}
	waOf := make(map[int]int) // representative (Ra index) -> Wa index
	for _, p := range pairs {
		rep[p.Write] = p.Read
		waOf[p.Read] = p.Write
	}

	// Build the contracted relation over representatives.
	contracted := memmodel.NewRelation(n)
	for _, pr := range res.Order.Pairs() {
		a, b := rep[pr[0]], rep[pr[1]]
		if a != b {
			contracted.Add(a, b)
		}
	}
	topo, err := contracted.TopoSort()
	if err != nil {
		// Contraction introduced a cycle; fall back to the plain order. This
		// should not happen for valid executions (see package comment), but
		// degrade gracefully rather than panic.
		return ghbFromOrder(x, res.Order)
	}
	var out []*memmodel.Event
	for _, id := range topo {
		if rep[id] != id {
			continue // Wa nodes are emitted right after their Ra
		}
		out = append(out, x.Events[id])
		if wa, ok := waOf[id]; ok {
			out = append(out, x.Events[wa])
		}
	}
	return out, true
}

func ghbFromOrder(x *memmodel.Execution, order *memmodel.Relation) ([]*memmodel.Event, bool) {
	ghb, err := x.GHB(order)
	if err != nil {
		return nil, false
	}
	return ghb, true
}

// CheckGHBAtomicity verifies that a total order of events (a ghb candidate)
// satisfies the atomicity definition directly: no disallowed event appears
// between the halves of any RMW. This is the paper's literal definition and
// is used by the oracle and by tests to validate GlobalOrder's output.
func CheckGHBAtomicity(x *memmodel.Execution, ghb []*memmodel.Event, t AtomicityType) bool {
	pos := make(map[int]int, len(ghb))
	for i, e := range ghb {
		pos[e.Index] = i
	}
	for _, p := range RMWPairs(x) {
		ra, okR := pos[p.Read]
		wa, okW := pos[p.Write]
		if !okR || !okW {
			return false
		}
		if ra > wa {
			return false
		}
		for _, m := range DisallowedEvents(t, x, p) {
			pm, ok := pos[m]
			if !ok {
				continue
			}
			if pm > ra && pm < wa {
				return false
			}
		}
	}
	return true
}
