package cpp11

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"repro/internal/memmodel"
)

// checker judges the memmodel candidates of a program translated with
// every access a plain TSO read or write against the C/C++11 model of the
// source program. Each candidate event comes from the statement at its
// (Thread, PO), which supplies the memory order the TSO event lacks.
type checker struct {
	p      *Program
	atomic map[memmodel.Addr]bool
}

// order returns the memory order of the statement behind event e; initial
// writes are non-atomic.
func (c *checker) order(e *memmodel.Event) MemoryOrder {
	if e.IsInit() {
		return OrderNA
	}
	return c.p.Threads[e.Thread][e.PO].Order
}

// happensBefore returns the transitive closure of sequenced-before and
// synchronizes-with. Sequenced-before is the candidate's program order,
// which also puts the initial writes first ("initialization happens-before
// thread start"); an SC store synchronizes with every SC load of another
// thread that reads from it.
func (c *checker) happensBefore(x *memmodel.Execution) *memmodel.Relation {
	hb := x.PO().Clone()
	for _, l := range x.Events {
		s, ok := x.ReadsFrom(l.Index)
		if ok && c.order(l) == OrderSC && c.order(x.Events[s]) == OrderSC && l.Thread != x.Events[s].Thread {
			hb.Add(s, l.Index)
		}
	}
	return hb.TransitiveClosure()
}

// consistent reports whether candidate x, whose happens-before is hb, is
// consistent in the C/C++11 model (restricted to the subset this package
// implements). Consistency requires an SC total order to exist; the check
// enumerates candidate SC orders over the (few) SC actions.
//
// Coherence (the CoWW, CoWR, CoRW and CoRR shapes at atomic locations)
// needs no check of its own: the SC order decides it. Validate forbids
// mixing atomic and non-atomic accesses to a location, so every access
// to an atomic location is SC except its initial write, which is
// non-atomic, happens before every other event and comes first in mo.
// scOrderOK accepts an order S of the SC actions only if S contains hb
// and mo over them and every SC load reads from the latest SC store
// before it in S, or from the initial write when no SC store precedes
// it. Let a happen before b at an atomic location; then b is SC, and
// when a is SC it precedes b in S:
//
//   - CoWW (a, b stores): the initial write is mo-first, and mo(b, a)
//     between SC stores would put b before a in S.
//   - CoWR (a store, b load): b reads a or an SC store after a in S,
//     which mo cannot order before a; the initial write is mo-first.
//   - CoRW (a load, b store): a reads the initial write, mo-first, or an
//     SC store before a, hence before b, in S.
//   - CoRR (a, b loads): b reads the latest SC store before b in S, which
//     is a's source or an SC store after it; or both read the initial
//     write.
//
// TestCoherenceFollowsFromSCOrder checks the four shapes on every
// consistent candidate of generated programs.
func (c *checker) consistent(x *memmodel.Execution, hb *memmodel.Relation) bool {
	// happens-before must be irreflexive/acyclic.
	if !hb.Acyclic() {
		return false
	}
	// No load may read from a store that happens-after it.
	for _, l := range x.Events {
		if s, ok := x.ReadsFrom(l.Index); ok && hb.Has(l.Index, s) {
			return false
		}
	}
	// The modification order is the candidate's write serialization; the
	// SC order check reads it only between SC stores.
	return c.nonAtomicVisible(x, hb) && c.scOrderExists(x, hb, x.WSRel())
}

// nonAtomicVisible verifies that every non-atomic load reads from a visible
// side effect: a store that happens-before the load with no intervening
// store (in happens-before) to the same location.
func (c *checker) nonAtomicVisible(x *memmodel.Execution, hb *memmodel.Relation) bool {
	for _, l := range x.Events {
		store, ok := x.ReadsFrom(l.Index)
		if !ok || c.atomic[l.Addr] {
			continue
		}
		if !hb.Has(store, l.Index) {
			return false
		}
		for _, w := range x.Events {
			if w.IsWrite() && w.Addr == l.Addr && w.Index != store && hb.Has(store, w.Index) && hb.Has(w.Index, l.Index) {
				return false
			}
		}
	}
	return true
}

// scOrderExists searches for a total order over the SC actions that is
// consistent with happens-before and modification order and satisfies the
// SC-read restriction: an SC load must read from the last SC store to its
// location that precedes it in the SC order (or from a non-SC store when no
// SC store precedes it). It permutes the SC actions in place and stops at
// the first order scOrderOK accepts.
func (c *checker) scOrderExists(x *memmodel.Execution, hb, mo *memmodel.Relation) bool {
	var sc []int
	for _, e := range x.Events {
		if c.order(e) == OrderSC {
			sc = append(sc, e.Index)
		}
	}
	if len(sc) == 0 {
		return true
	}
	pos := make([]int, len(x.Events))
	// try fixes sc[:k] and tries every order of sc[k:].
	var try func(k int) bool
	try = func(k int) bool {
		if k == len(sc) {
			return c.scOrderOK(x, sc, pos, hb, mo)
		}
		for i := k; i < len(sc); i++ {
			sc[k], sc[i] = sc[i], sc[k]
			ok := try(k + 1)
			sc[k], sc[i] = sc[i], sc[k]
			if ok {
				return true
			}
		}
		return false
	}
	return try(0)
}

// scOrderOK reports whether sc, an order of every SC action, satisfies
// the conditions scOrderExists searches for. pos is scratch space indexed
// by event, which it overwrites with each SC action's position in sc.
func (c *checker) scOrderOK(x *memmodel.Execution, sc, pos []int, hb, mo *memmodel.Relation) bool {
	for i, a := range sc {
		pos[a] = i
	}
	// sc must not contradict hb or mo.
	for i, a := range sc {
		for _, b := range sc[i+1:] {
			if hb.Has(b, a) || mo.Has(b, a) {
				return false
			}
		}
	}
	// SC read restriction.
	for _, l := range x.Events {
		store, ok := x.ReadsFrom(l.Index)
		if !ok || c.order(l) != OrderSC {
			continue
		}
		pl := pos[l.Index]
		// Find the last SC store to l.Addr before the load in sc.
		last := -1
		for _, a := range sc[:pl] {
			if e := x.Events[a]; e.IsWrite() && e.Addr == l.Addr {
				last = a
			}
		}
		srcSC := c.order(x.Events[store]) == OrderSC
		switch {
		case last < 0:
			// No SC store precedes the load: it must read from a non-SC
			// store (e.g. the initialization write).
			if srcSC && pos[store] > pl {
				return false
			}
		case srcSC:
			if store != last {
				return false
			}
		default:
			// Reading a non-SC store is allowed only if it does not
			// happen-before the last preceding SC store.
			if hb.Has(store, last) {
				return false
			}
		}
	}
	return true
}

// racy reports whether candidate x, whose happens-before is hb, contains a
// data race: two actions of different threads to the same location, at
// least one a store, at least one non-atomic, unordered by happens-before.
// Initial writes happen-before everything, so they never race.
func (c *checker) racy(x *memmodel.Execution, hb *memmodel.Relation) bool {
	for _, a := range x.Events {
		for _, b := range x.Events[a.Index+1:] {
			if a.Addr != b.Addr || a.Thread == b.Thread || a.IsInit() || b.IsInit() {
				continue
			}
			if !a.IsWrite() && !b.IsWrite() {
				continue
			}
			if c.order(a) != OrderNA && c.order(b) != OrderNA {
				continue
			}
			if !hb.Has(a.Index, b.Index) && !hb.Has(b.Index, a.Index) {
				return true
			}
		}
	}
	return false
}

// RegisterKey renders a register valuation canonically, e.g.
// "P0:r0=0 P1:r1=1": the registers in name order.
func RegisterKey(regs map[string]memmodel.Value) string {
	var b []byte
	for _, k := range slices.Sorted(maps.Keys(regs)) {
		b = appendRegisterTerm(b, k, regs[k])
	}
	return string(b)
}

// appendRegisterTerm appends the term "<name>=<v>" of a RegisterKey to b,
// after a space when b already holds a term.
func appendRegisterTerm(b []byte, name string, v memmodel.Value) []byte {
	if len(b) > 0 {
		b = append(b, ' ')
	}
	b = append(b, name...)
	b = append(b, '=')
	return strconv.AppendInt(b, int64(v), 10)
}

// Semantics summarizes the program's behaviour under the C/C++11 model.
type Semantics struct {
	// Racy is true when some consistent execution has a data race; the
	// program then has undefined behaviour and every mapping is trivially
	// correct for it.
	Racy bool
	// Outcomes is the set of register valuations of consistent executions,
	// keyed by RegisterKey.
	Outcomes map[string]map[string]memmodel.Value
	// Consistent counts consistent executions; Candidates counts all
	// enumerated candidates.
	Consistent int
	Candidates int

	// p is the analyzed program, which Validate compiles.
	p *Program
}

// Analyze enumerates the program's candidate executions and classifies
// them. The candidates are memmodel's: every reads-from choice times every
// per-location modification order of the program translated with each
// access a plain TSO read or write, walked by memmodel.EnumerateFunc. It
// walks all of them, not only those a TSO verdict walks
// (memmodel.EnumUniprocAdjacentRMW): C/C++11 consistency is a different check, and
// Candidates counts the whole space. A program whose candidate space does
// not fit in an int fails with an error wrapping
// memmodel.ErrSpaceTooLarge.
func Analyze(p *Program) (*Semantics, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &checker{p: p, atomic: p.AtomicLocations()}
	sem := &Semantics{Outcomes: map[string]map[string]memmodel.Value{}, p: p}
	err := memmodel.EnumerateFunc(translate(p, p.Name, false, false), func(x *memmodel.Execution) bool {
		sem.Candidates++
		hb := c.happensBefore(x)
		if !c.consistent(x, hb) {
			return true
		}
		sem.Consistent++
		sem.Racy = sem.Racy || c.racy(x, hb)
		regs := x.RegisterValues()
		sem.Outcomes[RegisterKey(regs)] = regs
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("cpp11: %w", err)
	}
	return sem, nil
}

// AllowsOutcome reports whether the register valuation (by canonical key)
// is among the consistent outcomes.
func (s *Semantics) AllowsOutcome(key string) bool {
	_, ok := s.Outcomes[key]
	return ok
}

// OutcomeKeys returns the canonical keys of all consistent outcomes,
// sorted.
func (s *Semantics) OutcomeKeys() []string {
	out := make([]string, 0, len(s.Outcomes))
	for k := range s.Outcomes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
