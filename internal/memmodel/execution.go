package memmodel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Execution is one candidate execution of a litmus program: a set of
// events together with a reads-from assignment and a write serialization.
// The rf/ws state is slice-backed and indexed by event index, so assembling
// a candidate into a reused Execution allocates nothing; the derived TSO
// relations are computed lazily into storage embedded in the struct.
//
// Executions handed to enumeration visitors are owned by the enumerator's
// per-worker arena and are valid only for the duration of the visit; use
// Clone to retain one. The relations returned by the accessor methods
// (PO, PPO, Bar, POLoc, WSRel, RFRel, RFE, FR, Com) point into shared or
// embedded storage and must not be modified; BaseOrder returns a fresh
// relation the caller owns.
type Execution struct {
	// Program is the originating program.
	Program *Program
	// Events holds all events, including one KindInit write per accessed
	// location. Event.Index equals the slice index.
	Events []*Event

	// rf maps each event index to the index of the write it reads from, or
	// -1 for non-read events.
	rf []int
	// wsAddrs lists the accessed locations in ascending order; wsOrders[i]
	// is the coherence order of all writes to wsAddrs[i] (event indices,
	// initial write first). The order slices may alias storage shared with
	// other executions of the same program and are never mutated.
	wsAddrs  []Addr
	wsOrders [][]int

	// inv holds the relations that depend only on the program's events, not
	// on the rf/ws choice — shared read-only across every candidate of one
	// enumeration. Built lazily for hand-constructed executions.
	inv *invariantRels

	// Per-candidate relations, embedded so arena reuse keeps their backing
	// arrays. The have flags are cleared when a slot is reassembled.
	wsRel, rfRel, rfeRel, frRel, comRel, scratch Relation

	haveWS, haveRF, haveRFE, haveFR, haveCom bool

	// class is the enumeration classifier's value for the candidate
	// (EnumClassify), 0 when the walk has none.
	class uint64
}

// invariantRels holds the derived relations that are functions of the event
// set alone (kinds, threads, program order, locations): po, ppo, bar and
// poloc. They are computed once per program and shared read-only by every
// candidate execution of an enumeration.
type invariantRels struct {
	po, ppo, bar, poloc Relation
}

// newInvariantRels derives the candidate-independent relations from the
// event set.
func newInvariantRels(events []*Event) *invariantRels {
	n := len(events)
	inv := &invariantRels{}
	inv.po.Reset(n)
	inv.ppo.Reset(n)
	inv.bar.Reset(n)
	inv.poloc.Reset(n)

	po := &inv.po
	for _, a := range events {
		for _, b := range events {
			if a.Index == b.Index {
				continue
			}
			if a.IsInit() && !b.IsInit() {
				// Initial writes precede everything. They are not strictly
				// part of po, but ordering them first keeps every derived
				// order consistent with "locations start at their initial
				// values".
				po.Add(a.Index, b.Index)
				continue
			}
			if a.Thread == b.Thread && a.Thread != InitThread && a.PO < b.PO {
				po.Add(a.Index, b.Index)
			}
			if a.Thread == b.Thread && a.Thread != InitThread && a.PO == b.PO && a.RMW >= 0 && a.RMW == b.RMW {
				// Within an RMW, the read precedes the write.
				if a.Kind == KindRMWRead && b.Kind == KindRMWWrite {
					po.Add(a.Index, b.Index)
				}
			}
		}
	}

	for _, a := range events {
		for _, b := range events {
			if !po.Has(a.Index, b.Index) {
				continue
			}
			if a.Kind.IsMemory() && b.Kind.IsMemory() && a.Addr == b.Addr {
				inv.poloc.Add(a.Index, b.Index)
			}
			if a.IsInit() {
				// Keep init-before-everything ordering in ppo so it appears
				// in the global order.
				inv.ppo.Add(a.Index, b.Index)
				continue
			}
			if !a.Kind.IsMemory() || !b.Kind.IsMemory() {
				continue
			}
			// TSO relaxes only W -> R program order, but the write and read
			// halves of one RMW stay ordered.
			if a.IsWrite() && b.IsRead() && !a.SameRMW(b) {
				continue
			}
			inv.ppo.Add(a.Index, b.Index)
		}
	}

	for _, f := range events {
		if !f.IsFence() {
			continue
		}
		for _, a := range events {
			if !a.Kind.IsMemory() || !po.Has(a.Index, f.Index) {
				continue
			}
			for _, b := range events {
				if !b.Kind.IsMemory() || !po.Has(f.Index, b.Index) {
					continue
				}
				inv.bar.Add(a.Index, b.Index)
			}
		}
	}
	return inv
}

// NewExecution constructs an execution from a reads-from map (read event
// index -> source write event index) and per-location coherence orders. It
// is the map-edge constructor for hand-built executions and tests; the
// enumerator assembles executions directly into arena slots.
func NewExecution(p *Program, events []*Event, rf map[int]int, ws map[Addr][]int) *Execution {
	x := &Execution{Program: p, Events: events}
	x.rf = make([]int, len(events))
	for i := range x.rf {
		x.rf[i] = -1
	}
	for rd, w := range rf {
		x.rf[rd] = w
	}
	x.wsAddrs = make([]Addr, 0, len(ws))
	for a := range ws {
		x.wsAddrs = append(x.wsAddrs, a)
	}
	sort.Slice(x.wsAddrs, func(i, j int) bool { return x.wsAddrs[i] < x.wsAddrs[j] })
	x.wsOrders = make([][]int, len(x.wsAddrs))
	for i, a := range x.wsAddrs {
		order := make([]int, len(ws[a]))
		copy(order, ws[a])
		x.wsOrders[i] = order
	}
	return x
}

// Clone returns a deep copy of the execution that remains valid after the
// enumerator reuses the original's arena slot: events, rf and ws are
// copied; the shared candidate-independent relations are reused (they are
// immutable and common to every execution of the program).
func (x *Execution) Clone() *Execution {
	c := &Execution{Program: x.Program, inv: x.inv, class: x.class}
	c.Events = make([]*Event, len(x.Events))
	evs := make([]Event, len(x.Events))
	for i, e := range x.Events {
		evs[i] = *e
		c.Events[i] = &evs[i]
	}
	c.rf = make([]int, len(x.rf))
	copy(c.rf, x.rf)
	c.wsAddrs = make([]Addr, len(x.wsAddrs))
	copy(c.wsAddrs, x.wsAddrs)
	c.wsOrders = make([][]int, len(x.wsOrders))
	for i, order := range x.wsOrders {
		cp := make([]int, len(order))
		copy(cp, order)
		c.wsOrders[i] = cp
	}
	return c
}

// Class returns the class the enumeration's classifier gave the
// candidate (EnumClassify), which is never 0 for a visited candidate; it
// is 0 for executions of a walk without a classifier and for hand-built
// ones.
func (x *Execution) Class() uint64 { return x.class }

// resetDerived invalidates the cached per-candidate relations; the arena
// calls it when a slot is reassembled for a new candidate.
func (x *Execution) resetDerived() {
	x.haveWS, x.haveRF, x.haveRFE, x.haveFR, x.haveCom = false, false, false, false, false
}

// invariants returns the shared candidate-independent relations, deriving
// them on first use for executions not built by an enumeration.
func (x *Execution) invariants() *invariantRels {
	if x.inv == nil {
		x.inv = newInvariantRels(x.Events)
	}
	return x.inv
}

// ReadsFrom returns the index of the write the given read event reads
// from. ok is false when the event is not a read.
func (x *Execution) ReadsFrom(read int) (write int, ok bool) {
	if read < 0 || read >= len(x.rf) || x.rf[read] < 0 {
		return -1, false
	}
	return x.rf[read], true
}

// RFMap returns the reads-from assignment as a freshly allocated map from
// read event index to source write index — the compatibility edge for
// callers that want map form; hot paths should use ReadsFrom.
func (x *Execution) RFMap() map[int]int {
	out := make(map[int]int)
	for rd, w := range x.rf {
		if w >= 0 {
			out[rd] = w
		}
	}
	return out
}

// WSOrder returns the coherence order of all writes to a location (event
// indices, initial write first), or nil if the location is not accessed.
// The slice is shared and must not be modified.
func (x *Execution) WSOrder(a Addr) []int {
	for i, addr := range x.wsAddrs {
		if addr == a {
			return x.wsOrders[i]
		}
	}
	return nil
}

// EventsByThread returns the events of a thread in program order.
func (x *Execution) EventsByThread(t ThreadID) []*Event {
	var out []*Event
	for _, e := range x.Events {
		if e.Thread == t {
			out = append(out, e)
		}
	}
	return out
}

// PO returns the program-order relation: a per-thread total order over all
// events of the same thread (memory accesses and fences). Initial writes
// are ordered before every event of every thread. The relation is shared
// across candidates and must not be modified.
func (x *Execution) PO() *Relation { return &x.invariants().po }

// PPO returns the preserved-program-order relation under TSO: all po pairs
// of memory accesses except write-to-read pairs. Pairs internal to a
// single RMW (Ra -> Wa) are preserved. Fences do not appear in ppo; their
// effect is captured by Bar. The relation is shared across candidates and
// must not be modified.
func (x *Execution) PPO() *Relation { return &x.invariants().ppo }

// Bar returns the barrier relation: memory accesses of the same thread
// separated in program order by a fence. The relation is shared across
// candidates and must not be modified.
func (x *Execution) Bar() *Relation { return &x.invariants().bar }

// POLoc returns program order restricted to pairs of accesses to the same
// location. The relation is shared across candidates and must not be
// modified.
func (x *Execution) POLoc() *Relation { return &x.invariants().poloc }

// WSRel returns the write-serialization relation derived from the
// per-location coherence orders. The relation lives in the execution and
// must not be modified.
func (x *Execution) WSRel() *Relation {
	if x.haveWS {
		return &x.wsRel
	}
	x.wsRel.Reset(len(x.Events))
	for _, order := range x.wsOrders {
		for i := 0; i < len(order); i++ {
			for j := i + 1; j < len(order); j++ {
				x.wsRel.Add(order[i], order[j])
			}
		}
	}
	x.haveWS = true
	return &x.wsRel
}

// RFRel returns the reads-from relation as a Relation (write -> read). The
// relation lives in the execution and must not be modified.
func (x *Execution) RFRel() *Relation {
	if x.haveRF {
		return &x.rfRel
	}
	x.rfRel.Reset(len(x.Events))
	for rd, w := range x.rf {
		if w >= 0 {
			x.rfRel.Add(w, rd)
		}
	}
	x.haveRF = true
	return &x.rfRel
}

// RFE returns the external reads-from relation: rf pairs whose write and
// read are on different threads (reads from the initial write are
// external). The relation lives in the execution and must not be modified.
func (x *Execution) RFE() *Relation {
	if x.haveRFE {
		return &x.rfeRel
	}
	x.rfeRel.Reset(len(x.Events))
	for rd, w := range x.rf {
		if w >= 0 && x.Events[w].Thread != x.Events[rd].Thread {
			x.rfeRel.Add(w, rd)
		}
	}
	x.haveRFE = true
	return &x.rfeRel
}

// FR returns the from-reads relation: each read is ordered before every
// write to the same location that is coherence-after the write it read
// from. The relation lives in the execution and must not be modified.
func (x *Execution) FR() *Relation {
	if x.haveFR {
		return &x.frRel
	}
	x.frRel.Reset(len(x.Events))
	for rd, w := range x.rf {
		if w < 0 {
			continue
		}
		order := x.WSOrder(x.Events[rd].Addr)
		pos := -1
		for i, wr := range order {
			if wr == w {
				pos = i
				break
			}
		}
		if pos < 0 {
			continue
		}
		for _, later := range order[pos+1:] {
			if later != rd {
				x.frRel.Add(rd, later)
			}
		}
	}
	x.haveFR = true
	return &x.frRel
}

// Com returns the communication relation com = ws ∪ rfe ∪ fr. The relation
// lives in the execution and must not be modified.
func (x *Execution) Com() *Relation {
	if x.haveCom {
		return &x.comRel
	}
	ws, rfe, fr := x.WSRel(), x.RFE(), x.FR()
	x.comRel.Reset(len(x.Events))
	x.comRel.Union(ws)
	x.comRel.Union(rfe)
	x.comRel.Union(fr)
	x.haveCom = true
	return &x.comRel
}

// Uniproc reports whether the execution satisfies the uniproc (SC per
// location) condition: program order restricted to same-location accesses
// is consistent with com and rf. The check reuses scratch storage in the
// execution and allocates nothing once the relations are built.
func (x *Execution) Uniproc() bool {
	ws, fr, rf, poloc := x.WSRel(), x.FR(), x.RFRel(), x.POLoc()
	x.scratch.Reset(len(x.Events))
	x.scratch.Union(poloc)
	x.scratch.Union(ws)
	x.scratch.Union(fr)
	x.scratch.Union(rf)
	return x.scratch.Acyclic()
}

// BaseOrder returns com ∪ ppo ∪ bar, the relation whose acyclicity defines
// validity of the base TSO model (without RMW atomicity). Unlike the other
// relation accessors the result is freshly allocated and owned by the
// caller, which may extend it (e.g. with ato edges).
func (x *Execution) BaseOrder() *Relation {
	n := len(x.Events)
	r := NewRelation(n)
	r.Union(x.Com())
	r.Union(x.PPO())
	r.Union(x.Bar())
	return r
}

// BaseValid reports whether the execution is valid in the base TSO model:
// com ∪ ppo ∪ bar is acyclic and uniproc holds. RMW atomicity constraints
// are checked separately by internal/core.
func (x *Execution) BaseValid() bool {
	if !x.Uniproc() {
		return false
	}
	com, ppo, bar := x.Com(), x.PPO(), x.Bar()
	x.scratch.Reset(len(x.Events))
	x.scratch.Union(com)
	x.scratch.Union(ppo)
	x.scratch.Union(bar)
	return x.scratch.Acyclic()
}

// GHB returns one global-happens-before order for the execution: a linear
// extension of the supplied order relation (typically BaseOrder possibly
// extended with ato edges). It returns an error if the relation is cyclic.
func (x *Execution) GHB(order *Relation) ([]*Event, error) {
	idx, err := order.TopoSort()
	if err != nil {
		return nil, err
	}
	out := make([]*Event, len(idx))
	for i, id := range idx {
		out[i] = x.Events[id]
	}
	return out, nil
}

// RegisterValues returns the final value of every named register: the
// value read by the read or RMW-read event carrying that register label,
// keyed by "P<tid>:<reg>".
func (x *Execution) RegisterValues() map[string]Value {
	out := map[string]Value{}
	for _, e := range x.Events {
		if e.IsRead() && e.Label != "" {
			out["P"+strconv.Itoa(int(e.Thread))+":"+e.Label] = e.Value
		}
	}
	return out
}

// FinalMemory returns the final value of every location: the value of the
// coherence-last write.
func (x *Execution) FinalMemory() map[Addr]Value {
	out := map[Addr]Value{}
	for i, a := range x.wsAddrs {
		order := x.wsOrders[i]
		if len(order) == 0 {
			continue
		}
		last := order[len(order)-1]
		out[a] = x.Events[last].Value
	}
	return out
}

// AppendFinalValues appends the final value of every location, in
// ascending location order, to dst and returns the extended slice: the
// values FinalMemory maps, without building the map.
func (x *Execution) AppendFinalValues(dst []Value) []Value {
	for _, order := range x.wsOrders {
		if len(order) > 0 {
			dst = append(dst, x.Events[order[len(order)-1]].Value)
		}
	}
	return dst
}

// Key returns a canonical, deterministic fingerprint of the execution:
// the reads-from pairs in read order, the per-location coherence orders in
// location order, and the final register values. Two executions of the
// same program are the same candidate exactly when their keys are equal,
// so keys serve as multiset identities when comparing enumerations (the
// sequential-vs-parallel differential tests).
func (x *Execution) Key() string {
	var b strings.Builder
	b.WriteString("rf:")
	for rd, w := range x.rf {
		if w >= 0 {
			fmt.Fprintf(&b, " %d<-%d", rd, w)
		}
	}
	b.WriteString(" ws:")
	for i, a := range x.wsAddrs {
		fmt.Fprintf(&b, " %s=%v", AddrName(a), x.wsOrders[i])
	}
	regs := x.RegisterValues()
	names := make([]string, 0, len(regs))
	for k := range regs {
		names = append(names, k)
	}
	sort.Strings(names)
	b.WriteString(" regs:")
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%d", k, int(regs[k]))
	}
	return b.String()
}

// String renders the execution compactly: events, rf and ws. The rendering
// is deterministic — reads in event-index order, locations in ascending
// order (the same orders Key uses) — so failure diagnostics diff cleanly
// across runs.
func (x *Execution) String() string {
	var b strings.Builder
	b.WriteString("events:\n")
	for _, e := range x.Events {
		fmt.Fprintf(&b, "  [%d] %s\n", e.Index, e)
	}
	b.WriteString("rf:\n")
	for rd, w := range x.rf {
		if w >= 0 {
			fmt.Fprintf(&b, "  %s -> %s\n", x.Events[w], x.Events[rd])
		}
	}
	b.WriteString("ws:\n")
	for i, a := range x.wsAddrs {
		fmt.Fprintf(&b, "  %s:", AddrName(a))
		for _, w := range x.wsOrders[i] {
			fmt.Fprintf(&b, " %s", x.Events[w])
		}
		b.WriteString("\n")
	}
	return b.String()
}
