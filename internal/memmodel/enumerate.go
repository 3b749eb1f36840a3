package memmodel

import (
	"errors"
	"fmt"
)

// ErrSpaceTooLarge is returned (wrapped) by enumeration entry points when a
// program's candidate space — the product of its reads-from choices and
// write-serialization permutations — does not fit in an int. Detecting the
// overflow up front turns what would be a silently wrapped candidate count
// (and a walk of the wrong index range) into a typed error callers can test
// with errors.Is.
var ErrSpaceTooLarge = errors.New("memmodel: candidate space exceeds int range")

// checkedMul returns a*b, reporting overflow instead of wrapping. Both
// factors must be positive.
func checkedMul(a, b int) (int, bool) {
	p := a * b
	if a != 0 && p/a != b {
		return 0, false
	}
	return p, true
}

// Enumerate generates all candidate executions of a litmus program. It is
// a convenience wrapper around EnumerateFunc that materializes the whole
// candidate set, cloning each visited execution out of the enumerator's
// arena; callers that only need to scan candidates (validity filtering,
// outcome collection) should prefer EnumerateFunc, which reuses one arena
// slot per candidate and allocates nothing in steady state.
func Enumerate(p *Program) ([]*Execution, error) {
	var out []*Execution
	err := EnumerateFunc(p, func(x *Execution) bool {
		out = append(out, x.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// enumSpace is the precomputed enumeration space of a program: its event
// templates plus the per-read rf choices and per-location ws choices whose
// cross-product is the candidate set. Candidates are addressed by a linear
// index in [0, total()): the index is a mixed-radix number whose most
// significant digits are the rf choices (in read order) and whose least
// significant digits are the ws choices (in location order), so walking
// indices in ascending order reproduces the enumeration order of the
// original recursive walk — and any contiguous index range can be walked
// independently, which is what EnumerateFunc's worker partitioning relies
// on.
//
// Everything here is computed once per enumeration and then shared
// read-only by all workers: the event templates, the rf/ws choice tables,
// the RMW pairing, and the candidate-independent relations (po, ppo, bar,
// poloc) that depend only on the events.
type enumSpace struct {
	p      *Program
	events []*Event
	// reads lists the read-event indices; choices[i] lists the candidate
	// source writes of reads[i].
	reads   []int
	choices [][]int
	// addrs lists the accessed locations; wsChoices[i] lists the candidate
	// coherence orders of addrs[i] (initial write first). The order slices
	// are shared read-only with every candidate execution.
	addrs     []Addr
	wsChoices [][][]int
	// rfSize and wsSize are the sizes of the two sub-spaces; the candidate
	// space has totalSize = rfSize*wsSize indices (overflow-checked at
	// construction).
	rfSize, wsSize, totalSize int
	// Slice-backed RMW pairing, indexed by event index: rmwReadOf[w] is the
	// read half of RMW write w (-1 otherwise), modify[w] its value
	// function, readPos[r] the position of read r in reads (-1 otherwise),
	// and rmwWrites lists the RMW write events. This is the single
	// derivation of the pairing that both value propagation and countRF's
	// value-cycle check use, so the two can never disagree on which
	// candidates are dropped.
	rmwReadOf []int
	modify    []ModifyFunc
	readPos   []int
	rmwWrites []int
	// writeDetermined[i] is true for events whose value is fixed before
	// propagation: plain and initial writes.
	writeDetermined []bool
	// inv holds the candidate-independent relations shared by every
	// execution of this space.
	inv *invariantRels
}

// newEnumSpace validates the program and builds its enumeration space.
func newEnumSpace(p *Program) (*enumSpace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	events, err := buildEvents(p)
	if err != nil {
		return nil, err
	}
	n := len(events)
	sp := &enumSpace{
		p:               p,
		events:          events,
		rmwReadOf:       make([]int, n),
		modify:          make([]ModifyFunc, n),
		readPos:         make([]int, n),
		writeDetermined: make([]bool, n),
	}
	for i := range sp.rmwReadOf {
		sp.rmwReadOf[i] = -1
		sp.readPos[i] = -1
	}

	// Group writes and reads by location.
	writesByAddr := map[Addr][]int{}
	for _, e := range events {
		if e.IsWrite() {
			writesByAddr[e.Addr] = append(writesByAddr[e.Addr], e.Index)
		}
		if e.IsRead() {
			sp.readPos[e.Index] = len(sp.reads)
			sp.reads = append(sp.reads, e.Index)
		}
	}

	// Map each RMW's write event back to its read half and its Modify
	// function, once for the whole enumeration.
	rmwID := 0
	for ti, t := range p.Threads {
		for ii, in := range t {
			if in.Kind != InstrRMW {
				continue
			}
			var rdIdx, wrIdx int = -1, -1
			for _, e := range events {
				if e.Thread == ThreadID(ti) && e.PO == ii && e.RMW == rmwID {
					if e.Kind == KindRMWRead {
						rdIdx = e.Index
					} else if e.Kind == KindRMWWrite {
						wrIdx = e.Index
					}
				}
			}
			if rdIdx < 0 || wrIdx < 0 {
				return nil, fmt.Errorf("memmodel: program %q: missing event pair for RMW %d", p.Name, rmwID)
			}
			m := in.Modify
			if m == nil {
				v := in.Value
				m = func(Value) Value { return v }
			}
			sp.modify[wrIdx] = m
			sp.rmwReadOf[wrIdx] = rdIdx
			sp.rmwWrites = append(sp.rmwWrites, wrIdx)
			rmwID++
		}
	}
	for _, e := range events {
		sp.writeDetermined[e.Index] = e.IsWrite() && sp.modify[e.Index] == nil
	}

	// Enumerate rf choices: for each read, the set of candidate source
	// writes (any write to the same location except the write half of its
	// own RMW).
	sp.choices = make([][]int, len(sp.reads))
	sp.rfSize = 1
	for i, rd := range sp.reads {
		r := events[rd]
		for _, w := range writesByAddr[r.Addr] {
			if events[w].SameRMW(r) {
				continue // Ra never reads from its own Wa
			}
			sp.choices[i] = append(sp.choices[i], w)
		}
		if len(sp.choices[i]) == 0 {
			return nil, fmt.Errorf("memmodel: read %s has no candidate writes", r)
		}
		var ok bool
		if sp.rfSize, ok = checkedMul(sp.rfSize, len(sp.choices[i])); !ok {
			return nil, fmt.Errorf("memmodel: program %q: reads-from space overflows: %w", p.Name, ErrSpaceTooLarge)
		}
	}

	// Size the ws sub-space before materializing anything: the number of
	// coherence orders of a location with k non-initial writes is k!, and
	// the factorials multiply across locations. Doing the arithmetic first
	// (overflow-checked) means a generator-scale program fails with
	// ErrSpaceTooLarge instead of wrapping the candidate count or
	// exhausting memory on the permutation tables.
	sp.addrs = p.Addrs()
	restByAddr := make([][]int, len(sp.addrs))
	initByAddr := make([]int, len(sp.addrs))
	sp.wsSize = 1
	for i, a := range sp.addrs {
		initByAddr[i] = -1
		for _, w := range writesByAddr[a] {
			if events[w].IsInit() {
				initByAddr[i] = w
			} else {
				restByAddr[i] = append(restByAddr[i], w)
			}
		}
		perms := 1
		for k := 2; k <= len(restByAddr[i]); k++ {
			var ok bool
			if perms, ok = checkedMul(perms, k); !ok {
				return nil, fmt.Errorf("memmodel: program %q: write-serialization space of %s overflows: %w", p.Name, AddrName(a), ErrSpaceTooLarge)
			}
		}
		var ok bool
		if sp.wsSize, ok = checkedMul(sp.wsSize, perms); !ok {
			return nil, fmt.Errorf("memmodel: program %q: write-serialization space overflows: %w", p.Name, ErrSpaceTooLarge)
		}
	}
	var ok bool
	if sp.totalSize, ok = checkedMul(sp.rfSize, sp.wsSize); !ok {
		return nil, fmt.Errorf("memmodel: program %q: candidate space overflows: %w", p.Name, ErrSpaceTooLarge)
	}

	// Materialize the ws choices: per location, the initial write followed
	// by every permutation of the remaining writes.
	sp.wsChoices = make([][][]int, len(sp.addrs))
	for i := range sp.addrs {
		for _, perm := range permutations(restByAddr[i]) {
			order := append([]int{initByAddr[i]}, perm...)
			sp.wsChoices[i] = append(sp.wsChoices[i], order)
		}
	}

	// Derive the candidate-independent relations once; every arena slot
	// shares them.
	sp.inv = newInvariantRels(events)
	return sp, nil
}

// total returns the number of candidate indices (including candidates that
// assembly later drops for cyclic RMW value dependencies).
func (sp *enumSpace) total() int { return sp.totalSize }

// enumArena holds everything one walker reuses across candidates: the
// mixed-radix decode buffers, the value-propagation scratch, and one
// execution slot whose events, rf/ws state and relation backing arrays are
// recycled. Assembling a candidate into an arena therefore allocates
// nothing in steady state. Every walker visits synchronously, so the slot
// is free again once emit returns.
type enumArena struct {
	rfDigits []int // per read: index into choices[i]
	wsDigits []int // per addr: index into wsChoices[i]
	det      []bool
	slot     *Execution
}

// newArena builds an arena for one walker.
func (sp *enumSpace) newArena() *enumArena {
	return &enumArena{
		rfDigits: make([]int, len(sp.reads)),
		wsDigits: make([]int, len(sp.addrs)),
		det:      make([]bool, len(sp.events)),
		slot:     sp.newSlot(),
	}
}

// newSlot builds one reusable execution: its events are copies of the
// space's templates (values are rewritten per candidate), its ws orders
// alias the shared permutation tables, and its relations share the space's
// candidate-independent set.
func (sp *enumSpace) newSlot() *Execution {
	n := len(sp.events)
	x := &Execution{Program: sp.p, inv: sp.inv}
	evs := make([]Event, n)
	x.Events = make([]*Event, n)
	for i, e := range sp.events {
		evs[i] = *e
		x.Events[i] = &evs[i]
	}
	x.rf = make([]int, n)
	for i := range x.rf {
		x.rf[i] = -1
	}
	x.wsAddrs = sp.addrs
	x.wsOrders = make([][]int, len(sp.addrs))
	return x
}

// decode writes the mixed-radix digits of candidate index g into the
// arena's buffers: ws digits are least significant (location order), rf
// digits most significant (read order).
func (sp *enumSpace) decode(g int, a *enumArena) {
	for i := len(sp.addrs) - 1; i >= 0; i-- {
		n := len(sp.wsChoices[i])
		a.wsDigits[i] = g % n
		g /= n
	}
	for i := len(sp.reads) - 1; i >= 0; i-- {
		n := len(sp.choices[i])
		a.rfDigits[i] = g % n
		g /= n
	}
}

// candidate assembles the execution at candidate index g into the arena's
// slot, or returns nil when its value propagation does not converge
// (cyclic RMW value dependency).
func (sp *enumSpace) candidate(g int, a *enumArena) *Execution {
	sp.decode(g, a)
	x := a.slot
	x.resetDerived()
	for i, wi := range a.wsDigits {
		x.wsOrders[i] = sp.wsChoices[i][wi]
	}
	for i, d := range a.rfDigits {
		x.rf[sp.reads[i]] = sp.choices[i][d]
	}
	if !sp.propagate(x, a) {
		return nil
	}
	return x
}

// propagate assigns event values for the slot's rf choice: read values
// come from their rf source; RMW write values come from applying Modify to
// the read value. It iterates to a fixpoint (chains of RMWs reading from
// RMW writes converge in at most len(events) rounds) and reports false for
// cyclic value dependencies, which have no consistent assignment — the
// same rf assignments countRF excludes.
func (sp *enumSpace) propagate(x *Execution, a *enumArena) bool {
	copy(a.det, sp.writeDetermined)
	events := x.Events
	for round := 0; round <= len(events); round++ {
		changed := false
		for _, rd := range sp.reads {
			src := x.rf[rd]
			if a.det[src] && !a.det[rd] {
				events[rd].Value = events[src].Value
				a.det[rd] = true
				changed = true
			}
		}
		for _, wr := range sp.rmwWrites {
			rd := sp.rmwReadOf[wr]
			if a.det[rd] && !a.det[wr] {
				events[wr].Value = sp.modify[wr](events[rd].Value)
				a.det[wr] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, e := range events {
		if (e.IsRead() || e.IsWrite()) && !a.det[e.Index] {
			return false // value cycle through RMWs: no consistent values
		}
	}
	return true
}

// rfAcyclic reports whether the rf assignment in digits has acyclic value
// dependencies, i.e. whether assembly would keep (rather than drop)
// candidates with this rf choice. A read's value depends on its source
// write; an RMW write's value depends on its read half; a cycle through
// those edges never converges.
func (sp *enumSpace) rfAcyclic(digits []int) bool {
	for i := range sp.reads {
		w := sp.choices[i][digits[i]]
		for steps := 0; ; steps++ {
			rd := sp.rmwReadOf[w]
			if rd < 0 {
				break // plain or initial write: chain grounded
			}
			if steps >= len(sp.reads) {
				return false // longer than any acyclic chain
			}
			pos := sp.readPos[rd]
			w = sp.choices[pos][digits[pos]]
		}
	}
	return true
}

// countRF returns the number of rf assignments whose value dependencies
// are acyclic, by walking the rf digit odometer.
func (sp *enumSpace) countRF() int {
	digits := make([]int, len(sp.reads))
	count := 0
	for {
		if sp.rfAcyclic(digits) {
			count++
		}
		// Increment the rf odometer (last read least significant).
		i := len(sp.reads) - 1
		for ; i >= 0; i-- {
			digits[i]++
			if digits[i] < len(sp.choices[i]) {
				break
			}
			digits[i] = 0
		}
		if i < 0 {
			return count
		}
	}
}

// count returns the number of candidates the space visits: the rf
// assignments with acyclic value dependencies times the ws orders. The
// product cannot overflow, since countRF() <= rfSize and rfSize*wsSize
// was checked at construction.
func (sp *enumSpace) count() int { return sp.countRF() * sp.wsSize }

// CountCandidates returns the number of candidate executions Enumerate
// generates for the program, without assembling them: the number of
// reads-from assignments with acyclic RMW value dependencies times the
// number of per-location write serializations. Candidates whose value
// propagation cannot converge are never visited by Enumerate and are not
// counted here, so the result matches the enumeration exactly. Useful for
// bounding litmus-test cost. A program whose candidate space does not fit
// in an int yields an error wrapping ErrSpaceTooLarge.
func CountCandidates(p *Program) (int, error) {
	sp, err := newEnumSpace(p)
	if err != nil {
		return 0, err
	}
	return sp.count(), nil
}

// buildEvents constructs the event templates for a program: one initial
// write per accessed location followed by the events of each thread in
// program order (RMW instructions contribute a read and a write event
// sharing an RMW identifier).
func buildEvents(p *Program) ([]*Event, error) {
	var events []*Event
	idx := 0
	add := func(e *Event) *Event {
		e.Index = idx
		idx++
		events = append(events, e)
		return e
	}
	for _, a := range p.Addrs() {
		v := Value(0)
		if iv, ok := p.Init[a]; ok {
			v = iv
		}
		add(&Event{Thread: InitThread, Kind: KindInit, Addr: a, Value: v, PO: 0, RMW: -1})
	}
	rmwID := 0
	for ti, t := range p.Threads {
		for ii, in := range t {
			switch in.Kind {
			case InstrRead:
				add(&Event{Thread: ThreadID(ti), Kind: KindRead, Addr: in.Addr, PO: ii, RMW: -1, Label: in.Reg})
			case InstrWrite:
				add(&Event{Thread: ThreadID(ti), Kind: KindWrite, Addr: in.Addr, Value: in.Value, PO: ii, RMW: -1})
			case InstrFence:
				add(&Event{Thread: ThreadID(ti), Kind: KindFence, PO: ii, RMW: -1})
			case InstrRMW:
				add(&Event{Thread: ThreadID(ti), Kind: KindRMWRead, Addr: in.Addr, PO: ii, RMW: rmwID, Label: in.Reg})
				add(&Event{Thread: ThreadID(ti), Kind: KindRMWWrite, Addr: in.Addr, PO: ii, RMW: rmwID})
				rmwID++
			default:
				return nil, fmt.Errorf("memmodel: unknown instruction kind %d", int(in.Kind))
			}
		}
	}
	return events, nil
}

// permutations returns all permutations of the input slice. The input is
// not modified. permutations(nil) returns a single empty permutation.
func permutations(in []int) [][]int {
	if len(in) == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, rest []int)
	rec = func(cur []int, rest []int) {
		if len(rest) == 0 {
			cp := make([]int, len(cur))
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for i := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, in)
	return out
}
