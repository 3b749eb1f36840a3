package memmodel

import (
	"context"
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
// cross-product is the candidate set.
//
// The space is factored by location. Every uniproc edge (poloc, ws, fr,
// rf), every RMW's pair of halves and every RMW value dependency joins
// events of one location, so a location's share of a candidate — the rf
// choices of its reads and its ws order — is what decides whether the
// candidate passes uniproc and the RMW condition of EnumUniprocAdjacentRMW
// and whether its values propagate. A location's share is addressed by a
// local index in [0, size): the mixed-radix number whose least
// significant digit is the ws choice and whose more significant digits
// are the rf choices of its reads (the first read most significant).
//
// Candidates are addressed by a linear index in [0, total()), decoded
// location by location, the last location least significant. In the full
// walk a location's digit is its local index; in the uniproc walk
// (EnumUniprocAdjacentRMW), which also requires every RMW to read the
// ws-predecessor of its write half, it indexes the location's table of
// passing shares, whose entries are local indices. Either way any
// contiguous index range can be walked independently, which is what
// EnumerateFunc's worker partitioning relies on: a walker's arena
// remembers the digits of its last candidate and redoes only the
// locations whose digit changes (enumArena), and a fresh arena remembers
// none.
//
// newEnumSpace sizes and counts the space; buildWalk materializes what a
// walk reads. Both are computed once per enumeration and then shared
// read-only by all workers: the event templates, the rf/ws choice tables,
// the RMW pairing, the location tables and the candidate-independent
// relations (po, ppo, bar, poloc) that depend only on the events.
type enumSpace struct {
	p      *Program
	events []*Event
	// reads lists the read-event indices; choices[i] lists the candidate
	// source writes of reads[i].
	reads   []int
	choices [][]int
	// addrs lists the accessed locations and locs their shares of the
	// space, in the same order.
	addrs []Addr
	locs  []locSpace
	// fullSize is the full walk's index count, the product of the
	// locations' sizes (overflow-checked at construction); candidates is
	// the number of candidates the full walk visits.
	fullSize, candidates int
	// uniproc selects the walk over the locations' tables, and walkSize is
	// the selected walk's index count.
	uniproc  bool
	walkSize int
	// Slice-backed RMW pairing, indexed by event index: rmwReadOf[w] is the
	// read half of RMW write w (-1 otherwise) and modify[w] its value
	// function.
	rmwReadOf []int
	modify    []ModifyFunc
	// writeDetermined[i] is true for events whose value is fixed before
	// propagation: plain and initial writes.
	writeDetermined []bool
	// inv holds the candidate-independent relations shared by every
	// execution of this space, and locReads[l] lists the read events of
	// location l, which every execution of the walk shares (built by
	// buildWalk).
	inv      *invariantRels
	locReads [][]int
}

// locSpace is one location's share of the enumeration space.
type locSpace struct {
	// events lists every event of the location in event order, the
	// initial write first; writes counts the non-initial writes among them.
	events []int
	writes int
	// reads lists the positions in enumSpace.reads of the location's
	// reads, in read order.
	reads []int
	// ws lists the ws orders the walk uses, the initial write first in
	// each (built by buildWalk): all writes! of them for the full walk,
	// those that extend poloc for the uniproc walk. The order slices are
	// shared read-only with every candidate execution.
	ws [][]int
	// size is the full walk's number of local indices, the product of the
	// reads' choice counts times writes!.
	size int
	// step is the base-closure step of the location's ws chain, which its
	// reads' steps follow (Execution.BaseClosure; built by buildWalk).
	step int
	// table lists the local indices of the shares that pass uniproc and
	// the RMW condition, for the uniproc walk.
	table []int
}

// newEnumSpace validates the program, groups its events by location and
// sizes its enumeration space: the full walk's index count and the
// number of candidates it visits.
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
		writeDetermined: make([]bool, n),
	}
	// The initial writes come first, one per location in ascending order.
	for _, e := range events {
		if !e.IsInit() {
			break
		}
		sp.addrs = append(sp.addrs, e.Addr)
	}
	sp.locs = make([]locSpace, len(sp.addrs))

	// Pair each RMW write with its read half (the event before it) and its
	// Modify function, and group the memory events by location.
	locOf := make([]int, n)
	memory := 0
	for _, e := range events {
		sp.rmwReadOf[e.Index] = -1
		if e.Kind == KindRMWWrite {
			in := p.Threads[e.Thread][e.PO]
			m := in.Modify
			if m == nil {
				v := in.Value
				m = func(Value) Value { return v }
			}
			sp.modify[e.Index] = m
			sp.rmwReadOf[e.Index] = e.Index - 1
		}
		sp.writeDetermined[e.Index] = e.IsWrite() && sp.modify[e.Index] == nil
		locOf[e.Index] = -1
		if e.IsFence() {
			continue
		}
		l := 0
		for sp.addrs[l] != e.Addr {
			l++
		}
		locOf[e.Index] = l
		memory++
		if e.IsRead() {
			sp.reads = append(sp.reads, e.Index)
		}
	}
	locEvents := make([]int, 0, memory)
	locReads := make([]int, 0, len(sp.reads))
	for l := range sp.locs {
		loc := &sp.locs[l]
		start, readStart := len(locEvents), len(locReads)
		for _, e := range events {
			if locOf[e.Index] != l {
				continue
			}
			locEvents = append(locEvents, e.Index)
			if e.IsWrite() && !e.IsInit() {
				loc.writes++
			}
		}
		for pos, rd := range sp.reads {
			if locOf[rd] == l {
				locReads = append(locReads, pos)
			}
		}
		loc.events = locEvents[start:len(locEvents):len(locEvents)]
		loc.reads = locReads[readStart:len(locReads):len(locReads)]
	}

	// The rf choices of each read: any write to its location except the
	// write half of its own RMW, in event order (initial write first).
	choiceCount := 0
	for _, rd := range sp.reads {
		choiceCount += sp.locs[locOf[rd]].writes + 1
	}
	backing := make([]int, 0, choiceCount)
	sp.choices = make([][]int, len(sp.reads))
	rfSize := 1
	for i, rd := range sp.reads {
		r := events[rd]
		start := len(backing)
		for _, w := range sp.locs[locOf[rd]].events {
			if events[w].IsWrite() && !events[w].SameRMW(r) {
				backing = append(backing, w)
			}
		}
		sp.choices[i] = backing[start:len(backing):len(backing)]
		var ok bool
		if rfSize, ok = checkedMul(rfSize, len(sp.choices[i])); !ok {
			return nil, fmt.Errorf("memmodel: program %q: reads-from space overflows: %w", p.Name, ErrSpaceTooLarge)
		}
	}

	// Size the ws sub-space before anything is materialized: a location
	// with k non-initial writes has k! coherence orders, and the
	// factorials multiply across locations. Doing the arithmetic first
	// (overflow-checked) means a generator-scale program fails with
	// ErrSpaceTooLarge instead of wrapping the candidate count or
	// exhausting memory on the permutation tables.
	wsSize := 1
	for l := range sp.locs {
		loc := &sp.locs[l]
		loc.size = 1
		for k := 2; k <= loc.writes; k++ {
			var ok bool
			if loc.size, ok = checkedMul(loc.size, k); !ok {
				return nil, fmt.Errorf("memmodel: program %q: write-serialization space of %s overflows: %w", p.Name, AddrName(sp.addrs[l]), ErrSpaceTooLarge)
			}
		}
		var ok bool
		if wsSize, ok = checkedMul(wsSize, loc.size); !ok {
			return nil, fmt.Errorf("memmodel: program %q: write-serialization space overflows: %w", p.Name, ErrSpaceTooLarge)
		}
	}
	var ok bool
	if sp.fullSize, ok = checkedMul(rfSize, wsSize); !ok {
		return nil, fmt.Errorf("memmodel: program %q: candidate space overflows: %w", p.Name, ErrSpaceTooLarge)
	}
	// Each location's size and count divide rfSize*wsSize, so neither
	// product below can overflow. loc.size starts as the location's
	// number of ws orders (above) and becomes its local index count here.
	sp.candidates = 1
	for l := range sp.locs {
		loc := &sp.locs[l]
		sp.candidates *= sp.rfCount(loc) * loc.size
		for _, pos := range loc.reads {
			loc.size *= len(sp.choices[pos])
		}
	}
	return sp, nil
}

// rfCount returns the number of rf assignments of the location's reads
// whose RMW value dependencies are acyclic: the assignments whose values
// propagate.
//
// Only the RMW reads can close a value cycle: a plain read's value is
// never an input. Each of the m RMW reads reads from one of the g plain
// or initial writes, which grounds it, or from the write half of another
// RMW, whose value needs that RMW's read. An acyclic assignment is
// therefore a forest on the m RMW reads whose roots each pick one of g
// ground writes, and there are g(g+m)^(m-1) such forests (Cayley's
// formula with weighted roots). The plain reads choose freely.
func (sp *enumSpace) rfCount(loc *locSpace) int {
	count, m := 1, 0
	for _, pos := range loc.reads {
		if sp.events[sp.reads[pos]].Kind == KindRMWRead {
			m++
		} else {
			count *= len(sp.choices[pos])
		}
	}
	if m == 0 {
		return count
	}
	g := loc.writes + 1 - m
	count *= g
	for i := 1; i < m; i++ {
		count *= g + m
	}
	return count
}

// CountCandidates returns the number of candidate executions Enumerate
// generates for the program, without assembling them: the number of
// reads-from assignments with acyclic RMW value dependencies times the
// number of per-location write serializations. Candidates whose value
// propagation cannot converge are never visited by Enumerate and are not
// counted here, so the result matches the enumeration exactly. The count
// is a closed form per location: it never walks the space. Useful for
// bounding litmus-test cost. A program whose candidate space does not fit
// in an int yields an error wrapping ErrSpaceTooLarge.
func CountCandidates(p *Program) (int, error) {
	sp, err := newEnumSpace(p)
	if err != nil {
		return 0, err
	}
	return sp.candidates, nil
}

// buildWalk materializes what a walk reads: the candidate-independent
// relations, every location's ws orders and, for the uniproc walk, every
// location's table of passing shares. The table search honours ctx.
func (sp *enumSpace) buildWalk(ctx context.Context, uniproc bool) error {
	sp.inv = newInvariantRels(sp.events)
	sp.uniproc = uniproc
	sp.locReads = make([][]int, len(sp.locs))
	backing := make([]int, 0, len(sp.reads))
	for l := range sp.locs {
		start := len(backing)
		sp.locs[l].step = l + start
		for _, pos := range sp.locs[l].reads {
			backing = append(backing, sp.reads[pos])
		}
		sp.locReads[l] = backing[start:len(backing):len(backing)]
	}
	var poloc *Relation
	if uniproc {
		poloc = &sp.inv.poloc
	}
	for l := range sp.locs {
		sp.locs[l].ws = wsOrders(sp.events, &sp.locs[l], poloc)
	}
	if !uniproc {
		sp.walkSize = sp.fullSize
		return nil
	}
	if err := sp.buildTables(ctx); err != nil {
		return err
	}
	// Each table holds at most its location's size entries, so the
	// product is bounded by fullSize.
	sp.walkSize = 1
	for l := range sp.locs {
		sp.walkSize *= len(sp.locs[l].table)
	}
	return nil
}

// total returns the number of candidate indices of the selected walk. The
// full walk's indices include candidates that assembly later drops for
// cyclic RMW value dependencies; the uniproc walk's tables hold none.
func (sp *enumSpace) total() int { return sp.walkSize }

// visits returns the number of candidates the selected walk visits.
func (sp *enumSpace) visits() int {
	if sp.uniproc {
		return sp.walkSize
	}
	return sp.candidates
}

// tableSearch is the state of one buildTables call: the location being
// searched, the positions of its writes in the ws order being searched,
// and its reads' bounds on the positions of their sources.
type tableSearch struct {
	sp    *enumSpace
	ctx   context.Context
	nodes int
	loc   *locSpace
	// pos[w] is write w's position in the ws order being searched.
	pos []int
	// For the location's i-th read: prev[i] is the index among the
	// location's reads of the nearest read poloc-before it, -1 if none;
	// its source's position p must satisfy lo[i] <= p < hi[i] in the ws
	// order being searched, and src[i] is the position of the source it
	// has been given.
	prev, lo, hi, src []int
	// wsDigit is the ws order being searched.
	wsDigit int
}

// buildTables fills each location's table with the local indices of its
// shares that pass uniproc and in which every RMW is adjacent in ws: its
// read half reads from the write just before its write half. The ws
// orders are those that extend poloc (wsOrders, CoWW), so per ws order the
// search need only choose each read's source by its position in the
// order, the initial write at 0. Read r may read from s exactly when
//   - pos(s) >= the position of every write poloc-before r (CoWR);
//   - pos(s) < the position of every write poloc-after r (CoRW1, CoRW2);
//   - pos(s) >= the position of the source of the nearest read
//     poloc-before r (CoRR; the earlier reads' sources follow by
//     induction).
//
// Poloc ∪ rf ∪ ws ∪ fr on one location is acyclic exactly when the
// location has none of the five coherence shapes (Alglave, Maranget and
// Tautschnig, "Herding Cats", TOPLAS 2014, the SC-per-location theorem),
// and these bounds exclude the four that involve a read. An RMW value
// cycle is a poloc ∪ rf cycle, which CoRW2 excludes, so no leaf check for
// one is needed. An RMW read's write half is poloc-after it, so its source
// lies before the write half, and the RMW condition narrows it to the
// position just before (EnumUniprocAdjacentRMW). The table lists the
// passing shares by ws order and then by the reads' sources, the last
// read least significant, so consecutive candidates of the walk mostly
// differ in one read's source (Execution.BaseClosure).
func (sp *enumSpace) buildTables(ctx context.Context) error {
	maxReads := 0
	for l := range sp.locs {
		maxReads = max(maxReads, len(sp.locs[l].reads))
	}
	s := &tableSearch{
		sp:   sp,
		ctx:  ctx,
		pos:  make([]int, len(sp.events)),
		prev: make([]int, maxReads),
		lo:   make([]int, maxReads),
		hi:   make([]int, maxReads),
		src:  make([]int, maxReads),
	}
	for l := range sp.locs {
		if err := s.location(&sp.locs[l]); err != nil {
			return err
		}
	}
	return nil
}

// location fills loc's table.
func (s *tableSearch) location(loc *locSpace) error {
	s.loc = loc
	poloc := &s.sp.inv.poloc
	// poloc runs forward in event order, so the nearest read poloc-before
	// a read is the last such read before it.
	for i, pos := range loc.reads {
		s.prev[i] = -1
		for j := i - 1; j >= 0; j-- {
			if poloc.Has(s.sp.reads[loc.reads[j]], s.sp.reads[pos]) {
				s.prev[i] = j
				break
			}
		}
	}
	for wd, order := range loc.ws {
		if err := s.tick(); err != nil {
			return err
		}
		for p, w := range order {
			s.pos[w] = p
		}
		for i, pos := range loc.reads {
			r := s.sp.reads[pos]
			lo, hi := 0, len(order)
			for p, w := range order {
				if poloc.Has(w, r) {
					lo = max(lo, p)
				} else if hi == len(order) && poloc.Has(r, w) {
					hi = p
				}
				if s.sp.rmwReadOf[w] == r {
					lo = max(lo, p-1) // r is w's read half
				}
			}
			s.lo[i], s.hi[i] = lo, hi
		}
		s.wsDigit = wd
		if err := s.search(0, 0); err != nil {
			return err
		}
	}
	return nil
}

// search extends the passing prefix of the first i reads' rf choices,
// whose local rf digits form rfLocal, by every choice for read i whose
// position in the ws order lies within its bounds, and records each
// complete share.
func (s *tableSearch) search(i, rfLocal int) error {
	loc := s.loc
	if i == len(loc.reads) {
		loc.table = append(loc.table, rfLocal*len(loc.ws)+s.wsDigit)
		return nil
	}
	if err := s.tick(); err != nil {
		return err
	}
	lo, hi := s.lo[i], s.hi[i]
	if j := s.prev[i]; j >= 0 {
		lo = max(lo, s.src[j])
	}
	choices := s.sp.choices[loc.reads[i]]
	for d, w := range choices {
		if p := s.pos[w]; p >= lo && p < hi {
			s.src[i] = p
			if err := s.search(i+1, rfLocal*len(choices)+d); err != nil {
				return err
			}
		}
	}
	return nil
}

// tick counts a search node and polls the context every 256 nodes.
func (s *tableSearch) tick() error {
	s.nodes++
	if s.nodes&255 != 0 {
		return nil
	}
	return s.ctx.Err()
}

// enumArena holds everything one walker reuses across candidates: one
// execution slot whose events, rf/ws state and relation backing arrays
// are recycled, the value-propagation scratch, and the digits of the
// candidate the slot holds. Assembling a candidate into an arena
// therefore allocates nothing in steady state. Every walker visits
// synchronously, so the slot is free again once emit returns.
//
// The walk is an odometer: consecutive candidate indices mostly differ in
// the last location's digit, so a candidate reassigns, and re-propagates
// the values of, only the locations whose digit differs from the slot's,
// and the slot's base closure rebuilds only its levels from the first
// step whose edges changed on: the ws chain of the first such location
// when its ws order changed, otherwise its first read whose source
// changed (Execution.BaseClosure).
type enumArena struct {
	det  []bool
	slot *Execution
	// digits[l] is location l's digit in the candidate the slot holds,
	// and ws[l] and rf[l] the ws and rf parts of its local index, all -1
	// before the first; cyclic[l] reports that location l's rf choice has
	// a cyclic RMW value dependency, and cycles counts such locations.
	digits, ws, rf []int
	cyclic         []bool
	cycles         int
}

// newArena builds an arena for one walker.
func (sp *enumSpace) newArena() *enumArena {
	n := len(sp.locs)
	digits := make([]int, 3*n)
	for i := range digits {
		digits[i] = -1
	}
	return &enumArena{
		det:    make([]bool, len(sp.events)),
		slot:   sp.newSlot(),
		digits: digits[:n:n],
		ws:     digits[n : 2*n : 2*n],
		rf:     digits[2*n:],
		cyclic: make([]bool, n),
	}
}

// newSlot builds one reusable execution: its events are copies of the
// space's templates (values are rewritten per candidate), its ws orders
// alias the shared permutation tables, its relations share the space's
// candidate-independent set, and its base closure takes one step per
// location and one per read.
func (sp *enumSpace) newSlot() *Execution {
	n := len(sp.events)
	x := &Execution{Program: sp.p, inv: sp.inv, locReads: sp.locReads, steps: len(sp.locs) + len(sp.reads)}
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

// candidate assembles the execution at candidate index g into the arena's
// slot, or returns nil when its value propagation does not converge
// (cyclic RMW value dependency). It decodes g location by location, the
// last location least significant: each digit is a local index (full
// walk) or selects one from the location's table (uniproc walk), and a
// local index holds the ws choice in its least significant digit and the
// rf choices of the location's reads above it.
//
// Only the locations whose digit differs from the slot's are reassigned
// and re-propagated; the others keep their rf and ws choices and values,
// which depend on their own digit alone. A location with a value cycle
// keeps the candidate dropped until its digit moves. The slot's closure
// levels are invalidated from the first step whose edges changed on.
func (sp *enumSpace) candidate(g int, a *enumArena) *Execution {
	x := a.slot
	first, moved := len(sp.locs)+len(sp.reads), false
	for l := len(sp.locs) - 1; l >= 0; l-- {
		loc := &sp.locs[l]
		var d int
		if sp.uniproc {
			n := len(loc.table)
			d = g % n
			g /= n
		} else {
			d = g % loc.size
			g /= loc.size
		}
		if d == a.digits[l] {
			continue
		}
		a.digits[l], moved = d, true
		if sp.uniproc {
			d = loc.table[d]
		}
		if ws := d % len(loc.ws); ws != a.ws[l] {
			a.ws[l], x.wsOrders[l] = ws, loc.ws[ws]
			first = min(first, loc.step)
		}
		if d /= len(loc.ws); d != a.rf[l] {
			a.rf[l] = d
			for i := len(loc.reads) - 1; i >= 0; i-- {
				pos := loc.reads[i]
				c := sp.choices[pos]
				if w := c[d%len(c)]; w != x.rf[sp.reads[pos]] {
					x.rf[sp.reads[pos]] = w
					first = min(first, loc.step+1+i)
				}
				d /= len(c)
			}
		}
		if cyclic := !sp.propagate(x, a, loc); cyclic != a.cyclic[l] {
			a.cyclic[l] = cyclic
			if cyclic {
				a.cycles++
			} else {
				a.cycles--
			}
		}
	}
	if moved {
		x.reassigned(first)
	}
	if a.cycles > 0 {
		return nil
	}
	return x
}

// propagate assigns the values of one location's events for the slot's
// rf choice: a read's value comes from its rf source, an RMW write's from
// applying Modify to its read half's value. RMW value dependencies never
// cross locations, so each location propagates on its own. It sweeps the
// location's events until every value is set (chains of RMWs reading from
// RMW writes take one sweep per link) and reports false when a sweep sets
// none: a cyclic value dependency, which has no consistent assignment —
// the rf assignments rfCount excludes.
func (sp *enumSpace) propagate(x *Execution, a *enumArena, loc *locSpace) bool {
	events, pending := x.Events, 0
	for _, e := range loc.events {
		if a.det[e] = sp.writeDetermined[e]; !a.det[e] {
			pending++
		}
	}
	for pending > 0 {
		progress := false
		for _, e := range loc.events {
			if a.det[e] {
				continue
			}
			if src := x.rf[e]; src >= 0 && a.det[src] {
				events[e].Value = events[src].Value
			} else if rd := sp.rmwReadOf[e]; rd >= 0 && a.det[rd] {
				events[e].Value = sp.modify[e](events[rd].Value)
			} else {
				continue
			}
			a.det[e], progress = true, true
			pending--
		}
		if !progress {
			return false // value cycle through RMWs: no consistent values
		}
	}
	return true
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

// wsOrders returns the coherence orders of a location that a walk uses,
// each its initial write followed by an order of its other writes, in
// lexicographic order of their event indices and sharing one backing
// array. With a nil poloc these are all the orders; otherwise only those
// that extend poloc, which are exactly the orders for which poloc ∪ ws is
// acyclic: poloc is transitive and ws total on the writes, so a cycle of
// the union reduces to two writes that ws orders against poloc.
func wsOrders(events []*Event, loc *locSpace, poloc *Relation) [][]int {
	g := orderGen{poloc: poloc, rest: make([]int, 0, loc.writes)}
	for _, e := range loc.events[1:] {
		if events[e].IsWrite() {
			g.rest = append(g.rest, e)
		}
	}
	k := len(g.rest) + 1
	g.order = make([]int, k)
	g.order[0] = loc.events[0]
	if poloc == nil {
		n := 1 // len(rest)!, overflow-checked by newEnumSpace
		for i := 2; i <= len(g.rest); i++ {
			n *= i
		}
		if size, ok := checkedMul(n, k); ok {
			g.orders = make([]int, 0, size)
		}
	}
	g.place(1)
	out := make([][]int, len(g.orders)/k)
	for o := range out {
		out[o] = g.orders[o*k : (o+1)*k : (o+1)*k]
	}
	return out
}

// orderGen is the state of one wsOrders call.
type orderGen struct {
	poloc *Relation
	rest  []int // the non-initial writes, in event order
	// used has bit i set while rest[i] is placed; newEnumSpace rejects a
	// location with more than 20 such writes (21! overflows int).
	used   uint64
	order  []int // the order being built, initial write first
	orders []int // the finished orders, back to back
}

// place fills order[p:] with every arrangement of the unplaced writes,
// trying them in event order at each position.
func (g *orderGen) place(p int) {
	if p == len(g.order) {
		g.orders = append(g.orders, g.order...)
		return
	}
	for i, w := range g.rest {
		if g.used&(1<<i) != 0 || !g.ready(w) {
			continue
		}
		g.used |= 1 << i
		g.order[p] = w
		g.place(p + 1)
		g.used &^= 1 << i
	}
}

// ready reports whether w may come next: no unplaced write precedes it in
// poloc.
func (g *orderGen) ready(w int) bool {
	if g.poloc == nil {
		return true
	}
	for i, u := range g.rest {
		if g.used&(1<<i) == 0 && u != w && g.poloc.Has(u, w) {
			return false
		}
	}
	return true
}
