package sim

import (
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/sim/directory"
	"repro/internal/sim/mesh"
	"repro/internal/sim/writebuffer"
)

// cont names what a core does when one of its coherence requests is
// granted. It travels in the request's directory tag, so a request parked
// on a locked line resumes the same continuation.
type cont uint8

const (
	// contLoad: a load's data arrived; the core steps.
	contLoad cont = iota
	// contEntry: ownership for a write-buffer entry arrives.
	contEntry
	// contRMW: a type-1 or reverted RMW holds its locked line; its write
	// performs one cycle later.
	contRMW
	// contWeakRMW: a weak RMW's read half holds its locked line.
	contWeakRMW
)

// tag packs a continuation and its write-buffer entry ID into a request
// tag; splitTag unpacks it.
func tag(c cont, entry uint64) uint64 { return entry<<2 | uint64(c) }

func splitTag(t uint64) (cont, uint64) { return cont(t & 3), t >> 2 }

// drainCont names what follows a forced drain once the write buffer is
// empty.
type drainCont uint8

const (
	drainNone drainCont = iota
	// drainFence: a fence completes; the core steps.
	drainFence
	// drainRMW: a type-1 or reverted RMW requests and locks its line.
	drainRMW
)

// processor is one simulated in-order core: it pulls operations from its
// stream, talks to the directory for loads and RMWs, retires stores into
// its write buffer and runs the background drain of that buffer. The
// stream is consumed one op at a time, so the processor's memory footprint
// is independent of trace length; everything that advances the instruction
// stream goes through the event queue so that arbitrarily long traces
// never build up call-stack depth either.
//
// A core runs one operation at a time, so the state of that operation --
// its start cycle and, for an RMW, the fields below -- lives here rather
// than in the events that continue it.
type processor struct {
	id    int
	cfg   *Config
	eng   *engine
	dir   *directory.Directory
	topo  *mesh.Topology
	wb    *writebuffer.Buffer
	addrs *bloom.AddrList

	stream OpStream

	stats CoreStats

	// opStart is the cycle the current operation started.
	opStart uint64

	// The current RMW: its line; its start after any addr-list broadcast
	// and that broadcast's latency; when its forced drain ended (type-1
	// and reverted RMWs) or when its read half locked the line (weak
	// RMWs); and whether it reverted to a drain or broadcast its address.
	rmwLine    uint64
	rmwStart   uint64
	rmwBcast   uint64
	rmwDrained uint64
	rmwLockAt  uint64
	reverted   bool
	broadcast  bool

	// pushWaiting marks a write stalled on a full write buffer: it is
	// pushed at pushAt or when a slot frees, whichever is later. pushWa
	// marks the write half of a weak RMW.
	pushWaiting bool
	pushAt      uint64
	pushLine    uint64
	pushWa      bool

	// drainNext is what waits for the write buffer to empty (drainNone
	// when nothing does). forcedDrain marks an active forced drain, which
	// (with ParallelDrain) makes the drainer issue every pending entry
	// concurrently.
	drainNext   drainCont
	forcedDrain bool

	// The drainer sends ownership requests in buffer order, and entries
	// leave only from the head, so the entries whose request was sent
	// always form a prefix of the buffer. issued is that prefix's length
	// and pending counts its entries still waiting for ownership (in
	// flight and not ready).
	issued, pending int

	done       bool
	finishTime uint64
}

// step pulls and executes the next trace operation.
func (p *processor) step(at uint64) {
	op, ok := p.stream.Next()
	if !ok {
		p.finish(at)
		return
	}
	switch op.Kind {
	case OpCompute:
		p.stats.Computes++
		p.eng.q.push(at+op.Think, evStep, p.id, 0)
	case OpRead:
		p.read(at, op.Addr)
	case OpWrite:
		p.writeOp(at, op.Addr)
	case OpRMW:
		p.rmw(at, op.Addr)
	case OpFence:
		p.fence(at)
	default:
		// Unknown kinds are skipped; traces are produced in-process so this
		// is unreachable in practice.
		p.eng.q.push(at, evStep, p.id, 0)
	}
}

// finish records completion of the core's trace. Any writes still sitting
// in the write buffer keep draining in the background; the core's finish
// time (and hence the benchmark's execution time) is when its last
// instruction retired, matching how execution time is normally reported.
func (p *processor) finish(at uint64) {
	p.done = true
	p.finishTime = at
	p.stats.Cycles = at
}

// access issues a coherence request and, when it is granted, runs its
// continuation at once. A denied request stays parked in the directory
// until the engine resumes it through access again.
func (p *processor) access(r directory.Request) {
	done, ok := p.dir.Access(r)
	if !ok {
		return
	}
	c, entry := splitTag(r.Tag)
	switch c {
	case contLoad:
		p.stats.ReadStallCycles += done - p.opStart
		p.eng.q.push(done, evStep, p.id, 0)
	case contEntry:
		p.eng.q.push(done, evEntryReady, p.id, entry)
	case contRMW:
		p.eng.q.push(done+1, evRMWDone, p.id, 0) // the write performs into the locked, owned line
	case contWeakRMW:
		p.eng.q.push(done, evRMWLocked, p.id, 0)
	}
}

// read performs a load: store-to-load forwarding from the write buffer if
// possible, otherwise a GetS coherence request.
func (p *processor) read(at uint64, addr uint64) {
	p.stats.Reads++
	line := p.cfg.LineOf(addr)
	if p.wb.Contains(line) {
		// Forwarded from the youngest matching store in one cycle.
		p.eng.q.push(at+1, evStep, p.id, 0)
		return
	}
	p.opStart = at
	p.access(directory.Request{Core: p.id, Line: line, Kind: directory.GetS, Start: at, Tag: tag(contLoad, 0)})
}

// writeOp retires a store into the write buffer and moves on; the store
// performs later when it reaches the buffer head.
func (p *processor) writeOp(at uint64, addr uint64) {
	p.stats.Writes++
	p.opStart = at
	p.pushWrite(at, p.cfg.LineOf(addr), false)
}

// pushWrite appends a write to the write buffer, stalling until space is
// available, and retires it one cycle after the push.
func (p *processor) pushWrite(at uint64, line uint64, wa bool) {
	if p.wb.Full() {
		p.pushWaiting, p.pushAt, p.pushLine, p.pushWa = true, at, line, wa
		return
	}
	if _, err := p.wb.Push(line, wa, at); err != nil {
		// Full was checked above; a failure here is a modelling bug.
		panic(err)
	}
	p.kickDrain(at)
	if wa {
		p.rmwRetired(at + 1)
		return
	}
	if done := at + 1; done > p.opStart+1 {
		p.stats.WriteStallCycles += done - p.opStart - 1
	}
	p.eng.q.push(at+1, evStep, p.id, 0)
}

// fence drains the write buffer before the next operation.
func (p *processor) fence(at uint64) {
	p.stats.Fences++
	p.drainAll(at, drainFence)
}

// kickDrain makes sure the write-buffer drainer is working: up to
// MaxOutstandingDrains entries from the front of the buffer have their
// ownership requests outstanding (writes still complete in FIFO order);
// during a forced drain with ParallelDrain every pending entry is issued
// concurrently.
func (p *processor) kickDrain(at uint64) {
	if p.wb.Empty() {
		p.notifyEmpty(at)
		return
	}
	limit := p.cfg.MaxOutstandingDrains
	if p.forcedDrain && p.cfg.ParallelDrain {
		limit = p.wb.Len()
	}
	for p.pending < limit && p.issued < p.wb.Len() {
		// Send the next entry's ownership request; the write completes
		// when ownership arrives (evEntryReady), so the buffer's state
		// only changes at the completion cycle.
		e := p.wb.At(p.issued)
		e.InFlight = true
		p.issued++
		p.pending++
		p.access(directory.Request{Core: p.id, Line: e.Line, Kind: directory.GetM, Start: at, Tag: tag(contEntry, e.ID)})
	}
}

// entryReady records that a pending write's ownership response has
// arrived. Under TSO writes leave the buffer strictly in FIFO order, so the
// entry is only marked ready; drainReady completes it once it reaches the
// head.
func (p *processor) entryReady(at uint64, id uint64) {
	e := p.wb.Get(id)
	if !e.Ready {
		e.Ready = true
		p.pending--
	}
	e.ReadyAt = at
	p.drainReady(at)
}

// drainRetry re-requests ownership for the head write id after the lock
// that denied it was released.
func (p *processor) drainRetry(at uint64, id uint64) {
	p.access(directory.Request{Core: p.id, Line: p.wb.Get(id).Line, Kind: directory.GetM, Start: at, Tag: tag(contEntry, id)})
}

// drainReady completes ready writes from the head of the buffer, in order.
// A head write whose line is locked by another processor's RMW is denied
// (the paper's cache-line locking) and retried after the unlock -- this is
// exactly the dependency that produces the Fig. 10 write-deadlock when
// deadlock avoidance is disabled.
func (p *processor) drainReady(at uint64) {
	for {
		head := p.wb.Head()
		if head == nil {
			p.notifyEmpty(at)
			return
		}
		if !head.Ready {
			p.kickDrain(at)
			return
		}
		if head.ReadyAt > at {
			at = head.ReadyAt
		}
		if p.dir.WaitForUnlock(directory.Request{Core: p.id, Line: head.Line, Kind: directory.GetM, Tag: tag(contEntry, head.ID)}) {
			head.Ready = false
			p.pending++
			return
		}
		w := p.wb.Pop()
		p.issued--
		if w.IsRMWWrite {
			// Completing the write half of a weak RMW releases its line
			// lock, letting denied coherence requests proceed.
			p.eng.unlock(w.Line, p.id, at)
		}
		p.notifySlotFree(at)
		p.kickDrain(at)
	}
}

// drainAll starts a forced drain: next runs once the write buffer is
// empty, at once if it already is.
func (p *processor) drainAll(at uint64, next drainCont) {
	if p.wb.Empty() {
		p.drained(at, next)
		return
	}
	p.drainNext = next
	p.forcedDrain = true
	p.kickDrain(at)
}

func (p *processor) notifyEmpty(at uint64) {
	p.forcedDrain = false
	if next := p.drainNext; next != drainNone {
		p.drainNext = drainNone
		p.drained(at, next)
	}
}

// drained continues the operation that waited for the write buffer to
// empty.
func (p *processor) drained(at uint64, next drainCont) {
	switch next {
	case drainFence:
		p.eng.q.push(at, evStep, p.id, 0)
	case drainRMW:
		p.rmwDrained = at
		p.access(directory.Request{Core: p.id, Line: p.rmwLine, Kind: directory.GetM, Start: at, Lock: true, Tag: tag(contRMW, 0)})
	}
}

func (p *processor) notifySlotFree(at uint64) {
	if !p.pushWaiting || p.wb.Full() {
		return
	}
	p.pushWaiting = false
	if at < p.pushAt {
		at = p.pushAt
	}
	p.pushWrite(at, p.pushLine, p.pushWa)
}

// recordRMW accumulates one completed RMW's cost, split the way
// Fig. 11(a) reports it. reverted marks a type-2/3 RMW that fell back to a
// full drain because a pending write conflicted with the addr-list;
// broadcast marks an RMW that had to broadcast its address.
func (p *processor) recordRMW(writeBuffer, raWa uint64, reverted, broadcast bool) {
	p.stats.RMWsCompleted++
	p.stats.RMWWriteBufferCycles += writeBuffer
	p.stats.RMWRaWaCycles += raWa
	if reverted {
		p.stats.RMWReverts++
	}
	if broadcast {
		p.stats.RMWBroadcasts++
	}
}

// rmw dispatches to the configured RMW implementation.
func (p *processor) rmw(at uint64, addr uint64) {
	p.stats.RMWs++
	line := p.cfg.LineOf(addr)
	p.eng.rmwLines[line] = struct{}{}
	p.opStart, p.rmwLine = at, line
	if p.cfg.RMWType == core.Type1 {
		// The baseline strongly-ordered RMW (§3.1): drain the write buffer,
		// obtain exclusive ownership, lock, perform the read and the write,
		// unlock, and only then let the next instruction retire.
		p.rmwStart, p.rmwBcast, p.reverted, p.broadcast = at, 0, false, false
		p.drainAll(at, drainRMW)
		return
	}
	p.rmwWeak(at, line)
}

// rmwDone completes a type-1 or reverted RMW: its write performed into the
// locked line at this cycle, so the line is unlocked, the RMW recorded and
// the next instruction retires.
func (p *processor) rmwDone(at uint64) {
	p.eng.unlock(p.rmwLine, p.id, at)
	p.recordRMW(p.rmwDrained-p.rmwStart, (at-p.rmwDrained)+p.rmwBcast, p.reverted, p.broadcast)
	p.step(at)
}

// rmwWeak implements the type-2 and type-3 RMWs (§3.2, §3.3). The read half
// acquires and locks the line (exclusively for type-2; with read permission
// only for type-3), the RMW retires, and the write half drains from the
// write buffer later, unlocking the line when it completes. The bloom-filter
// addr-list protocol reverts to a type-1-style drain whenever a pending
// write might target a line locked by another processor's RMW.
func (p *processor) rmwWeak(at uint64, line uint64) {
	var broadcast, conflict bool
	var bcastLat uint64
	if !p.cfg.DisableDeadlockAvoidance {
		broadcast = p.addrs.LookupOrBroadcast(line)
		if broadcast {
			bcastLat = p.topo.BroadcastLatency(p.id)
		}
		for i := 0; i < p.wb.Len(); i++ {
			if p.addrs.MayContain(p.wb.At(i).Line) {
				conflict = true
				break
			}
		}
	}
	start := at + bcastLat
	p.rmwStart, p.rmwBcast, p.reverted, p.broadcast = start, bcastLat, conflict, broadcast

	if conflict {
		// Deadlock-safety cannot be guaranteed: fall back to the type-1
		// sequence (drain first), counting the drain in the write-buffer
		// component.
		p.drainAll(start, drainRMW)
		return
	}

	kind := directory.GetM
	if p.cfg.RMWType == core.Type3 {
		// Type-3 atomicity allows reads between Ra and Wa, so read
		// permission suffices and no invalidation delay is paid here. When
		// the line is not owned locally the lock is taken at the directory.
		kind = directory.GetS
	}
	p.access(directory.Request{Core: p.id, Line: line, Kind: kind, Start: start, Lock: true, Tag: tag(contWeakRMW, 0)})
}

// rmwLocked runs when a weak RMW's read half holds its locked line: Wa
// retires into the write buffer, and the RMW (and everything after it)
// retires without waiting for the drain.
func (p *processor) rmwLocked(at uint64) {
	p.rmwLockAt = at
	p.pushWrite(at, p.rmwLine, true)
}

// rmwRetired records a weak RMW once its write half is in the write
// buffer, at the cycle after the push, and steps.
func (p *processor) rmwRetired(pushed uint64) {
	wbWait := uint64(0)
	if pushed > p.rmwLockAt+1 {
		wbWait = pushed - p.rmwLockAt - 1 // stalled for a free slot
	}
	p.recordRMW(wbWait, (p.rmwLockAt-p.opStart)+1, false, p.broadcast)
	p.eng.q.push(pushed, evStep, p.id, 0)
}
