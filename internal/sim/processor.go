package sim

import (
	"repro/internal/bloom"
	"repro/internal/core"
	"repro/internal/sim/directory"
	"repro/internal/sim/mesh"
	"repro/internal/sim/writebuffer"
)

// processor is one simulated in-order core: it pulls operations from its
// stream, talks to the directory for loads and RMWs, retires stores into
// its write buffer and runs the background drain of that buffer. The
// stream is consumed one op at a time, so the processor's memory footprint
// is independent of trace length; all continuations that advance the
// instruction stream go through the engine so that arbitrarily long traces
// never build up call-stack depth either.
type processor struct {
	id     int
	cfg    Config
	engine *Engine
	dir    *directory.Directory
	topo   *mesh.Topology
	wb     *writebuffer.Buffer
	addrs  *bloom.AddrList

	stream OpStream

	stats CoreStats

	// noteRMWLine lets the simulator track globally-unique RMW lines.
	noteRMWLine func(line uint64)

	// slotWaiters are continuations waiting for write-buffer space;
	// emptyWaiters are forced drains waiting for the buffer to empty.
	slotWaiters  []func(at uint64)
	emptyWaiters []func(at uint64)
	// forcedDrain marks an active forced drain, which (with ParallelDrain)
	// makes the drainer issue every pending entry concurrently.
	forcedDrain bool

	done       bool
	finishTime uint64
}

func newProcessor(id int, cfg Config, engine *Engine, dir *directory.Directory, topo *mesh.Topology, addrs *bloom.AddrList, stream OpStream, noteRMWLine func(uint64)) *processor {
	return &processor{
		id:          id,
		cfg:         cfg,
		engine:      engine,
		dir:         dir,
		topo:        topo,
		wb:          writebuffer.New(cfg.WriteBufferDepth),
		addrs:       addrs,
		stream:      stream,
		stats:       CoreStats{Core: id},
		noteRMWLine: noteRMWLine,
	}
}

// sched schedules a continuation at the given cycle through the engine.
func (p *processor) sched(at uint64, fn func(uint64)) {
	p.engine.Schedule(at, func() { fn(at) })
}

// start begins execution at cycle 0.
func (p *processor) start() {
	p.sched(0, p.step)
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
		p.sched(at+op.Think, p.step)
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
		p.sched(at, p.step)
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

// read performs a load: store-to-load forwarding from the write buffer if
// possible, otherwise a GetS coherence request.
func (p *processor) read(at uint64, addr uint64) {
	p.stats.Reads++
	line := p.cfg.LineOf(addr)
	if p.wb.Contains(line) {
		// Forwarded from the youngest matching store in one cycle.
		p.sched(at+1, p.step)
		return
	}
	p.dir.Access(p.id, line, directory.GetS, at, func(done uint64) {
		p.stats.ReadStallCycles += done - at
		p.sched(done, p.step)
	})
}

// writeOp retires a store into the write buffer and moves on; the store
// performs later when it reaches the buffer head.
func (p *processor) writeOp(at uint64, addr uint64) {
	p.stats.Writes++
	line := p.cfg.LineOf(addr)
	p.pushWrite(at, line, false, func(done uint64) {
		if done > at+1 {
			p.stats.WriteStallCycles += done - at - 1
		}
		p.sched(done, p.step)
	})
}

// pushWrite appends a write to the write buffer, stalling until space is
// available, and invokes cont one cycle after the push (the retire cycle).
func (p *processor) pushWrite(at uint64, line uint64, isRMWWrite bool, cont func(at uint64)) {
	if p.wb.Full() {
		p.slotWaiters = append(p.slotWaiters, func(freeAt uint64) {
			if freeAt < at {
				freeAt = at
			}
			p.pushWrite(freeAt, line, isRMWWrite, cont)
		})
		return
	}
	if _, err := p.wb.Push(line, isRMWWrite, at); err != nil {
		// Full was checked above; a failure here is a modelling bug.
		panic(err)
	}
	p.kickDrain(at)
	cont(at + 1)
}

// fence drains the write buffer before the next operation.
func (p *processor) fence(at uint64) {
	p.stats.Fences++
	p.drainAll(at, func(done uint64) {
		p.sched(done, p.step)
	})
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
	if limit <= 0 {
		limit = 1
	}
	if p.forcedDrain && p.cfg.ParallelDrain {
		limit = p.wb.Len()
	}
	outstanding := 0
	for _, e := range p.wb.Entries() {
		if outstanding >= limit {
			break
		}
		if e.InFlight && !e.Ready {
			outstanding++
			continue
		}
		if !e.InFlight {
			p.issueEntry(e, at)
			outstanding++
		}
	}
}

// issueEntry sends the ownership request for one write-buffer entry and
// completes the write when ownership arrives. Completion is deferred
// through the engine so the buffer's state only changes at the completion
// cycle.
func (p *processor) issueEntry(e *writebuffer.Entry, at uint64) {
	e.InFlight = true
	p.dir.Access(p.id, e.Line, directory.GetM, at, func(done uint64) {
		p.engine.Schedule(done, func() { p.completeEntry(e, done) })
	})
}

// completeEntry records that a pending write's ownership response has
// arrived. Under TSO writes leave the buffer strictly in FIFO order, so the
// entry is only marked ready; drainReady completes it once it reaches the
// head.
func (p *processor) completeEntry(e *writebuffer.Entry, at uint64) {
	e.Ready = true
	e.ReadyAt = at
	p.drainReady(at)
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
		denied := p.dir.WaitForUnlock(head.Line, p.id, func(unlockedAt uint64) {
			retry := unlockedAt + p.cfg.LockRetryCycles
			p.engine.Schedule(retry, func() {
				p.dir.Access(p.id, head.Line, directory.GetM, retry, func(done uint64) {
					p.engine.Schedule(done, func() { p.completeEntry(head, done) })
				})
			})
		})
		if denied {
			head.Ready = false
			return
		}
		p.wb.Remove(head)
		if head.IsRMWWrite {
			// Completing the write half of a weak RMW releases its line
			// lock, letting denied coherence requests proceed.
			p.dir.Unlock(head.Line, p.id, at)
		}
		p.notifySlotFree(at)
		p.kickDrain(at)
	}
}

// drainAll waits until the write buffer is empty (a forced drain), then
// invokes done.
func (p *processor) drainAll(at uint64, done func(at uint64)) {
	if p.wb.Empty() {
		done(at)
		return
	}
	p.emptyWaiters = append(p.emptyWaiters, done)
	p.forcedDrain = true
	p.kickDrain(at)
}

func (p *processor) notifyEmpty(at uint64) {
	p.forcedDrain = false
	waiters := p.emptyWaiters
	p.emptyWaiters = nil
	for _, w := range waiters {
		w(at)
	}
}

func (p *processor) notifySlotFree(at uint64) {
	if len(p.slotWaiters) == 0 || p.wb.Full() {
		return
	}
	w := p.slotWaiters[0]
	p.slotWaiters = p.slotWaiters[1:]
	w(at)
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
	if p.noteRMWLine != nil {
		p.noteRMWLine(line)
	}
	if p.cfg.RMWType == core.Type1 {
		p.rmwType1(at, line)
		return
	}
	p.rmwWeak(at, line)
}

// rmwType1 implements the baseline strongly-ordered RMW (§3.1): drain the
// write buffer, obtain exclusive ownership, lock, perform the read and the
// write, unlock, and only then let the next instruction retire.
func (p *processor) rmwType1(at uint64, line uint64) {
	p.drainAll(at, func(drained uint64) {
		p.dir.AccessAndLock(p.id, line, directory.GetM, drained, func(locked uint64) {
			done := locked + 1 // the write performs into the locked, owned line
			p.engine.Schedule(done, func() {
				p.dir.Unlock(line, p.id, done)
				p.recordRMW(drained-at, done-drained, false, false)
				p.step(done)
			})
		})
	})
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
		broadcast = p.addrs.LookupOrBroadcast(p.id, line)
		if broadcast {
			bcastLat = p.topo.BroadcastLatency(p.id)
		}
		for _, e := range p.wb.Entries() {
			if p.addrs.ConflictsWithPendingWrite(p.id, e.Line) {
				conflict = true
				break
			}
		}
	}
	start := at + bcastLat

	if conflict {
		// Deadlock-safety cannot be guaranteed: fall back to the type-1
		// sequence (drain first), counting the drain in the write-buffer
		// component.
		p.drainAll(start, func(drained uint64) {
			p.dir.AccessAndLock(p.id, line, directory.GetM, drained, func(locked uint64) {
				done := locked + 1
				p.engine.Schedule(done, func() {
					p.dir.Unlock(line, p.id, done)
					p.recordRMW(drained-start, (done-drained)+bcastLat, true, broadcast)
					p.step(done)
				})
			})
		})
		return
	}

	kind := directory.GetM
	if p.cfg.RMWType == core.Type3 {
		// Type-3 atomicity allows reads between Ra and Wa, so read
		// permission suffices and no invalidation delay is paid here. When
		// the line is not owned locally the lock is taken at the directory.
		kind = directory.GetS
	}
	p.dir.AccessAndLock(p.id, line, kind, start, func(locked uint64) {
		// Wa retires into the write buffer; the RMW (and everything after
		// it) retires without waiting for the drain.
		p.engine.Schedule(locked, func() {
			p.pushWrite(locked, line, true, func(pushed uint64) {
				wbWait := uint64(0)
				if pushed > locked+1 {
					wbWait = pushed - locked - 1 // stalled for a free slot
				}
				p.recordRMW(wbWait, (locked-at)+1, false, broadcast)
				p.sched(pushed, p.step)
			})
		})
	})
}
