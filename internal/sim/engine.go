// Package sim is the cycle-approximate chip-multiprocessor simulator used
// to evaluate the paper's RMW implementations (§3, §4). It stands in for
// the GEM5-based platform of the paper: in-order cores with per-core write
// buffers, private L1 caches and a shared distributed L2 kept coherent by a
// MOESI directory over a 2D mesh (Table 2), executing memory-operation
// traces produced by internal/workload.
//
// The simulator implements the three RMW flavours:
//
//   - type-1 (baseline): drain the write buffer, then obtain exclusive
//     ownership of the RMW's line, lock it, perform the read and write, and
//     unlock;
//   - type-2 (§3.2): retire the RMW as soon as the read half owns and locks
//     the line; the write half drains from the write buffer later, with the
//     bloom-filter addr-list protocol avoiding write-deadlocks;
//   - type-3 (§3.3): like type-2 but the read half only needs read
//     permission (directory locking), removing the invalidation delay.
//
// Per-RMW costs are split into the write-buffer component and the Ra/Wa
// component exactly as in Fig. 11(a), and the per-benchmark execution-time
// overhead of Fig. 11(b) is derived from the same runs.
//
// The simulation is a discrete-event state machine. Events are small
// values naming a core and what it does next (evKind); each core keeps its
// single in-flight operation in processor fields, so no event carries a
// closure. Events fire in (cycle, schedule order) order, which makes every
// run deterministic.
package sim

import (
	"fmt"

	"repro/internal/sim/directory"
)

// evKind names what an event does when it fires.
type evKind uint8

const (
	// evStep: the core runs its next operation.
	evStep evKind = iota
	// evEntryReady: ownership for write-buffer entry arg arrived.
	evEntryReady
	// evDrainRetry: head write arg, denied on a locked line, retries its
	// GetM.
	evDrainRetry
	// evRMWDone: a type-1 or reverted RMW's write performed, so the core
	// unlocks the line, records the RMW and steps.
	evRMWDone
	// evRMWLocked: a weak RMW's read half holds its line, so the core
	// pushes the write half into its write buffer.
	evRMWLocked
)

// slot is one scheduled step of one core as its calendar bucket holds it:
// the bucket gives its cycle, and its place in the bucket its schedule
// order. Sixteen bytes, so four share a cache line.
type slot struct {
	arg  uint64
	core int32
	kind evKind
}

// farEvent is a slot scheduled beyond the window, with the cycle and the
// schedule order (seq, counted over far events only) that the heap
// orders it by.
type farEvent struct {
	at, seq uint64
	slot
}

// before orders far events by cycle, then by schedule order.
func (e *farEvent) before(o *farEvent) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// window is how many cycles ahead of the clock the calendar keeps in
// per-cycle buckets. Every Table 2 latency is far below it, so nearly
// every event goes straight into a bucket; the rest wait in a heap. Any
// window gives the same event order.
const window = 1024

// calendar is the event queue: a FIFO bucket per cycle for the next window
// cycles, and a binary heap for events further out. Events are appended to
// their bucket in schedule order, and the heap's events move into their
// buckets as soon as they enter the window -- before anything runs at the
// cycle that brings them in, hence before anything later is scheduled for
// them -- so each bucket holds one cycle's events in schedule order.
type calendar struct {
	now     uint64
	buckets [][]slot
	// pos is the next event of the current cycle's bucket; bucketed counts
	// the events in all buckets that have not been popped.
	pos      int
	bucketed int
	far      []farEvent // binary min-heap by (at, seq)
	farSeq   uint64     // the next far event's seq
}

func newCalendar() calendar {
	return calendar{buckets: make([][]slot, window)}
}

// push schedules an event. Scheduling before the current cycle is a
// modelling bug and panics.
func (q *calendar) push(at uint64, kind evKind, core int, arg uint64) {
	if at < q.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before current cycle %d", at, q.now))
	}
	s := slot{arg: arg, core: int32(core), kind: kind}
	if at-q.now < window {
		b := &q.buckets[at%window]
		*b = append(*b, s)
		q.bucketed++
		return
	}
	q.pushFar(farEvent{at: at, seq: q.farSeq, slot: s})
	q.farSeq++
}

// pop removes the next event and returns its cycle and slot, advancing
// the clock to that cycle. ok is false when the queue is empty.
func (q *calendar) pop() (at uint64, s slot, ok bool) {
	for {
		// The current bucket can grow while it is consumed: an event may
		// schedule another at the current cycle.
		b := q.buckets[q.now%window]
		if q.pos < len(b) {
			s = b[q.pos]
			q.pos++
			q.bucketed--
			return q.now, s, true
		}
		q.buckets[q.now%window] = b[:0]
		q.pos = 0
		switch {
		case q.bucketed > 0:
			// The heap only holds events beyond the window, so the next
			// event is in a bucket.
			for q.now++; len(q.buckets[q.now%window]) == 0; q.now++ {
			}
		case len(q.far) > 0:
			q.now = q.far[0].at
		default:
			return 0, slot{}, false
		}
		for len(q.far) > 0 && q.far[0].at-q.now < window {
			ev := q.popFar()
			b := &q.buckets[ev.at%window]
			*b = append(*b, ev.slot)
			q.bucketed++
		}
	}
}

// pushFar and popFar maintain the heap of events beyond the window.
func (q *calendar) pushFar(ev farEvent) {
	q.far = append(q.far, ev)
	h := q.far
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *calendar) popFar() farEvent {
	h := q.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		min, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].before(&h[min]) {
			min = l
		}
		if r < n && h[r].before(&h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	q.far = h
	return top
}

// engine is one simulation run: the event queue, the cores and the memory
// system they share.
type engine struct {
	q     calendar
	procs []processor
	dir   *directory.Directory
	// rmwLines records every line an RMW has targeted.
	rmwLines map[uint64]struct{}
	// afterEvent, when set, runs after every event; tests arm it through
	// eventHook to check invariants and to record event mixes.
	afterEvent func(e *engine, at uint64, s slot)
}

// eventHook is copied into every new engine's afterEvent. It is nil
// outside tests, so a run pays one nil check per event for it.
var eventHook func(e *engine, at uint64, s slot)

// run dispatches events in (cycle, schedule order) order until the queue
// is empty or the next event lies beyond the cycle limit. It returns an
// error in the second case, which usually means the simulated system
// livelocked.
func (e *engine) run(limit uint64) error {
	for {
		at, s, ok := e.q.pop()
		if !ok {
			return nil
		}
		if at > limit {
			return fmt.Errorf("sim: cycle limit %d exceeded at cycle %d", limit, at)
		}
		p := &e.procs[s.core]
		switch s.kind {
		case evStep:
			p.step(at)
		case evEntryReady:
			p.entryReady(at, s.arg)
		case evDrainRetry:
			p.drainRetry(at, s.arg)
		case evRMWDone:
			p.rmwDone(at)
		case evRMWLocked:
			p.rmwLocked(at)
		default:
			panic(fmt.Sprintf("sim: unknown event kind %d", s.kind))
		}
		if e.afterEvent != nil {
			e.afterEvent(e, at, s)
		}
	}
}

// unlock releases one of a core's locks on a line and resumes the
// requests that were parked on it, in arrival order, at once: a parked
// drain schedules its retry, and a denied access is issued again (and may
// be denied again).
func (e *engine) unlock(line uint64, core int, at uint64) {
	for _, w := range e.dir.Unlock(line, core, at) {
		if w.Drain {
			_, entry := splitTag(w.Tag)
			e.q.push(w.Start, evDrainRetry, w.Core, entry)
			continue
		}
		e.procs[w.Core].access(w.Request)
	}
}
