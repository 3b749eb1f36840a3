package sim

import "fmt"

// EventMix is the event sequence of one simulation run in pop order. Its
// replay pushes each event when the same core's previous event pops (a
// core's first event at the start), so it drives the calendar through
// that run's cycles, kinds and queue depths without simulating anything.
type EventMix struct {
	at    []uint64
	ev    []slot
	next  []int32 // the same core's next event, or -1
	first []int32 // each core's first event
}

// RecordEventMix simulates src under cfg and records its events.
func RecordEventMix(cfg Config, src TraceSource) (*EventMix, error) {
	m := &EventMix{}
	eventHook = func(_ *engine, at uint64, s slot) {
		m.at = append(m.at, at)
		m.ev = append(m.ev, s)
	}
	defer func() { eventHook = nil }()
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.RunSource(src); err != nil {
		return nil, err
	}
	last := make([]int32, cfg.Cores)
	for c := range last {
		last[c] = -1
	}
	m.next = make([]int32, len(m.ev))
	for i, ev := range m.ev {
		m.next[i] = -1
		if l := last[ev.core]; l >= 0 {
			m.next[l] = int32(i)
		} else {
			m.first = append(m.first, int32(i))
		}
		last[ev.core] = int32(i)
	}
	return m, nil
}

// Len returns the number of recorded events.
func (m *EventMix) Len() int { return len(m.ev) }

// Replay pushes and pops every recorded event through a fresh calendar
// and returns how many it popped.
func (m *EventMix) Replay() int {
	q := newCalendar()
	for _, i := range m.first {
		ev := m.ev[i]
		q.push(m.at[i], ev.kind, int(ev.core), uint64(i))
	}
	n := 0
	for {
		_, s, ok := q.pop()
		if !ok {
			return n
		}
		n++
		if j := m.next[s.arg]; j >= 0 {
			nx := m.ev[j]
			q.push(m.at[j], nx.kind, int(nx.core), uint64(j))
		}
	}
}

// ArmInvariantChecks makes every run started before disarm is called
// check its invariants after each event: the event's core's drain
// counters match a scan of its write buffer -- the in-flight entries form
// a prefix of issued entries, pending of them not ready -- and, after an
// event that locked or unlocked a line, the directory's lock counts match
// its line records. Another core's counters and the lock counts change
// only in such events. A violation panics with the cycle and the event.
func ArmInvariantChecks() (disarm func()) {
	var last *engine
	var locks uint64
	eventHook = func(e *engine, at uint64, s slot) {
		p := &e.procs[s.core]
		issued, pending := 0, 0
		for j := 0; j < p.wb.Len(); j++ {
			en := p.wb.At(j)
			switch {
			case !en.InFlight:
			case issued < j:
				panic(fmt.Sprintf("sim: cycle %d, after %+v: entry %d is in flight behind an unsent entry", at, s, j))
			default:
				issued++
				if !en.Ready {
					pending++
				}
			}
		}
		if issued != p.issued || pending != p.pending {
			panic(fmt.Sprintf("sim: cycle %d, after %+v: counts issued=%d pending=%d, the write buffer holds %d and %d",
				at, s, p.issued, p.pending, issued, pending))
		}
		st := e.dir.Stats()
		if n := st.Locks + st.Unlocks; e != last || n != locks {
			last, locks = e, n
			if err := e.dir.CheckLockCounts(); err != nil {
				panic(fmt.Sprintf("sim: cycle %d, after %+v: %v", at, s, err))
			}
		}
	}
	return func() { eventHook = nil }
}
