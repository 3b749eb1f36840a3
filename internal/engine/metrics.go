package engine

import (
	"sync"
	"time"

	"repro/internal/coordinator"
)

// Metrics is a point-in-time snapshot of an engine's (or one job's)
// execution counters: unit throughput, cache effectiveness, and — for
// coordinated sweeps — the queue's lease, retry, expiry and dead-letter
// counts. It holds counters only: a coordinated sweep's per-worker
// traffic and dead letters are in its ShardResult's Coordination
// section, which is built from the drained queue's snapshot.
type Metrics struct {
	// UnitsPlanned counts the units selected for execution; UnitsDone the
	// units finished so far (including cache hits). For litmus jobs the
	// units are verdicts.
	UnitsPlanned int
	UnitsDone    int
	// CacheHits and CacheMisses count simulator units served from /
	// missed by the result cache; Verdicts counts litmus verdicts.
	CacheHits   int
	CacheMisses int
	Verdicts    int
	// Elapsed is the time since the job (or engine) started counting;
	// UnitsPerSec is UnitsDone over that window.
	Elapsed     time.Duration
	UnitsPerSec float64
	// InflightLeases gauges the coordinated queue's currently leased
	// units; Retries and Expired count requeues and lease expiries;
	// DLQDepth the dead-lettered units.
	InflightLeases int
	Retries        int
	Expired        int
	DLQDepth       int
}

// metrics is the engine's internal collector. One instance lives on the
// Engine (the all-jobs aggregate) and one per job; job collectors chain
// updates to the engine's through parent.
type metrics struct {
	mu     sync.Mutex
	parent *metrics
	start  time.Time

	// obs, when non-nil, is the job's own event stream (Job.Observer):
	// it receives exactly this job's events, serialized under obsMu, so
	// concurrent jobs on one engine never interleave on it. The engine
	// aggregate's obs is always nil.
	obs   Observer
	obsMu sync.Mutex

	unitsPlanned int
	unitsDone    int
	cacheHits    int
	cacheMisses  int
	verdicts     int

	inflight int
	retries  int
	expired  int
	dlq      int

	// remoteAcks, set on a hosted coordinator's collector (NewCoordServer),
	// counts queue acks as finished units: the units execute on remote
	// workers' engines, so runUnit never credits this collector. Cache
	// counters stay untouched — hits and misses happen at the workers.
	remoteAcks bool
}

// newJobMetrics builds a per-job collector chained to the engine's.
func newJobMetrics(parent *metrics) *metrics {
	return &metrics{parent: parent, start: time.Now()}
}

func (m *metrics) update(f func(*metrics)) {
	m.mu.Lock()
	f(m)
	m.mu.Unlock()
	if m.parent != nil {
		m.parent.update(f)
	}
}

// planned records the number of units a job selected.
func (m *metrics) planned(n int) {
	m.update(func(m *metrics) { m.unitsPlanned += n })
}

// unitDone records one finished simulator unit.
func (m *metrics) unitDone(cacheHit bool) {
	m.update(func(m *metrics) {
		m.unitsDone++
		if cacheHit {
			m.cacheHits++
		} else {
			m.cacheMisses++
		}
	})
}

// verdictDone records one finished litmus verdict.
func (m *metrics) verdictDone() {
	m.update(func(m *metrics) {
		m.unitsDone++
		m.verdicts++
	})
}

// coordEvent tracks the queue's live lease gauge from its event stream;
// the authoritative retry, expiry and dead-letter totals come from
// absorbSnapshot when the queue drains.
func (m *metrics) coordEvent(e coordinator.Event) {
	switch string(e.Kind) {
	case "lease":
		m.update(func(m *metrics) { m.inflight++ })
	case "ack":
		done := m.remoteAcks
		m.update(func(m *metrics) {
			if m.inflight > 0 {
				m.inflight--
			}
			if done {
				m.unitsDone++
			}
		})
	case "nack", "expire":
		m.update(func(m *metrics) {
			if m.inflight > 0 {
				m.inflight--
			}
		})
	}
}

// absorbSnapshot adds the drained queue's retry, expiry and dead-letter
// counts to the collector and clears its lease gauge.
func (m *metrics) absorbSnapshot(snap coordinator.Snapshot) {
	m.update(func(m *metrics) {
		m.retries += snap.Retries
		m.expired += snap.Expired
		m.dlq += len(snap.DeadLetters)
		m.inflight = 0
	})
}

// snapshot renders the collector as a Metrics value.
func (m *metrics) snapshot() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		UnitsPlanned:   m.unitsPlanned,
		UnitsDone:      m.unitsDone,
		CacheHits:      m.cacheHits,
		CacheMisses:    m.cacheMisses,
		Verdicts:       m.verdicts,
		InflightLeases: m.inflight,
		Retries:        m.retries,
		Expired:        m.expired,
		DLQDepth:       m.dlq,
	}
	if !m.start.IsZero() {
		out.Elapsed = time.Since(m.start)
	}
	if secs := out.Elapsed.Seconds(); secs > 0 {
		out.UnitsPerSec = float64(out.UnitsDone) / secs
	}
	return out
}

// Metrics snapshots the engine-wide aggregate across every job it has
// run. Per-job snapshots come from the job's handle.
func (e *Engine) Metrics() Metrics { return e.metrics.snapshot() }
