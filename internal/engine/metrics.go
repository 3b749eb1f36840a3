package engine

import (
	"sync"
	"time"
)

// Metrics is a point-in-time snapshot of an engine's (or one job's)
// execution counters: unit throughput, cache effectiveness and dead
// letters. It holds counters only: a plan job's dead letters are in its
// ShardResult's Coordination section.
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
	// Retries and Expired are always 0: the static pool runs each unit
	// once and holds no leases. They stay because the benchmark in
	// tools/rmwbench still reads them.
	Retries int
	Expired int
	// DLQDepth counts the dead-lettered units of every plan job.
	DLQDepth int
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
	dlq          int
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

// deadLetter records one unit the static pool dead-lettered.
func (m *metrics) deadLetter() {
	m.update(func(m *metrics) { m.dlq++ })
}

// snapshot renders the collector as a Metrics value.
func (m *metrics) snapshot() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Metrics{
		UnitsPlanned: m.unitsPlanned,
		UnitsDone:    m.unitsDone,
		CacheHits:    m.cacheHits,
		CacheMisses:  m.cacheMisses,
		Verdicts:     m.verdicts,
		DLQDepth:     m.dlq,
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
