package engine

import "repro/internal/simcache"

// SweepSource simulates one streaming trace source under every configured
// RMW type, one run per work unit, without ever materializing the trace:
// each run pulls fresh per-core streams from the source, so peak memory is
// bounded by the source's window regardless of trace length. The source's
// Stream method must return independent iterators (Generator.Source and
// Trace.Source both do), since the per-type runs consume it concurrently.
// The returned slice is ordered like the configured types.
func (e *Engine) SweepSource(cfg SimConfig, src TraceSource) ([]SimRun, error) {
	return e.sweepSource(cfg, src, nil)
}

// sweepKeyMeta carries the workload identity a sweep needs to derive
// cache keys; nil disables caching for the sweep.
type sweepKeyMeta struct {
	seed  int64
	scale float64
}

// SweepSourceCached is SweepSource consulting the engine's cache
// (WithCache), with the workload seed and scale that produced src
// completing each run's cache key. Hits replay stored results (flagged
// CacheHit on the run and its streamed event) without simulating; misses
// run and are stored. Without a configured cache it behaves exactly like
// SweepSource.
func (e *Engine) SweepSourceCached(cfg SimConfig, src TraceSource, seed int64, scale float64) ([]SimRun, error) {
	return e.sweepSource(cfg, src, &sweepKeyMeta{seed: seed, scale: scale})
}

// sweepSource is the shared per-type sweep; meta enables cache lookups.
func (e *Engine) sweepSource(cfg SimConfig, src TraceSource, meta *sweepKeyMeta) ([]SimRun, error) {
	types := e.opts.types
	cache := e.opts.cache
	if meta == nil {
		cache = nil
	}
	runs := make([]SimRun, len(types))
	err := e.runUnits(len(types), func(i int) error {
		run := cfg.WithRMWType(types[i])
		if err := run.Validate(); err != nil {
			return err
		}
		var key simcache.Key
		var unit UnitID
		if meta != nil {
			// The unit identity exists whenever the key material does,
			// cache or no cache, so observers can correlate events with a
			// plan built from the same inputs.
			key = simcache.SimKey(run, src, meta.seed, meta.scale)
			unit = UnitID(key.UnitID())
		}
		res, hit, err := SimulateCached(cache, key, run, src)
		if err != nil {
			return err
		}
		runs[i] = SimRun{Unit: unit, Trace: src.Name(), Type: types[i], Result: res, CacheHit: hit}
		e.metrics.unitDone(hit)
		e.emit(Event{Sim: &runs[i]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}
