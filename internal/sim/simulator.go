package sim

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/sim/cache"
	"repro/internal/sim/directory"
	"repro/internal/sim/mesh"
	"repro/internal/sim/writebuffer"
)

// Simulator runs memory-operation traces on the simulated chip
// multiprocessor described by a Config.
type Simulator struct {
	cfg Config
}

// New returns a simulator for the given configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg}, nil
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Run simulates a materialized trace. It is a thin wrapper over RunSource:
// the trace is adapted to the streaming interface and consumed one op at a
// time. A run that cannot make progress (every remaining core blocked on a
// locked line, which can only happen with deadlock avoidance disabled)
// returns a Result with Deadlocked set rather than an error, so callers
// can assert on it. Validation lives in RunSource, which enforces the
// same conditions Trace.Validate checks.
func (s *Simulator) Run(trace *Trace) (*Result, error) {
	return s.RunSource(trace.Source())
}

// RunSource simulates a streaming trace source and returns the collected
// statistics. Each core pulls its operations on demand from a fresh
// stream, so memory stays bounded by the source's per-core window (O(1)
// for a materialized trace's views, O(episode) for workload generators)
// regardless of trace length. Deadlock is reported the same way as in Run.
func (s *Simulator) RunSource(src TraceSource) (*Result, error) {
	if src.Cores() == 0 {
		return nil, fmt.Errorf("sim: trace %q has no cores", src.Name())
	}
	if src.Cores() > s.cfg.Cores {
		return nil, fmt.Errorf("sim: trace %q has %d core streams but the configuration has %d cores",
			src.Name(), src.Cores(), s.cfg.Cores)
	}
	topo := mesh.New(s.cfg.Cores, s.cfg.LinkLatencyCycles, s.cfg.RouterLatencyCycles)
	caches := make([]*cache.Cache, s.cfg.Cores)
	for i := range caches {
		caches[i] = cache.New(cache.Config{
			SizeBytes: s.cfg.L1SizeBytes,
			Assoc:     s.cfg.L1Assoc,
			LineBytes: s.cfg.LineBytes,
		})
	}
	e := &engine{
		q: newCalendar(),
		dir: directory.New(topo, caches, directory.Latencies{
			L1:        s.cfg.L1LatencyCycles,
			L2:        s.cfg.L2LatencyCycles,
			Mem:       s.cfg.MemLatencyCycles,
			LockRetry: s.cfg.LockRetryCycles,
		}),
		procs:      make([]processor, s.cfg.Cores),
		rmwLines:   map[uint64]struct{}{},
		afterEvent: eventHook,
	}
	addrs := bloom.NewAddrList(s.cfg.BloomFilterBits, s.cfg.BloomHashes)
	for i := range e.procs {
		var stream OpStream = emptyStream{}
		if i < src.Cores() {
			stream = src.Stream(i)
		}
		e.procs[i] = processor{
			id:     i,
			cfg:    &s.cfg,
			eng:    e,
			dir:    e.dir,
			topo:   topo,
			wb:     writebuffer.New(s.cfg.WriteBufferDepth),
			addrs:  addrs,
			stream: stream,
			stats:  CoreStats{Core: i},
		}
		e.q.push(0, evStep, i, 0)
	}

	runErr := e.run(s.cfg.MaxCycles)

	res := &Result{
		Workload:   src.Name(),
		RMWType:    s.cfg.RMWType,
		PerCore:    make([]CoreStats, s.cfg.Cores),
		Broadcasts: uint64(addrs.Broadcasts()),
		UniqueRMWs: len(e.rmwLines),
	}
	allDone := true
	allDrained := true
	for i := range e.procs {
		p := &e.procs[i]
		res.PerCore[i] = p.stats
		if p.finishTime > res.Cycles {
			res.Cycles = p.finishTime
		}
		if !p.done {
			allDone = false
		}
		if !p.wb.Empty() {
			allDrained = false
		}
	}
	res.DirectoryLockDenials = e.dir.Stats().LockDenials

	if runErr != nil {
		return res, fmt.Errorf("sim: %s: %w", src.Name(), runErr)
	}
	if !allDone || !allDrained {
		// The event queue drained while cores still had work or while
		// writes were still parked on locked lines: the write-deadlock of
		// Fig. 10. This is only reachable with deadlock avoidance disabled.
		res.Deadlocked = true
	}
	return res, nil
}
