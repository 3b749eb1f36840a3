package rmwtso

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// SimConfig describes the simulated chip multiprocessor (Table 2): cores,
// cache geometry, latencies, the RMW implementation type and the
// deadlock-avoidance knobs.
type SimConfig = sim.Config

// DefaultSimConfig returns the paper's architectural parameters.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Trace is a fully materialized per-core memory-operation trace. The
// simulator also accepts the lazy TraceSource form, which is the right
// shape for long workloads; a Trace adapts to it via its Source method.
type Trace = sim.Trace

// TraceOp is one operation of a trace.
type TraceOp = sim.Op

// OpStream yields one core's operations in program order, one at a time.
// Streams are single-consumer; obtain a fresh one per run from a
// TraceSource.
type OpStream = sim.OpStream

// TraceSource is the lazy form of a Trace: a named bundle of per-core
// operation streams produced on demand, so the simulator's memory use is
// bounded by the source's per-core window instead of the trace length.
// Generator.Source builds one from a benchmark profile; Trace.Source
// adapts a materialized trace.
type TraceSource = sim.TraceSource

// SimResult holds the statistics of one simulation run, including the
// per-RMW cost split of Fig. 11(a).
type SimResult = sim.Result

// Simulate runs one materialized trace on the simulated machine described
// by the configuration. For bounded-memory runs of long workloads, use
// SimulateSource; to sweep a benchmark workload across RMW types in
// parallel and through the result cache, run a one-spec plan (BuildPlan,
// Runner.RunPlan, Plan.Runs).
func Simulate(cfg SimConfig, trace *Trace) (*SimResult, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(trace)
}

// SimulateSource runs one streaming trace source on the simulated machine,
// pulling each core's operations on demand so memory stays bounded by the
// source's per-core window regardless of trace length. For the same
// (profile, seed, cores, scale) a streamed run produces statistics
// identical to Simulate on the materialized trace.
func SimulateSource(cfg SimConfig, src TraceSource) (*SimResult, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunSource(src)
}

// Fig10Trace builds the write-deadlock access pattern of the paper's
// Fig. 10 on the first two cores: after a warm-up that makes each core
// the owner of the line it will RMW, core 0 writes line A and RMWs line B
// while core 1 writes line B and RMWs line A. The final fences stand in
// for the rest of the program waiting on the store buffer. A naive
// type-2/3 implementation deadlocks on it; the bloom-filter addr-list
// protocol (§3.2) completes it.
func Fig10Trace(cores int) *Trace {
	const lineA, lineB = 0x10000, 0x20000
	tr := sim.NewTrace("fig10", cores)
	tr.Append(0, sim.RMW(lineB), sim.Compute(5000))
	tr.Append(1, sim.RMW(lineA), sim.Compute(5000))
	tr.Append(0, sim.Write(lineA), sim.RMW(lineB), sim.Fence(), sim.Compute(1))
	tr.Append(1, sim.Write(lineB), sim.RMW(lineA), sim.Fence(), sim.Compute(1))
	return tr
}

// Profile describes one synthetic benchmark workload (Table 3 row).
type Profile = workload.Profile

// Generator turns a profile into per-core traces deterministically from
// its seed: Generate materializes the whole trace, Source yields a lazy
// per-core TraceSource that synthesizes operations one synchronization
// episode at a time (O(episode) memory per core). Both forms produce
// byte-identical op sequences.
type Generator = workload.Generator

// WorkloadSource is the lazy trace source a Generator builds from a
// benchmark profile; it implements TraceSource with fresh, independently
// seeded streams per call, so one source can feed concurrent runs.
type WorkloadSource = workload.Source

// Replacement selects the wsq-mst C/C++11 variant: which SC accesses of
// the Chase-Lev deque are compiled to RMWs.
type Replacement = workload.Replacement

// The wsq-mst replacement variants.
const (
	NoReplacement    = workload.NoReplacement
	ReadReplacement  = workload.ReadReplacement
	WriteReplacement = workload.WriteReplacement
)

// FindProfile returns the named benchmark profile.
func FindProfile(name string) (Profile, error) { return workload.FindProfile(name) }

// ProfileNames lists the available benchmark profiles.
func ProfileNames() []string { return workload.ProfileNames() }

// WSQProfile returns the lock-free work-stealing benchmark profile
// (wsq-mst), the subject of the C/C++11 replacement experiments.
func WSQProfile() Profile { return workload.WSQProfile() }
