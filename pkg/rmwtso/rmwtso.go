// Package rmwtso is the public API of the conf_pldi_RajaramNSE13
// reproduction ("Fast RMWs for TSO"). It is the single supported surface:
// every binary and example in this repository is written against it, and
// the internal packages behind it (memmodel, core, litmus, cpp11, sim,
// workload, experiments) may change freely between releases.
//
// The package exposes three layers of the reproduction:
//
//   - the semantics layer: litmus programs, the TSO-with-RMW memory models
//     (type-1/2/3 atomicity) and exhaustive model checking
//     (EnumerateExecutionsFunc, Explain, Suite);
//   - the implementation layer: the cycle-approximate chip-multiprocessor
//     simulator and its trace/workload generators (Simulate, Generator,
//     Fig10Trace);
//   - the evaluation layer: sweep specs, plans and the paper's tables
//     and figures (SweepSpec, DefaultPlanSeeds, Runner.RunPlan,
//     Plan.Report, EncodeReport).
//
// Work is driven through a Runner configured with functional options,
// and a job submitted to it streams its events to its own observer:
//
//	r := rmwtso.NewRunner(rmwtso.WithContext(ctx), rmwtso.WithParallelism(8))
//	h, err := r.Submit(nil, rmwtso.Job{
//		Litmus:   &rmwtso.LitmusGrid{Tests: rmwtso.Suite().Tests()},
//		Observer: func(e rmwtso.Event) { ... },
//	})
//	res, err := h.Wait() // res.Verdicts; r.CheckTests(...) without an observer
//
// The Runner (the execution engine itself) fans work (one litmus test,
// one mapping validation, one simulator run) across a goroutine pool,
// streams every finished verdict and plan unit to the job's observer as
// it completes — the same record the job returns — and still returns the
// aggregate in a deterministic order. A sweep goes from a SweepSpec to
// its report on one path, the one the experiments binary and the HTTP
// service share:
//
//	opts, seeds, err := rmwtso.SweepSpec{Preset: "quick"}.Options()
//	plan, err := rmwtso.DefaultPlanSeeds(opts, seeds...)
//	shard, err := rmwtso.NewRunner().RunPlan(ctx, plan, rmwtso.FullShard())
//	report, err := plan.Report(shard) // partial when units dead-lettered
//
// The built-in litmus tests form a fixed suite with glob filtering:
//
//	results, err := rmwtso.Suite().Filter("SB*").Run(rmwtso.WithParallelism(4))
package rmwtso

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// AtomicityType selects one of the paper's three RMW atomicity
// definitions (§2).
type AtomicityType = core.AtomicityType

// The three RMW atomicity types of the paper: type-1 is the conventional
// fence-like RMW, type-2 retires the RMW before the write buffer drains,
// and type-3 additionally needs only read permission for the read half.
const (
	Type1 = core.Type1
	Type2 = core.Type2
	Type3 = core.Type3
)

// AllTypes lists the three atomicity types in order.
func AllTypes() []AtomicityType { return core.AllTypes() }

// ParseAtomicityType parses "type-1", "type-2" or "type-3".
func ParseAtomicityType(s string) (AtomicityType, error) { return core.ParseAtomicityType(s) }

// PercentReduction returns how much smaller next is than base, in percent.
func PercentReduction(base, next float64) float64 { return stats.PercentReduction(base, next) }
