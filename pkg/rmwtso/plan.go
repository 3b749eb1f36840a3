package rmwtso

import "repro/internal/engine"

// UnitID is the stable identifier of one sweep unit: a short prefix of
// the unit's content-addressed cache-key digest (simcache key material),
// so the same (config, benchmark, seed, scale, RMW type) has the same ID
// on every machine, at every shard count, in every process. Unit IDs are
// how shards address work and how merged artifacts reassemble a sweep.
type UnitID = engine.UnitID

// Unit is one addressable work unit of a sweep plan: one benchmark
// workload simulated under one RMW atomicity type with one seed and one
// architectural configuration.
type Unit = engine.Unit

// Plan is a deterministic, ordered enumeration of every unit of a sweep:
// the benchmark × RMW type × seed grid under one architectural
// configuration, with stable content-addressed unit IDs. A plan is pure
// metadata — building one generates no trace operations and runs no
// simulation — so every process of a sharded sweep can rebuild the
// identical plan from the same Options and agree on unit identities,
// which the plan fingerprint certifies.
type Plan = engine.Plan

// Shard selects a subset of a plan's units for one process of a sweep
// split across processes or machines. The zero value selects the whole
// plan. With Count > 0, units are dealt round-robin by plan position:
// shard i of n covers the units at positions ≡ i (mod n), so the n
// shards of a plan partition it exactly and adjacent (cheap and
// expensive) units spread across the processes.
type Shard = engine.Shard

// BuildPlan enumerates the sweep plan for the options and benchmark
// specs: units are ordered spec-major, then seed, then RMW type — the
// order of RunPlan's unit results and of the runs Plan.Runs reassembles.
// Specs with no types are skipped. It fails on invalid options or
// configurations and on a unit-ID collision (which would make two
// distinct work units alias).
func BuildPlan(o Options, specs []BenchmarkSpec) (*Plan, error) {
	return engine.BuildPlan(o, specs)
}

// DefaultPlan enumerates the paper's full simulation sweep — the seven
// Table 3 benchmarks plus the wsq-mst C/C++11 replacement variants, each
// under its sound RMW types — for the options.
func DefaultPlan(o Options) (*Plan, error) { return engine.DefaultPlan(o) }

// DefaultPlanSeeds is DefaultPlan over an explicit seed list: the full
// sweep grid rerun under each workload seed.
func DefaultPlanSeeds(o Options, seeds ...int64) (*Plan, error) {
	return engine.DefaultPlanSeeds(o, seeds...)
}

// SweepSpec shapes a sweep like the experiments binary's flags and the
// HTTP service's plan jobs do: a preset ("default" or "quick") plus core,
// scale, seed and seed-count overrides. Its Options method resolves it to
// the options and seed list of DefaultPlanSeeds, so both surfaces build
// the same plan from the same spec.
type SweepSpec = engine.SweepSpec

// FullShard returns the selector that covers the whole plan.
func FullShard() Shard { return engine.FullShard() }

// ParseShard parses an "i/n" selector ("0/3" is the first of three
// shards), as taken by the binaries' -shard flag.
func ParseShard(spec string) (Shard, error) { return engine.ParseShard(spec) }
