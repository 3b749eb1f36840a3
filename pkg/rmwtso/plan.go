package rmwtso

import (
	"context"

	"repro/internal/engine"
)

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
// simulation — so every process of a sharded fleet can rebuild the
// identical plan from the same Options and agree on unit identities,
// which the plan fingerprint certifies.
type Plan = engine.Plan

// Shard selects a subset of a plan's units for one process of a fleet.
// The zero value selects the whole plan. With Count > 0, units are dealt
// round-robin by plan position: shard i of n covers the units at
// positions ≡ i (mod n), so the n shards of a plan partition it exactly
// and adjacent (cheap and expensive) units spread across the fleet. Only,
// when non-nil, additionally restricts the shard to units whose ID it
// accepts — set it alone (Count == 0) for an arbitrary unit-ID predicate.
type Shard = engine.Shard

// BuildPlan enumerates the sweep plan for the options and benchmark
// specs: units are ordered spec-major, then seed, then RMW type — the
// exact execution and result order of Runner.RunBenchmarks. Specs with no
// types are skipped. It fails on invalid options or configurations and on
// a unit-ID collision (which would make two distinct work units alias).
func BuildPlan(o Options, specs []BenchmarkSpec) (*Plan, error) {
	return engine.BuildPlan(o, specs)
}

// BuildPlanSeeds is BuildPlan over an explicit seed list, for sweeps that
// rerun the grid under several workload seeds. Every (spec, seed) pair
// becomes one source group; group identity — and thus the report's
// run-level identity — includes the seed (BenchmarkRun.Seed), so
// multi-seed plans reassemble into one run per (spec, seed) without
// name collisions.
func BuildPlanSeeds(o Options, specs []BenchmarkSpec, seeds ...int64) (*Plan, error) {
	return engine.BuildPlanSeeds(o, specs, seeds...)
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

// FullShard returns the selector that covers the whole plan.
func FullShard() Shard { return engine.FullShard() }

// ParseShard parses an "i/n" selector ("0/3" is the first of three
// shards), as taken by the binaries' -shard flag.
func ParseShard(spec string) (Shard, error) { return engine.ParseShard(spec) }

// RunPlan executes the units of the plan a shard selects on the Runner's
// worker pool and returns their results as a shard artifact. A nil ctx
// uses the Runner's context (WithContext). Unit identities, order and
// results are exactly the plan's: running shards 0..n-1 of a plan on n
// processes and merging the artifacts (MergeShards) reconstructs the
// unsharded sweep bit for bit.
//
// The plan — not the Runner's WithRMWTypes restriction — determines what
// runs: dropping plan units silently would leave merges incomplete. Each
// unit streams its source group's trace lazily exactly like
// RunBenchmarks, and the Runner's cache (WithCache, else the plan
// options' Cache/CacheDir) serves and stores units by the same keys, so
// warm shards do zero simulation work.
func (r *Runner) RunPlan(ctx context.Context, plan *Plan, shard Shard) (*ShardResult, error) {
	return r.eng.RunPlan(ctx, plan, shard)
}
