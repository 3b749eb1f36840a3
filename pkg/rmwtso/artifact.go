package rmwtso

import "repro/internal/engine"

// UnitResult is one finished plan unit inside a shard artifact: the
// unit's identity plus its simulation result.
type UnitResult = engine.UnitResult

// ShardResult is the outcome of running one shard of a plan: the unit
// results, plus the plan fingerprint and shard selector that produced
// them. Written to disk (WriteFile) it becomes the machine-readable
// artifact that each process of a split sweep hands in for merging.
type ShardResult = engine.ShardResult

// MergeShardFiles reads and verifies shard artifact files and
// reassembles the complete sweep from them: every shard must carry the
// plan's fingerprint, every plan unit must appear exactly once across the
// shards, and no shard may carry a unit the plan does not know. The
// merged result holds the units in plan order, like an unsharded
// RunPlan's, so Plan.Report renders it byte-identically.
func MergeShardFiles(plan *Plan, paths ...string) (*ShardResult, error) {
	return engine.MergeShardFiles(plan, paths...)
}
