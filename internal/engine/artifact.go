package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/atomicio"
)

// ShardSchemaVersion versions the plan fingerprint derivation and the
// shard artifact envelope. Bumping it orphans older artifacts (their
// fingerprints can never match a current plan's) instead of misreading
// them.
const ShardSchemaVersion = 2

// shardArtifactKind tags the envelope so a shard artifact can never be
// misread as some other JSON file (or vice versa).
const shardArtifactKind = "rmwtso-shard"

// UnitResult is one finished plan unit inside a shard artifact: the
// unit's identity plus its simulation result.
type UnitResult struct {
	// Unit is the plan unit's stable ID; Trace, Type and Seed restate the
	// unit's human-readable identity for listings and error messages.
	Unit  UnitID        `json:"unit"`
	Trace string        `json:"trace"`
	Type  AtomicityType `json:"type"`
	Seed  int64         `json:"seed"`
	// CacheHit marks a unit served from the result cache (no simulator
	// executed in this shard for it).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Result holds the unit's simulation statistics. It may be shared with
	// the result cache and other jobs, so it is read-only.
	Result *SimResult `json:"result"`
}

// ShardResult is the outcome of running one shard of a plan: the unit
// results, plus the plan fingerprint and shard selector that produced
// them. Written to disk (WriteFile) it becomes the machine-readable
// artifact a fleet ships back for merging.
type ShardResult struct {
	// Plan is the fingerprint of the plan the shard ran against; merges
	// refuse artifacts of a different plan.
	Plan string `json:"plan"`
	// Index and Count echo the round-robin selector (0 and 0 for a full
	// or purely predicate-selected run); Filtered records that a unit-ID
	// predicate narrowed the selection.
	Index    int  `json:"index"`
	Count    int  `json:"count"`
	Filtered bool `json:"filtered,omitempty"`
	// Units holds the finished units in plan order.
	Units []UnitResult `json:"units"`
	// Coordination, on the partial result of a run that dead-lettered
	// units, lists those units. Nil for a complete run; being execution
	// metadata, it is ignored by MergeShards.
	Coordination *Coordination `json:"coordination,omitempty"`
}

// shardEnvelope is the versioned, checksummed on-disk frame of one shard
// artifact, mirroring the simcache entry envelope: any truncation,
// bit-flip or schema drift is detected on read and reported as an error
// (an artifact is an explicit input — unlike a cache entry, it must fail
// loudly, not silently degrade to a miss).
type shardEnvelope struct {
	SchemaVersion int             `json:"schema_version"`
	Kind          string          `json:"kind"`
	PayloadSum    string          `json:"payload_sum"`
	Payload       json.RawMessage `json:"payload"`
}

// Encode frames the shard result in its versioned, checksummed envelope.
func (s *ShardResult) Encode() ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("rmwtso: marshaling shard artifact: %w", err)
	}
	// The envelope stays compact: indentation would re-flow the embedded
	// raw payload and break the byte-exact checksum.
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(shardEnvelope{
		SchemaVersion: ShardSchemaVersion,
		Kind:          shardArtifactKind,
		PayloadSum:    hex.EncodeToString(sum[:]),
		Payload:       payload,
	})
	if err != nil {
		return nil, fmt.Errorf("rmwtso: marshaling shard envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteFile writes the shard artifact to path atomically (through the
// shared write-temp-then-rename helper), so a concurrently launched merge
// only ever observes complete artifacts.
func (s *ShardResult) WriteFile(path string) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, data)
}

// DecodeShard parses and verifies an encoded shard artifact.
func DecodeShard(data []byte) (*ShardResult, error) {
	var env shardEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("rmwtso: unparsable shard artifact: %w", err)
	}
	if env.Kind != shardArtifactKind {
		return nil, fmt.Errorf("rmwtso: artifact kind %q, want %q", env.Kind, shardArtifactKind)
	}
	if env.SchemaVersion != ShardSchemaVersion {
		return nil, fmt.Errorf("rmwtso: artifact schema version %d, this build understands %d",
			env.SchemaVersion, ShardSchemaVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.PayloadSum {
		return nil, fmt.Errorf("rmwtso: artifact payload checksum mismatch (truncated or corrupted)")
	}
	var s ShardResult
	if err := json.Unmarshal(env.Payload, &s); err != nil {
		return nil, fmt.Errorf("rmwtso: unparsable shard payload: %w", err)
	}
	return &s, nil
}

// ReadShardFile reads and verifies one shard artifact file.
func ReadShardFile(path string) (*ShardResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rmwtso: reading shard artifact: %w", err)
	}
	s, err := DecodeShard(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// MergeShards reassembles the complete sweep from shard results: every
// shard must carry the plan's fingerprint, every plan unit must appear
// exactly once across the shards, and no shard may carry a unit the plan
// does not know. The reconstructed runs are in plan order and deeply
// equal to an unsharded RunPlan's — so a report built from them encodes
// byte-identically.
func MergeShards(plan *Plan, shards ...*ShardResult) ([]*BenchmarkRun, error) {
	var units []UnitResult
	for i, s := range shards {
		if s.Plan != plan.Fingerprint() {
			return nil, fmt.Errorf("rmwtso: shard %d (%s) ran plan %.16s…, this plan is %.16s… (different options or specs?)",
				i, shardDesc(s), s.Plan, plan.Fingerprint())
		}
		units = append(units, s.Units...)
	}
	return plan.Runs(units)
}

// MergeShardFiles reads, verifies and merges shard artifact files.
func MergeShardFiles(plan *Plan, paths ...string) ([]*BenchmarkRun, error) {
	shards := make([]*ShardResult, len(paths))
	for i, path := range paths {
		s, err := ReadShardFile(path)
		if err != nil {
			return nil, err
		}
		shards[i] = s
	}
	return MergeShards(plan, shards...)
}

// shardDesc renders a shard's selector for error messages.
func shardDesc(s *ShardResult) string {
	d := Shard{Index: s.Index, Count: s.Count}.String()
	if s.Filtered {
		d += ", filtered"
	}
	return d
}
