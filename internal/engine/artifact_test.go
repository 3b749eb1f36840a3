package engine_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
)

// TestDecodeShardRefusesOldSchema asserts that an artifact written under
// schema version 1, whose results still carried one record per dynamic
// RMW, is refused with the schema-version error rather than decoded into
// the current shape.
func TestDecodeShardRefusesOldSchema(t *testing.T) {
	data, err := (&engine.ShardResult{Plan: "fingerprint"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.DecodeShard(data); err != nil {
		t.Fatalf("current-schema artifact refused: %v", err)
	}
	current := fmt.Sprintf(`"schema_version":%d,`, engine.ShardSchemaVersion)
	old := bytes.Replace(data, []byte(current), []byte(`"schema_version":1,`), 1)
	if bytes.Equal(old, data) {
		t.Fatalf("envelope has no %s field: %s", current, data)
	}
	_, err = engine.DecodeShard(old)
	want := fmt.Sprintf("artifact schema version 1, this build understands %d", engine.ShardSchemaVersion)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("version-1 artifact: err = %v, want %q", err, want)
	}
}

// shardOptions shrink the default sweep to a test-sized plan.
func shardOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.Cores = 4
	o.Scale = 0.05
	return o
}

// TestMergeRejectsAnotherRunsResult merges a shard in which one unit
// carries the result of another run -- another RMW type's, another
// trace's, or one with its per-core statistics emptied -- and requires the
// merge to fail and name that unit.
func TestMergeRejectsAnotherRunsResult(t *testing.T) {
	plan, err := engine.DefaultPlan(shardOptions())
	if err != nil {
		t.Fatal(err)
	}
	full, err := engine.New().RunPlan(nil, plan, engine.Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.MergeShards(plan, full); err != nil {
		t.Fatalf("clean merge failed: %v", err)
	}
	victim := full.Units[0]
	var otherType, otherTrace *engine.SimResult
	for _, ur := range full.Units {
		switch {
		case ur.Trace == victim.Trace && ur.Type != victim.Type:
			otherType = ur.Result
		case ur.Trace != victim.Trace && ur.Type == victim.Type:
			otherTrace = ur.Result
		}
	}
	if otherType == nil || otherTrace == nil {
		t.Fatal("the plan has no unit of another type or trace to borrow a result from")
	}
	noCores := *victim.Result
	noCores.PerCore = nil
	for name, r := range map[string]*engine.SimResult{
		"another type's run":  otherType,
		"another trace's run": otherTrace,
		"no per-core stats":   &noCores,
	} {
		forged := *full
		forged.Units = append([]engine.UnitResult(nil), full.Units...)
		forged.Units[0].Result = r
		_, err := engine.MergeShards(plan, &forged)
		if err == nil || !strings.Contains(err.Error(), string(victim.Unit)) {
			t.Errorf("%s: merge returned %v, want an error naming unit %s", name, err, victim.Unit)
		}
		if _, err := plan.Runs(forged.Units); err == nil {
			t.Errorf("%s: Runs accepted the forged unit", name)
		}
	}
}

// TestMergeFailsLoudly covers the merge error cases: a missing unit, a
// duplicated unit, an artifact from a different plan, and a corrupted
// artifact file.
func TestMergeFailsLoudly(t *testing.T) {
	plan, err := engine.DefaultPlan(shardOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	s0, err := eng.RunPlan(nil, plan, engine.Shard{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eng.RunPlan(nil, plan, engine.Shard{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := engine.MergeShards(plan, s0); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Errorf("merge with a missing shard: %v", err)
	}
	if _, err := engine.MergeShards(plan, s0, s1, s1); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Errorf("merge with a duplicated shard: %v", err)
	}
	if _, err := engine.MergeShards(plan, s0, s1); err != nil {
		t.Errorf("clean merge failed: %v", err)
	}

	// An artifact whose plan fingerprint differs must be rejected before
	// any unit comparison happens.
	other := *s0
	other.Plan = strings.Repeat("0", len(s0.Plan))
	if _, err := engine.MergeShards(plan, &other, s1); err == nil ||
		!strings.Contains(err.Error(), "plan") {
		t.Errorf("merge with an alien-plan shard: %v", err)
	}

	// A unit the plan does not know (alien unit under the right
	// fingerprint, e.g. a hand-edited artifact) must be rejected.
	alien := *s1
	alien.Units = append(append([]engine.UnitResult(nil), s1.Units...), engine.UnitResult{
		Unit:   "deadbeefdeadbeef",
		Trace:  "bogus",
		Type:   core.Type1,
		Result: s1.Units[0].Result,
	})
	if _, err := engine.MergeShards(plan, s0, &alien); err == nil ||
		!strings.Contains(err.Error(), "not in the plan") {
		t.Errorf("merge with an alien unit: %v", err)
	}

	// Corrupting an artifact file must fail the read, not the merge.
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.json")
	if err := s0.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the payload ("units" only occurs there; the
	// envelope's own keys are schema_version/kind/payload_sum/payload).
	idx := bytes.Index(data, []byte(`"units"`))
	if idx < 0 {
		t.Fatal("artifact payload not found")
	}
	data[idx+1] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadShardFile(path); err == nil {
		t.Errorf("corrupted artifact read succeeded")
	}
	// Truncation too.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadShardFile(path); err == nil {
		t.Errorf("truncated artifact read succeeded")
	}
}
