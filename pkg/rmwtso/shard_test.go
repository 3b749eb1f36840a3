package rmwtso_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/rmwtso"
)

// shardOptions shrink the sweep far enough that the differential suite
// (1+2+4 sharded runs plus an unsharded one) stays test-sized.
func shardOptions() rmwtso.Options {
	o := rmwtso.QuickOptions()
	o.Cores = 4
	o.Scale = 0.05
	return o
}

// encodeAll renders the report in every format, keyed by format name.
func encodeAll(t *testing.T, r *rmwtso.Report) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, format := range rmwtso.ReportFormats() {
		var b bytes.Buffer
		if err := rmwtso.EncodeReport(&b, r, format); err != nil {
			t.Fatalf("encoding %s: %v", format, err)
		}
		out[format] = b.Bytes()
	}
	return out
}

// TestShardMergeDifferential is the acceptance differential: for
// N ∈ {1, 2, 4} shards, running every shard separately (through artifact
// files, like a real fleet) and merging reproduces the unsharded run
// exactly — deeply equal runs, deeply equal reports, byte-identical
// ASCII/JSON/CSV encodings.
func TestShardMergeDifferential(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}

	runner := rmwtso.NewRunner()
	full, err := runner.RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, err := plan.Runs(full.Units)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := rmwtso.BuildReport(o, wantRuns)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := encodeAll(t, wantReport)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			paths := make([]string, n)
			for i := 0; i < n; i++ {
				// A fresh Runner per shard, like a fresh process.
				sr, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.Shard{Index: i, Count: n})
				if err != nil {
					t.Fatal(err)
				}
				paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
				if err := sr.WriteFile(paths[i]); err != nil {
					t.Fatal(err)
				}
			}
			runs, err := rmwtso.MergeShardFiles(plan, paths...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(runs, wantRuns) {
				t.Fatalf("merged runs differ from the unsharded run")
			}
			report, err := rmwtso.BuildReport(o, runs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(report, wantReport) {
				t.Fatalf("merged report differs from the unsharded report")
			}
			for format, want := range wantBytes {
				var b bytes.Buffer
				if err := rmwtso.EncodeReport(&b, report, format); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b.Bytes(), want) {
					t.Fatalf("%s encoding of the merged report is not byte-identical", format)
				}
			}
		})
	}
}

// TestMergeRejectsAnotherRunsResult merges a shard in which one unit
// carries the result of another run -- another RMW type's, another
// trace's, or one with its per-core statistics emptied -- and requires the
// merge to fail and name that unit, as the coordinator's ack check does.
func TestMergeRejectsAnotherRunsResult(t *testing.T) {
	plan, err := rmwtso.DefaultPlan(shardOptions())
	if err != nil {
		t.Fatal(err)
	}
	full, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.Shard{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rmwtso.MergeShards(plan, full); err != nil {
		t.Fatalf("clean merge failed: %v", err)
	}
	victim := full.Units[0]
	var otherType, otherTrace *rmwtso.SimResult
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
	for name, r := range map[string]*rmwtso.SimResult{
		"another type's run":  otherType,
		"another trace's run": otherTrace,
		"no per-core stats":   &noCores,
	} {
		forged := *full
		forged.Units = append([]rmwtso.UnitResult(nil), full.Units...)
		forged.Units[0].Result = r
		_, err := rmwtso.MergeShards(plan, &forged)
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
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	runner := rmwtso.NewRunner()
	s0, err := runner.RunPlan(nil, plan, rmwtso.Shard{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := runner.RunPlan(nil, plan, rmwtso.Shard{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := rmwtso.MergeShards(plan, s0); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Errorf("merge with a missing shard: %v", err)
	}
	if _, err := rmwtso.MergeShards(plan, s0, s1, s1); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Errorf("merge with a duplicated shard: %v", err)
	}
	if _, err := rmwtso.MergeShards(plan, s0, s1); err != nil {
		t.Errorf("clean merge failed: %v", err)
	}

	// An artifact whose plan fingerprint differs must be rejected before
	// any unit comparison happens.
	other := *s0
	other.Plan = strings.Repeat("0", len(s0.Plan))
	if _, err := rmwtso.MergeShards(plan, &other, s1); err == nil ||
		!strings.Contains(err.Error(), "plan") {
		t.Errorf("merge with an alien-plan shard: %v", err)
	}

	// A unit the plan does not know (alien unit under the right
	// fingerprint, e.g. a hand-edited artifact) must be rejected.
	alien := *s1
	alien.Units = append(append([]rmwtso.UnitResult(nil), s1.Units...), rmwtso.UnitResult{
		Unit:   "deadbeefdeadbeef",
		Trace:  "bogus",
		Type:   rmwtso.Type1,
		Result: s1.Units[0].Result,
	})
	if _, err := rmwtso.MergeShards(plan, s0, &alien); err == nil ||
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
	if _, err := rmwtso.ReadShardFile(path); err == nil {
		t.Errorf("corrupted artifact read succeeded")
	}
	// Truncation too.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rmwtso.ReadShardFile(path); err == nil {
		t.Errorf("truncated artifact read succeeded")
	}
}

// TestRunPlanEventsCarryUnitIDs asserts streamed simulation events can be
// correlated with plan entries by unit ID alone.
func TestRunPlanEventsCarryUnitIDs(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.BuildPlan(o, rmwtso.Cpp11Specs())
	if err != nil {
		t.Fatal(err)
	}
	want := map[rmwtso.UnitID]bool{}
	for _, u := range plan.Units() {
		want[u.ID] = true
	}
	var got []rmwtso.UnitID
	runner := rmwtso.NewRunner(rmwtso.WithObserver(func(e rmwtso.Event) {
		if e.Sim != nil {
			got = append(got, e.Sim.Unit)
		}
	}))
	if _, err := runner.RunPlan(nil, plan, rmwtso.FullShard()); err != nil {
		t.Fatal(err)
	}
	if len(got) != plan.Len() {
		t.Fatalf("%d events for %d units", len(got), plan.Len())
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("event unit %q is not a plan unit", id)
		}
	}
}

// TestCheckTestsShardedPartition asserts the litmus verdict grid shards
// like a plan: disjoint, collectively exhaustive, IDs stable, and the
// merged verdict set equal to the unsharded run's.
func TestCheckTestsShardedPartition(t *testing.T) {
	view := rmwtso.Suite().Filter("SB*")
	all, err := view.Run()
	if err != nil {
		t.Fatal(err)
	}
	byUnit := map[string]rmwtso.TestResult{}
	for _, r := range all {
		if r.Unit == "" {
			t.Fatalf("unsharded verdict for %s/%s has no unit ID", r.Test.Name, r.Atomicity)
		}
		byUnit[r.Unit] = r
	}
	const n = 3
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		part, err := view.RunShard(rmwtso.Shard{Index: i, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range part {
			seen[r.Unit]++
			want, ok := byUnit[r.Unit]
			if !ok {
				t.Fatalf("sharded verdict unit %s not in the unsharded run", r.Unit)
			}
			if r.Holds != want.Holds || !r.Outcomes.Equal(want.Outcomes) {
				t.Errorf("sharded verdict for %s/%s differs", r.Test.Name, r.Atomicity)
			}
		}
	}
	if len(seen) != len(byUnit) {
		t.Fatalf("shards covered %d of %d verdicts", len(seen), len(byUnit))
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("verdict %s ran %d times", id, c)
		}
	}
}
