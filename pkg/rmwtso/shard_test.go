package rmwtso_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
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
// files, like separate processes) and merging reproduces the unsharded run
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
			merged, err := rmwtso.MergeShardFiles(plan, paths...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(merged.Units, full.Units) {
				t.Fatalf("merged units differ from the unsharded run's")
			}
			report, err := plan.Report(merged)
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

// TestRunPlanEventsCarryUnitIDs asserts streamed simulation events can be
// correlated with plan entries by unit ID alone.
func TestRunPlanEventsCarryUnitIDs(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	want := map[rmwtso.UnitID]bool{}
	for _, u := range plan.Units() {
		want[u.ID] = true
	}
	var got []rmwtso.UnitID
	h, err := rmwtso.NewRunner().Submit(nil, rmwtso.Job{Plan: plan, Observer: func(e rmwtso.Event) {
		got = append(got, e.Sim.Unit)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
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
