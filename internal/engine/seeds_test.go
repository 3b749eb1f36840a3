package engine_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
)

func seedTestOptions() experiments.Options {
	return experiments.Options{Cores: 4, Scale: 0.1, Seed: 11}
}

// TestMultiSeedRunsKeepSeedIdentity is the regression test for the silent
// seed-aliasing bug: the trace name does not embed the workload seed, so
// before BenchmarkRun.Seed existed a multi-seed plan reassembled two
// different seeds' results into name-colliding runs. A two-seed sweep
// must yield one run per (spec, seed) with the seed recorded, and the
// seeds' results must actually differ.
func TestMultiSeedRunsKeepSeedIdentity(t *testing.T) {
	o := seedTestOptions()
	specs := experiments.Table3Specs()[:1]
	runs, err := runSpecs(o, specs, o.Seed, o.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("%d runs, want one per (spec, seed) = 2", len(runs))
	}
	if runs[0].Name != runs[1].Name {
		t.Fatalf("run names %q vs %q: same spec must keep one trace name", runs[0].Name, runs[1].Name)
	}
	if runs[0].Seed != o.Seed || runs[1].Seed != o.Seed+1 {
		t.Fatalf("run seeds = %d, %d; want %d, %d (plan order)", runs[0].Seed, runs[1].Seed, o.Seed, o.Seed+1)
	}
	if reflect.DeepEqual(runs[0].ByType, runs[1].ByType) {
		t.Fatal("two seeds produced identical results; the seed did not reach the generator")
	}

	// The plan itself must mint distinct units per seed.
	plan, err := engine.BuildPlanSeeds(o, specs, o.Seed, o.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Seeds(); !reflect.DeepEqual(got, []int64{o.Seed, o.Seed + 1}) {
		t.Fatalf("plan.Seeds() = %v", got)
	}
	if plan.Len() != 2*len(specs[0].Types) {
		t.Fatalf("plan has %d units, want %d (grid x seeds)", plan.Len(), 2*len(specs[0].Types))
	}
}

// TestMultiSeedReportAggregates pins the cross-seed statistics pipeline:
// a two-seed sweep's report carries SeedStats with one entry per
// (benchmark, type), every encoder renders the section, and the per-seed
// sections are built from the base seed only — byte-identical to a
// single-seed report of that seed.
func TestMultiSeedReportAggregates(t *testing.T) {
	o := seedTestOptions()
	specs := experiments.Table3Specs()[:2]
	runs, err := runSpecs(o, specs, o.Seed, o.Seed+1)
	if err != nil {
		t.Fatal(err)
	}

	aggs := experiments.AggregateSeeds(runs)
	want := 0
	for _, s := range specs {
		want += len(s.Types)
	}
	if len(aggs) != want {
		t.Fatalf("%d aggregates, want %d (one per benchmark x type)", len(aggs), want)
	}
	for _, a := range aggs {
		if len(a.Seeds) != 2 {
			t.Errorf("%s/%s aggregated %d seeds, want 2", a.Benchmark, a.Type, len(a.Seeds))
		}
		if a.MeanRMWCost <= 0 || a.MeanCycles <= 0 {
			t.Errorf("%s/%s: non-positive means %+v", a.Benchmark, a.Type, a)
		}
		if a.CI95RMWCost < 0 || a.CI95Cycles < 0 {
			t.Errorf("%s/%s: negative CI half-width %+v", a.Benchmark, a.Type, a)
		}
	}

	multi, err := experiments.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.SeedStats) != want {
		t.Fatalf("report carries %d seed aggregates, want %d", len(multi.SeedStats), want)
	}

	// Base-seed sections: byte-identical to the single-seed report.
	base, err := runSpecs(o, specs)
	if err != nil {
		t.Fatal(err)
	}
	single, err := experiments.BuildReport(o, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multi.Table3, single.Table3) ||
		!reflect.DeepEqual(multi.Fig11a, single.Fig11a) ||
		!reflect.DeepEqual(multi.Fig11b, single.Fig11b) ||
		multi.Summary != single.Summary {
		t.Fatal("multi-seed per-seed sections differ from the base seed's single-seed report")
	}
	if len(single.SeedStats) != 0 {
		t.Fatalf("single-seed report has %d seed aggregates, want none", len(single.SeedStats))
	}

	// Every encoder renders the section; single-seed encodings omit it.
	for _, format := range experiments.Formats() {
		enc, err := experiments.NewEncoder(format)
		if err != nil {
			t.Fatal(err)
		}
		var with, without bytes.Buffer
		if err := enc.Encode(&with, multi); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := enc.Encode(&without, single); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		marker := "seed_stats"
		if format == experiments.FormatASCII {
			marker = "Seed stability"
		}
		if !strings.Contains(with.String(), marker) {
			t.Errorf("%s encoding of a multi-seed report lacks the seed section", format)
		}
		if strings.Contains(without.String(), marker) {
			t.Errorf("%s encoding of a single-seed report mentions seed statistics", format)
		}
	}

	// The JSON round trip preserves the aggregates structurally.
	var buf bytes.Buffer
	if err := (experiments.JSONEncoder{}).Encode(&buf, multi); err != nil {
		t.Fatal(err)
	}
	back, err := experiments.DecodeReportJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.SeedStats, multi.SeedStats) {
		t.Fatal("seed aggregates lost in the JSON round trip")
	}
}

// TestAggregateSeedsSkipsPartialTypes covers the variant grids: a type
// only some seeds ran under (impossible through the plan pipeline, but
// reachable from hand-built runs) must still aggregate per type, and the
// type-3-free write-replacement variant gets no type-3 aggregate.
func TestAggregateSeedsSkipsPartialTypes(t *testing.T) {
	o := seedTestOptions()
	runs, err := runSpecs(o, experiments.Cpp11Specs()[:1], o.Seed, o.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range experiments.AggregateSeeds(runs) {
		if a.Type == core.Type3 {
			t.Fatalf("write replacement aggregated type-3: %+v", a)
		}
	}
}
