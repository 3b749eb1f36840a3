package engine_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpp11"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/litmus"
)

// update regenerates the report golden files instead of diffing:
//
//	go test ./internal/engine -run TestEngineModesDifferential -update
var update = flag.Bool("update", false, "rewrite the report golden files instead of diffing")

// diffOptions pin the differential sweep's shape; the goldens embed its
// numbers, so changing it requires -update.
func diffOptions() experiments.Options {
	return experiments.Options{Cores: 4, Scale: 0.05, Seed: 20130601}
}

// fullGrid is the complete benchmark grid: the seven Table 3 benchmarks
// plus the wsq-mst C/C++11 replacement variants.
func fullGrid() []experiments.BenchmarkSpec {
	return append(experiments.Table3Specs(), experiments.Cpp11Specs()...)
}

// submitPlan pushes one plan job through engine.Submit — the service
// entry point, not the RunPlan convenience wrapper — and reassembles the
// runs.
func submitPlan(t *testing.T, eng *engine.Engine, plan *engine.Plan, shard engine.Shard) *engine.ShardResult {
	t.Helper()
	h, err := eng.Submit(nil, engine.Job{Plan: plan, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard == nil {
		t.Fatal("plan job returned no shard result")
	}
	return res.Shard
}

// TestEngineModesDifferential is the engine-vs-legacy differential: the
// full benchmark grid submitted through engine.Submit whole and as merged
// shards must produce deeply equal runs, and the report
// built from them must encode byte-identically to the blessed goldens in
// every format. Run with -race in CI; bless intentional result changes
// with -update.
func TestEngineModesDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep skipped in -short mode")
	}
	o := diffOptions()
	plan, err := engine.BuildPlan(o, fullGrid())
	if err != nil {
		t.Fatal(err)
	}

	// Static: one unsharded plan job.
	staticRes := submitPlan(t, engine.New(), plan, engine.FullShard())
	staticRuns, err := plan.Runs(staticRes.Units)
	if err != nil {
		t.Fatal(err)
	}

	// Sharded: three round-robin shards on fresh engines, merged.
	var shards []*engine.ShardResult
	for i := 0; i < 3; i++ {
		shard, err := engine.ParseShard(fmt.Sprintf("%d/3", i))
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, submitPlan(t, engine.New(), plan, shard))
	}
	merged, err := engine.MergeShards(plan, shards...)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(merged, staticRes) {
		t.Error("the merged shards differ from the static submission")
	}

	// Byte-identity against the blessed goldens, in every format.
	report, err := experiments.BuildReport(o, staticRuns)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range experiments.Formats() {
		enc, err := experiments.NewEncoder(format)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := enc.Encode(&b, report); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "report_"+format+".golden")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden (run with -update to create it): %v", err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("%s encoding drifted from %s (%d vs %d bytes); bless intentional changes with -update",
				format, path, b.Len(), len(want))
		}
	}
}

// TestEngineLitmusDifferential pushes the full litmus registry through
// engine.Submit and checks every verdict against a direct, engine-free
// Test.Run — the two paths must agree on every field.
func TestEngineLitmusDifferential(t *testing.T) {
	tests := litmus.AllTests()
	eng := engine.New()
	h, err := eng.Submit(nil, engine.Job{Litmus: &engine.LitmusGrid{Tests: tests}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	types := eng.Types()
	if len(res.Verdicts) != len(tests)*len(types) {
		t.Fatalf("%d verdicts, want %d", len(res.Verdicts), len(tests)*len(types))
	}
	i := 0
	for _, tst := range tests {
		for _, typ := range types {
			got := res.Verdicts[i]
			i++
			want, err := tst.Run(typ)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %s: engine verdict differs from direct run\n got: %+v\nwant: %+v",
					tst.Name, typ, got, want)
			}
		}
	}

	// The convenience wrapper is the same dispatch path.
	direct, err := eng.CheckTests(tests...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, res.Verdicts) {
		t.Fatal("CheckTests differs from Submit of the same grid")
	}
}

// TestSubmitRejectsShardedLitmusJob checks that a litmus job runs whole:
// Submit refuses one with a shard before anything runs.
func TestSubmitRejectsShardedLitmusJob(t *testing.T) {
	eng := engine.New()
	h, err := eng.Submit(nil, engine.Job{
		Litmus: &engine.LitmusGrid{Tests: litmus.AllTests()},
		Shard:  engine.Shard{Index: 0, Count: 2},
	})
	if err == nil || h != nil {
		t.Fatalf("Submit of a litmus job with shard 0/2 = (%v, %v), want a synchronous error", h, err)
	}
	if m := eng.Metrics(); m.UnitsPlanned != 0 {
		t.Fatalf("the rejected job planned %d verdicts", m.UnitsPlanned)
	}
}

// TestEngineGroupedUnitsParallel checks the grouped litmus and mapping
// jobs on a pool of 4 workers, with 1, 2 and 8 enumeration workers per
// walk and a type list out of order. Each verdict of a litmus job over
// the full grid must equal the direct Test.Run, in (test, type) order,
// and each (test, type) must stream exactly one event. ValidateMappings
// must return one result per (program, mapping, type), equal to the
// one-shot cpp11.ValidateMapping, in that order.
func TestEngineGroupedUnitsParallel(t *testing.T) {
	tests := litmus.AllTests()
	types := []core.AtomicityType{core.Type3, core.Type1, core.Type2}
	programs := cpp11.AllPrograms()
	type verdict struct {
		test string
		typ  core.AtomicityType
	}
	for _, workers := range []int{1, 2, 8} {
		eng := engine.New(engine.WithParallelism(4), engine.WithEnumWorkers(workers), engine.WithRMWTypes(types...))
		// A job's observer is called serially, and Wait orders its calls
		// before the checks below.
		events := map[verdict]int{}
		h, err := eng.Submit(nil, engine.Job{
			Litmus:   &engine.LitmusGrid{Tests: tests},
			Observer: func(ev engine.Event) { events[verdict{ev.Litmus.Test.Name, ev.Litmus.Atomicity}]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Verdicts) != len(tests)*len(types) {
			t.Fatalf("workers=%d: %d verdicts, want %d", workers, len(res.Verdicts), len(tests)*len(types))
		}
		if len(events) != len(res.Verdicts) {
			t.Errorf("workers=%d: events streamed for %d (test, type) pairs, want %d", workers, len(events), len(res.Verdicts))
		}
		i := 0
		for _, tst := range tests {
			for _, typ := range types {
				got := res.Verdicts[i]
				i++
				want, err := tst.Run(typ)
				if err != nil {
					t.Fatal(err)
				}
				if n := events[verdict{tst.Name, typ}]; n != 1 {
					t.Errorf("workers=%d: %s under %s streamed %d events, want 1", workers, tst.Name, typ, n)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: %s under %s: engine verdict differs from direct run\n got: %+v\nwant: %+v",
						workers, tst.Name, typ, got, want)
				}
			}
		}

		got, err := eng.ValidateMappings(programs...)
		if err != nil {
			t.Fatal(err)
		}
		i = 0
		for _, p := range programs {
			for _, m := range cpp11.AllMappings() {
				for _, typ := range types {
					want, err := cpp11.ValidateMapping(p, m, typ)
					if err != nil {
						t.Fatal(err)
					}
					if i >= len(got) || !reflect.DeepEqual(got[i], want) {
						t.Fatalf("workers=%d: mapping result %d differs from ValidateMapping(%s, %s, %s)", workers, i, p.Name, m, typ)
					}
					i++
				}
			}
		}
		if len(got) != i {
			t.Errorf("workers=%d: %d mapping results, want %d", workers, len(got), i)
		}
	}
}
