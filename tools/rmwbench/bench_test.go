package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
)

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode pins BENCHMARK.json to the workloads and metrics
// the code runs and reports.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec lists %d workloads, code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		list string
		spec []metricSpec
		code []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: spec lists %d metrics, code reports %d", c.list, len(c.spec), len(c.code))
			continue
		}
		for i := range c.spec {
			if c.spec[i].Name != c.code[i].Name || c.spec[i].Unit != c.code[i].Unit {
				t.Errorf("%s %d: spec %s [%s], code %s [%s]", c.list, i,
					c.spec[i].Name, c.spec[i].Unit, c.code[i].Name, c.code[i].Unit)
			}
		}
	}
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, w := range workloads {
		for _, n := range w.named {
			found := false
			for _, m := range spec.EndToEnd {
				found = found || m.Name == n.refines
			}
			if !found {
				t.Errorf("%s: named metric %s refines %s, which the spec does not list", w.name, n.name, n.refines)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has bound %g, above setup_s's %g: setup_s must carry the largest", m.Name, m.Bound, setup)
		}
	}
}

// TestWorkloadsAtToySize runs every workload untraced and traced at toy
// size and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json lists for its mode, with the listed units, and
// untraced, the workload's named metrics.
func TestWorkloadsAtToySize(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var tr *tracer
				want := spec.EndToEnd
				if traced {
					tr = newTracer()
					want = spec.PerLayer
				}
				rec, err := run(context.Background(), w, &env{seed: 11, size: toySize(), dir: t.TempDir()}, tr)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d errors=%q",
						traced, rec.Correct, rec.Attempted, rec.Failed, rec.Errors)
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, spec lists %d", traced, len(rec.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rec.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s missing", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("traced=%v: %s unit %q, spec %q", traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("%s = %g, want > 0", m.Name, got.Value)
					}
				}
				if traced && len(tr.snapshot()) == 0 {
					t.Error("traced run recorded no spans")
				}
				for _, n := range w.named {
					got, ok := rec.Named[n.name]
					switch {
					case traced && ok:
						t.Errorf("traced run reports named metric %s", n.name)
					case !traced && (!ok || got.Unit != n.unit || got.Value <= 0):
						t.Errorf("named metric %s = %+v, want a positive value in %s", n.name, got, n.unit)
					}
				}
				line, err := json.Marshal(rec.line())
				if err != nil {
					t.Fatal(err)
				}
				var back map[string]any
				if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
					t.Errorf("result line %s: %v", line, err)
				}
			}
		})
	}
}
