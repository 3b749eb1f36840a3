package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func result(values ...float64) metricResult {
	return metricResult{Unit: "ms", Values: values, summary: summarize(values)}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.1}
	steady := result(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b metricResult
		want string
	}{
		{"within the bound", lower, steady, result(104, 105, 103, 104, 104), "same"},
		{"slower beyond the bound", lower, steady, result(120, 121, 119, 120, 120), "worse"},
		{"faster beyond the bound", lower, steady, result(80, 81, 79, 80, 80), "better"},
		{"throughput drop", higher, steady, result(80, 81, 79, 80, 80), "worse"},
		{"throughput gain", higher, steady, result(120, 121, 119, 120, 120), "better"},
		{"spread wider than the bound", lower, steady, result(60, 100, 140, 100, 100), "unresolved"},
		{"noisy but every run better", lower, result(100, 130, 170, 140, 120), result(50, 70, 90, 60, 80), "better"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesOneRowPerWorkloadMetric(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	file := func(p50 float64) *resultFile {
		var f resultFile
		for _, w := range []string{"one", "two"} {
			f.Workloads = append(f.Workloads, workloadResult{Name: w, Metrics: map[string]metricResult{
				"op_p50_ms":  result(p50, p50, p50),
				"work_per_s": result(10, 10, 10),
			}})
		}
		return &f
	}
	var out bytes.Buffer
	if !compareFiles(&out, spec, file(100), file(102)) {
		t.Errorf("2%% slower within a 10%% bound should pass:\n%s", out.String())
	}
	// Two metrics and the error fraction for each of two workloads.
	if rows := strings.Count(out.String(), "\n") - 1; rows != 6 {
		t.Errorf("%d rows, want 6:\n%s", rows, out.String())
	}
	out.Reset()
	if compareFiles(&out, spec, file(100), file(130)) || !strings.Contains(out.String(), "worse") {
		t.Errorf("30%% slower should fail:\n%s", out.String())
	}
}

func TestCompareFilesJudgesNamedMetricsAndErrors(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	file := func(jobMS float64, failed int) *resultFile {
		m := map[string]metricResult{"op_p50_ms": result(5, 5, 5), "work_per_s": result(10, 10, 10)}
		named := map[string]metricResult{
			"job_p50_ms": result(jobMS, jobMS, jobMS), "job_p90_ms": result(50, 50, 50),
			"lookup_p50_ms": result(2, 2, 2), "lookup_p90_ms": result(3, 3, 3), "req_per_s": result(10, 10, 10),
		}
		return &resultFile{Workloads: []workloadResult{{Name: "serve-mix", Attempted: 100, Failed: failed, Metrics: m, Named: named}}}
	}
	var out bytes.Buffer
	if !compareFiles(&out, spec, file(20, 0), file(21, 0)) {
		t.Errorf("identical results should pass:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "\n") - 1; rows != 8 {
		t.Errorf("%d rows, want 8 (2 end-to-end, 5 named, error_frac):\n%s", rows, out.String())
	}
	out.Reset()
	if compareFiles(&out, spec, file(20, 0), file(30, 0)) || !strings.Contains(out.String(), "worse") {
		t.Errorf("a job latency 50%% worse should fail:\n%s", out.String())
	}
	out.Reset()
	if compareFiles(&out, spec, file(20, 0), file(20, 1)) || !strings.Contains(out.String(), "worse") {
		t.Errorf("one more failed operation should fail:\n%s", out.String())
	}
}

func TestAddRunsAccumulates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	rec := func(v float64) *record {
		return &record{Correct: true, Attempted: 1, Metrics: map[string]sampled{"op_p50_ms": {Value: v, Unit: "ms", summary: summary{N: 1}}}}
	}
	for _, v := range []float64{10, 12, 14} {
		res := &resultFile{Seed: 1, Seconds: 5, Workloads: []workloadResult{summarizeRuns("sweep-cold", []*record{rec(v)})}}
		if err := addRuns(path, res); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := f.Workloads[0].Metrics["op_p50_ms"]; len(f.Workloads) != 1 || m.N != 3 || m.Median != 12 {
		t.Errorf("after three runs: %+v", f.Workloads)
	}
	if err := addRuns(path, &resultFile{Seed: 2, Seconds: 5}); err == nil {
		t.Error("runs of another seed were added")
	}
}

func TestSummarizeRuns(t *testing.T) {
	recs := []*record{
		{Correct: true, Attempted: 5, Metrics: map[string]sampled{"op_p50_ms": {Value: 10, Unit: "ms", summary: summary{N: 40}}}},
		{Attempted: 5, Failed: 1, Metrics: map[string]sampled{"op_p50_ms": {Value: 12, Unit: "ms", summary: summary{N: 40}}}},
	}
	w := summarizeRuns("sweep-cold", recs)
	m := w.Metrics["op_p50_ms"]
	if w.Correct || w.Attempted != 10 || w.Failed != 1 || m.N != 2 || m.Samples != 80 || m.Median != 11 {
		t.Errorf("summarizeRuns = %+v", w)
	}
}
