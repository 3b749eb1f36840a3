package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// run length, the workloads, and every metric with its unit, direction
// and regression bound.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedEntry `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type namedEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound is the share of the baseline's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// value is one metric as a run reports it on its result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints: whether every output checked
// out, how many operations were attempted and failed, and the metrics.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full account of one run: the result line's numbers plus
// each metric's sample distribution, the workload's named metrics and the
// first failure reasons.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]sampled `json:"metrics"`
	Named     map[string]sampled `json:"named,omitempty"`
	// RefMS is the reference loop's time over the whole run and Scale the
	// factor it gives; each set-up and each piece of the measurement was
	// scaled by the loop's time around it (speed.go).
	RefMS sampled `json:"ref_ms"`
	Scale float64 `json:"scale"`
}

// sampled is one metric of a run with the distribution of the samples
// behind it (a single sample for metrics measured once per run).
type sampled struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

func (r *record) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, m := range r.Metrics {
		l.Metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	return l
}
